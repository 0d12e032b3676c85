"""Greedy decoding, prefix beam search against an exhaustive oracle, and the
stupid-backoff n-gram model."""

import itertools
import math

import numpy as np
import pytest

import vadasr.autodiff as ad
from vadasr.decode import (
    BACKOFF_LOG,
    BeamConfig,
    NgramLM,
    beam_search,
    greedy_decode,
    train_ngram,
)
from vadasr.errors import DataError, UsageError, VocabularyError
from vadasr.model import PosteriorGrid

from conftest import random_grid


def grid_from_probs(probs, vocab):
    probs = np.asarray(probs, dtype=float)
    return PosteriorGrid(log_probs=ad.Tensor(np.log(probs)), vocab=vocab,
                         blank_index=len(vocab))


def exhaustive_prefix_scores(grid):
    """Oracle: exact CTC probability of every collapsed label sequence by
    enumerating all K^T alignments."""
    arr = grid.log_probs.data
    T, K = arr.shape
    blank = grid.blank_index
    scores = {}
    for alignment in itertools.product(range(K), repeat=T):
        out = []
        prev = -1
        for a in alignment:
            if a != prev and a != blank:
                out.append(a)
            prev = a
        key = tuple(out)
        lp = sum(arr[t, a] for t, a in enumerate(alignment))
        scores[key] = np.logaddexp(scores.get(key, -np.inf), lp)
    return scores


class TestGreedy:
    def test_collapse_and_blank_strip(self):
        # path: a a - a b b -> "a a b"
        probs = [
            [0.8, 0.1, 0.1],
            [0.8, 0.1, 0.1],
            [0.1, 0.1, 0.8],
            [0.8, 0.1, 0.1],
            [0.1, 0.8, 0.1],
            [0.1, 0.8, 0.1],
        ]
        grid = grid_from_probs(probs, ["a", "b"])
        assert greedy_decode(grid) == ("a", "a", "b")

    def test_all_blank_is_empty(self):
        grid = grid_from_probs([[0.1, 0.1, 0.8]] * 4, ["a", "b"])
        assert greedy_decode(grid) == ()


class TestBeamOracle:
    def test_full_beam_matches_exhaustive(self, rng):
        # with a beam wide enough to never prune, the search must produce
        # the exact CTC mass of every prefix it keeps
        for trial in range(30):
            grid = random_grid(rng, int(rng.integers(1, 5)), 2)
            oracle = exhaustive_prefix_scores(grid)
            hyps = beam_search(grid, BeamConfig(beam_size=10_000,
                                                lm_weight=0.0,
                                                word_score=0.0))
            assert hyps
            by_tokens = {h.tokens: h for h in hyps}
            for key, lp in oracle.items():
                tokens = tuple(grid.vocab[i] for i in key)
                assert tokens in by_tokens
                assert by_tokens[tokens].ctc_score == pytest.approx(lp,
                                                                    abs=1e-9)
            # top hypothesis is the true argmax sequence
            best_oracle = max(oracle, key=oracle.get)
            assert hyps[0].tokens == tuple(grid.vocab[i] for i in best_oracle)

    def test_narrow_beam_never_beats_wide_beam(self, rng):
        for _ in range(20):
            grid = random_grid(rng, 6, 2)
            cfgs = [BeamConfig(beam_size=b, lm_weight=0.0, word_score=0.0)
                    for b in (1, 2, 4, 16, 256)]
            tops = [beam_search(grid, c)[0].score for c in cfgs]
            assert all(a <= b + 1e-12 for a, b in zip(tops, tops[1:]))

    def test_beam1_at_least_greedy_mass(self, rng):
        # merged prefix mass of the beam-1 winner is >= the mass of any
        # single alignment path, including the greedy one
        for _ in range(20):
            grid = random_grid(rng, 8, 3)
            hyp = beam_search(grid, BeamConfig(beam_size=1, lm_weight=0.0,
                                               word_score=0.0))[0]
            greedy_path_mass = float(grid.array.max(axis=1).sum())
            assert hyp.ctc_score >= greedy_path_mass - 1e-12

    def test_score_decomposition(self, rng):
        lm = train_ngram([("a", "b"), ("b", "a"), ("a", "b", "a")], order=2)
        grid = random_grid(rng, 5, 2)
        cfg = BeamConfig(beam_size=8, lm_weight=0.46, word_score=0.52, lm=lm)
        for h in beam_search(grid, cfg):
            assert h.score == pytest.approx(
                h.ctc_score + 0.46 * h.lm_score + 0.52 * len(h.tokens),
                abs=1e-12)

    def test_lm_shifts_ranking(self):
        # CTC is indifferent between "a" and "b"; the LM prefers "b"
        probs = [[0.3, 0.3, 0.4]] * 2
        grid = grid_from_probs(probs, ["a", "b"])
        lm = train_ngram([("b",)] * 10 + [("a",)], order=2)
        no_lm = beam_search(grid, BeamConfig(beam_size=8, lm_weight=0.0,
                                             word_score=0.0))
        with_lm = beam_search(grid, BeamConfig(beam_size=8, lm_weight=5.0,
                                               word_score=0.0, lm=lm))
        assert {h.tokens for h in no_lm} >= {("a",), ("b",)}
        assert with_lm[0].tokens == ("b",)

    def test_word_score_favors_longer(self, rng):
        grid = random_grid(rng, 6, 2)
        short = beam_search(grid, BeamConfig(beam_size=64, lm_weight=0.0,
                                             word_score=0.0))[0]
        long = beam_search(grid, BeamConfig(beam_size=64, lm_weight=0.0,
                                            word_score=10.0))[0]
        assert len(long.tokens) >= len(short.tokens)

    def test_vocab_must_be_covered_by_lm(self, rng):
        grid = random_grid(rng, 3, 3)  # vocab a, b, c
        lm = train_ngram([("a", "b")], order=2)
        with pytest.raises(VocabularyError):
            beam_search(grid, BeamConfig(lm=lm))

    def test_bad_beam_size(self):
        with pytest.raises(UsageError):
            BeamConfig(beam_size=0)


class TestNgram:
    def test_bigram_hand_value(self):
        lm = train_ngram([("a", "b"), ("a", "b"), ("a", "c")], order=2)
        # after "a": b seen 2 of 3 times
        assert lm.score(["a"], "b") == pytest.approx(math.log(2 / 3))
        assert lm.score(["a"], "c") == pytest.approx(math.log(1 / 3))

    def test_backoff_chain(self):
        lm = train_ngram([("a", "b")], order=3)
        # history ("x","y") unseen: back off twice to the unigram floor.
        # padded sentence = <s> <s> a b </s>, so unigrams are
        # {<s>: 2, a: 1, b: 1, </s>: 1}: vocab size 4, total 5
        unigram_a = math.log((1 + 1) / (5 + 5))
        assert lm.score(["x", "y"], "a") == pytest.approx(
            2 * BACKOFF_LOG + unigram_a)

    def test_unseen_token_finite(self):
        lm = train_ngram([("a", "b")], order=2)
        assert math.isfinite(lm.score([], "zzz"))
        assert lm.score([], "zzz") < lm.score(["a"], "b")

    def test_bos_padding(self):
        lm = train_ngram([("a", "b"), ("a", "c")], order=2)
        # empty history means sentence start: both sentences begin with "a"
        assert lm.score([], "a") == pytest.approx(math.log(1.0))

    def test_json_round_trip(self, tmp_path):
        lm = train_ngram([("a", "b", "a"), ("b", "a")], order=3)
        path = tmp_path / "lm.json"
        lm.save(path)
        back = NgramLM.load(path)
        assert back.order == lm.order
        assert back.counts == lm.counts
        assert back.score(["a"], "b") == lm.score(["a"], "b")

    def test_malformed_json(self):
        with pytest.raises(DataError):
            NgramLM.from_json('{"order": "x"}')

    def test_empty_corpus(self):
        with pytest.raises(DataError):
            train_ngram([])

    def test_bad_order(self):
        with pytest.raises(UsageError):
            NgramLM(order=0, counts={})
