"""Greedy decoding, prefix beam search against an exhaustive oracle, and the
stupid-backoff n-gram model."""

import itertools
import math
from collections import defaultdict

import numpy as np
import pytest

import vadasr.autodiff as ad
from vadasr.decode import (
    BACKOFF_LOG,
    BOS,
    NEG_INF,
    BeamConfig,
    Hypothesis,
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
    return PosteriorGrid(log_probs=ad.Tensor(np.log(probs)), vocab=vocab)


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


def reference_beam_search(grid, config):
    """Oracle: the prefix beam search as first written, on numpy scalars
    with ``np.logaddexp``, a full sort per frame and an LM score kept for
    every prefix ever extended. ``beam_search`` must return exactly this."""
    arr = grid.log_probs.data
    blank = grid.blank_index
    vocab = grid.vocab
    lm = config.lm

    beams = {(): [0.0, NEG_INF]}
    lm_scores = {(): 0.0}

    def combined(prefix, pb, pnb):
        return (np.logaddexp(pb, pnb)
                + config.lm_weight * lm_scores[prefix]
                + config.word_score * len(prefix))

    for t in range(arr.shape[0]):
        row = arr[t]
        nxt = defaultdict(lambda: [NEG_INF, NEG_INF])
        for prefix, (pb, pnb) in beams.items():
            total = np.logaddexp(pb, pnb)
            cell = nxt[prefix]
            cell[0] = np.logaddexp(cell[0], total + row[blank])
            if prefix:
                cell[1] = np.logaddexp(cell[1], pnb + row[prefix[-1]])
            for k in range(blank):
                ext = prefix + (k,)
                mass = pb + row[k] if prefix and k == prefix[-1] else total + row[k]
                ecell = nxt[ext]
                ecell[1] = np.logaddexp(ecell[1], mass)
                if ext not in lm_scores:
                    lm_scores[ext] = lm_scores[prefix] + (
                        lm.score([vocab[i] for i in prefix], vocab[k])
                        if lm is not None else 0.0)
        ranked = sorted(nxt.items(),
                        key=lambda kv: combined(kv[0], kv[1][0], kv[1][1]),
                        reverse=True)
        beams = dict(ranked[:config.beam_size])

    hyps = []
    for prefix, (pb, pnb) in beams.items():
        ctc = float(np.logaddexp(pb, pnb))
        lmsc = lm_scores[prefix]
        hyps.append(Hypothesis(
            tokens=tuple(vocab[i] for i in prefix),
            score=ctc + config.lm_weight * lmsc + config.word_score * len(prefix),
            ctc_score=ctc,
            lm_score=lmsc,
        ))
    hyps.sort(key=lambda h: h.score, reverse=True)
    return hyps


def random_lm(rng, vocab, order):
    sents = [tuple(rng.choice(vocab, size=int(rng.integers(1, 6))))
             for _ in range(12)]
    return train_ngram(sents, order=order)


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

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_entry_rejected(self, value):
        # argmax would pick the NaN (or the +inf) as the frame's token
        grid = grid_from_probs([[1 / 3] * 3] * 4, ["a", "b"])
        grid.log_probs.data[2, 0] = value
        with pytest.raises(DataError, match="NaN or \\+inf"):
            greedy_decode(grid)

    def test_minus_inf_entry_accepted(self):
        # probability zero is legal: that token is never the argmax
        grid = grid_from_probs([[0.8, 0.1, 0.1], [0.1, 0.1, 0.8]], ["a", "b"])
        grid.log_probs.data[:, 1] = -math.inf
        assert greedy_decode(grid) == ("a",)


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

    @pytest.mark.parametrize("name, value", [
        ("beam_size", -3), ("beam_size", 2.0), ("beam_size", True),
        ("beam_size", "20"),
        ("lm_weight", float("nan")), ("lm_weight", float("inf")),
        ("lm_weight", "0.5"),
        ("word_score", float("-inf")), ("word_score", float("nan")),
        ("word_score", None),
    ])
    def test_bad_config(self, name, value):
        # a NaN or infinite weight makes every combined score NaN, so the
        # ranking would be arbitrary
        with pytest.raises(UsageError):
            BeamConfig(**{name: value})

    def test_int_weights_accepted(self):
        assert BeamConfig(beam_size=3, lm_weight=1, word_score=0).lm_weight == 1


class TestBeamMatchesReference:
    """``beam_search`` returns the reference's hypotheses with the same
    floats, field for field, not just close ones."""

    @pytest.mark.parametrize("beam_size", [1, 2, 20, 256])
    @pytest.mark.parametrize("order", [None, 1, 2, 3, 4])
    def test_random_grids(self, rng, beam_size, order):
        for _ in range(4):
            T = int(rng.integers(0, 41))
            grid = random_grid(rng, T, int(rng.integers(1, 5)))
            lm = None if order is None else random_lm(rng, grid.vocab, order)
            cfg = BeamConfig(beam_size=beam_size, lm=lm,
                             lm_weight=float(rng.uniform(0, 2)),
                             word_score=float(rng.uniform(-1, 1)))
            assert beam_search(grid, cfg) == reference_beam_search(grid, cfg)

    @pytest.mark.parametrize("beam_size", [1, 2, 20, 256])
    @pytest.mark.parametrize("order", [None, 2])
    def test_tied_rows(self, rng, beam_size, order):
        # uniform and repeated rows tie many candidates exactly, so the
        # order among equal scores decides which prefixes survive
        vocab = ["a", "b", "c"]
        lm = None if order is None else random_lm(rng, vocab, order)
        uniform = [[0.25] * 4] * 12
        repeated = [[0.1, 0.4, 0.1, 0.4], [0.4, 0.1, 0.4, 0.1]] * 6
        for probs in (uniform, repeated):
            grid = grid_from_probs(probs, vocab)
            for lm_weight, word_score in ((0.0, 0.0), (0.46, 0.52)):
                cfg = BeamConfig(beam_size=beam_size, lm=lm,
                                 lm_weight=lm_weight, word_score=word_score)
                assert (beam_search(grid, cfg)
                        == reference_beam_search(grid, cfg))

    def test_peaked_rows(self, rng):
        # peaked rows, as a trained model gives them, with a 4-gram LM
        vocab = ["a", "b", "c", "d", "e"]
        lm = random_lm(rng, vocab, 4)
        for _ in range(3):
            logits = rng.normal(size=(101, 6)) * 4.0
            logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
            grid = PosteriorGrid(log_probs=ad.Tensor(logp), vocab=vocab)
            cfg = BeamConfig(beam_size=20, lm=lm)
            assert beam_search(grid, cfg) == reference_beam_search(grid, cfg)

    @staticmethod
    def assert_matches(grid, cfg):
        assert beam_search(grid, cfg) == reference_beam_search(grid, cfg)

    @pytest.mark.parametrize("order", [None, 2, 4])
    def test_negative_lm_weight(self, rng, order):
        # the per-beam bound then takes the smallest LM increment
        for beam_size in (1, 3, 20):
            grid = random_grid(rng, 25, 3)
            lm = None if order is None else random_lm(rng, grid.vocab, order)
            self.assert_matches(grid, BeamConfig(
                beam_size=beam_size, lm=lm,
                lm_weight=float(rng.uniform(-3, -0.1)),
                word_score=float(rng.uniform(-1, 1))))

    @pytest.mark.parametrize("order", [None, 3])
    def test_zero_probability_entries(self, rng, order):
        # -inf masses and scores are legal and may tie at the floor
        for beam_size in (1, 4, 20):
            grid = random_grid(rng, 20, 3)
            arr = grid.log_probs.data
            arr[rng.random(arr.shape) < 0.3] = NEG_INF
            arr[5] = NEG_INF
            arr[6, :3] = NEG_INF
            lm = None if order is None else random_lm(rng, grid.vocab, order)
            self.assert_matches(grid, BeamConfig(beam_size=beam_size, lm=lm))

    @pytest.mark.parametrize("beam_size", [2, 5, 20])
    @pytest.mark.parametrize("order", [None, 2])
    def test_quantized_rows_tie_at_floor(self, rng, beam_size, order):
        # rows on a coarse grid of values make many candidates score
        # exactly the floor; those are kept, and rank by insertion order
        vocab = ["a", "b", "c", "d"]
        lm = None if order is None else random_lm(rng, vocab, order)
        levels = np.log([0.05, 0.1, 0.2, 0.4])
        for _ in range(3):
            grid = PosteriorGrid(
                log_probs=ad.Tensor(rng.choice(levels, size=(16, 5))),
                vocab=vocab)
            for lm_weight, word_score in ((0.0, 0.0), (0.5, 0.5)):
                self.assert_matches(grid, BeamConfig(
                    beam_size=beam_size, lm=lm, lm_weight=lm_weight,
                    word_score=word_score))

    def test_beam_wider_than_candidates(self, rng):
        # fewer beams than beam_size: no floor, so nothing is dropped
        for T in range(6):
            grid = random_grid(rng, T, 3)
            lm = random_lm(rng, grid.vocab, 2)
            self.assert_matches(grid, BeamConfig(beam_size=4 ** (T + 1),
                                                 lm=lm))

    @staticmethod
    def skip_grid(rng):
        """Rows that reach each skip. Mixed rows fill the beam; rows peaked
        on "a", with a blank between, keep "a" and its child "a a" in the
        beam together; runs of blank-dominated rows, from near-certain blank
        to likelier tokens, keep every beam's extensions below the floor,
        then all but the best beam's, then fewer."""
        mixed = rng.dirichlet(np.ones(4), size=6)
        peaked = [[0.7, 0.05, 0.05, 0.2], [0.05, 0.05, 0.05, 0.85]] * 2
        runs = [[[(1 - p) / 3] * 3 + [p]] * 4
                for p in (0.9999, 0.999, 0.99, 0.9, 0.7)]
        rows = np.vstack([mixed, peaked, *runs, peaked, *runs[:2]])
        return grid_from_probs(rows, ["a", "b", "c"])

    @pytest.mark.parametrize("lm_weight", [0.46, 0.0, -0.3])
    @pytest.mark.parametrize("beam_size", [1, 3, 20])
    @pytest.mark.parametrize("order", [1, 3])
    def test_bounded_frames_and_beams(self, rng, lm_weight, beam_size,
                                      order):
        # frames where no extension can make the cut, beams with an in-beam
        # child whose own extensions cannot, and frames where one beam's can
        for _ in range(3):
            grid = self.skip_grid(rng)
            self.assert_matches(grid, BeamConfig(
                beam_size=beam_size, lm=random_lm(rng, grid.vocab, order),
                lm_weight=lm_weight, word_score=0.52))

    def test_fuzz(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            V = int(rng.integers(1, 6))
            T = int(rng.integers(0, 13))
            logits = rng.normal(size=(T, V + 1)) * rng.choice([0.5, 3.0])
            if rng.random() < 0.3:
                logits = np.round(logits)
            logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
            if rng.random() < 0.3:
                logp[rng.random(logp.shape) < 0.2] = NEG_INF
            vocab = [chr(ord("a") + i) for i in range(V)]
            grid = PosteriorGrid(log_probs=ad.Tensor(logp), vocab=vocab)
            order = int(rng.integers(0, 5))
            lm = random_lm(rng, vocab, order) if order else None
            if lm is not None and set(vocab) - set(lm.vocab):
                lm = train_ngram([tuple(vocab)], order=order)
            self.assert_matches(grid, BeamConfig(
                beam_size=int(rng.integers(1, 13)), lm=lm,
                lm_weight=float(rng.uniform(-2, 2)),
                word_score=float(rng.uniform(-1, 1))))


class TestBeamInputs:
    def test_empty_grid_gives_one_empty_hypothesis(self, rng):
        # the stays are always candidates, so there is always a hypothesis
        grid = random_grid(rng, 0, 3)
        lm = random_lm(rng, grid.vocab, 3)
        for cfg in (BeamConfig(beam_size=1), BeamConfig(lm=lm)):
            assert beam_search(grid, cfg) == [
                Hypothesis(tokens=(), score=0.0, ctc_score=0.0, lm_score=0.0)]

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_entry_rejected(self, rng, value):
        # a NaN would rank arbitrarily; -inf (probability zero) is legal
        grid = random_grid(rng, 6, 3)
        grid.log_probs.data[3, 1] = value
        with pytest.raises(DataError, match="NaN or \\+inf"):
            beam_search(grid, BeamConfig())


class TestLmMemo:
    @staticmethod
    def count_score_calls(monkeypatch):
        calls = []
        score = NgramLM.score

        def counted(self, history, token):
            calls.append((tuple(history), token))
            return score(self, history, token)

        monkeypatch.setattr(NgramLM, "score", counted)
        return calls

    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_no_more_calls_than_reference(self, rng, monkeypatch, order):
        calls = self.count_score_calls(monkeypatch)
        for _ in range(3):
            grid = random_grid(rng, 30, 3)
            cfg = BeamConfig(beam_size=20,
                             lm=random_lm(rng, grid.vocab, order))
            calls.clear()
            hyps = beam_search(grid, cfg)
            ours = len(calls)
            calls.clear()
            assert hyps == reference_beam_search(grid, cfg)
            assert 0 < ours <= len(calls)

    def test_order1_scores_each_token_once(self, rng, monkeypatch):
        # an order-1 LM has no context: prefix[-0:] would be the whole
        # prefix, so the memo key must be () for every prefix
        calls = self.count_score_calls(monkeypatch)
        grid = random_grid(rng, 25, 3)
        cfg = BeamConfig(beam_size=20, lm=random_lm(rng, grid.vocab, 1))
        beam_search(grid, cfg)
        assert calls == [((), t) for t in grid.vocab]


class TestLmMemoAcrossCalls:
    def test_second_search_scores_nothing(self, rng, monkeypatch):
        # a streamer decodes every event with one LM: the second search
        # finds every score it needs in the LM's memo
        grid = random_grid(rng, 30, 3)
        cfg = BeamConfig(beam_size=20, lm=random_lm(rng, grid.vocab, 4))
        first = beam_search(grid, cfg)
        calls = []
        score = NgramLM._score

        def counted(self, hist, token):
            calls.append((hist, token))
            return score(self, hist, token)

        monkeypatch.setattr(NgramLM, "_score", counted)
        assert beam_search(grid, cfg) == first
        assert calls == []

    def test_second_grid_makes_no_score_call(self, rng, monkeypatch):
        # the context -> increments table lives on the LM, so a later
        # search with the same LM and vocabulary looks up every context
        grid = random_grid(rng, 30, 3)
        cfg = BeamConfig(beam_size=20, lm=random_lm(rng, grid.vocab, 4))
        first = beam_search(grid, cfg)
        calls = TestLmMemo.count_score_calls(monkeypatch)
        assert beam_search(grid, cfg) == first
        assert calls == []
        # another vocabulary gets a table of its own
        other = random_grid(rng, 30, 2)
        hyps = beam_search(other, cfg)
        assert calls
        assert hyps == reference_beam_search(other, cfg)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_memoized_equals_fresh(self, rng, order):
        lm = random_lm(rng, ["a", "b", "c"], order)
        symbols = ["a", "b", "c", "z", BOS]
        queries = [(hist, token)
                   for n in range(order + 1)
                   for hist in itertools.product(symbols, repeat=n)
                   for token in symbols]
        for hist, token in queries:
            lm.score(hist, token)
        for hist, token in queries:
            fresh = NgramLM(lm.order, lm.counts)
            assert lm.score(hist, token) == fresh.score(hist, token)


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
