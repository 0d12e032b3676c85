"""VAD detection metrics, edit-distance error rates, and published row sums
the conventions must reproduce."""

from types import SimpleNamespace

import numpy as np
import pytest

from vadasr.audio import FRAME_DURATION_S
from vadasr.errors import DataError, DimensionError
from vadasr.metrics import (
    corpus_error_rate,
    edit_counts,
    error_report_from_counts,
    score_events,
    segments_to_mask,
    vad_metrics,
)
from vadasr.streamer import END_OF_UTT, FORCED, SegmentEvent


def dp_distance(ref, hyp):
    """Independent quadratic DP: minimal edit distance only."""
    n, m = len(ref), len(hyp)
    prev = list(range(m + 1))
    for i in range(1, n + 1):
        cur = [i] + [0] * m
        for j in range(1, m + 1):
            cost = 0 if ref[i - 1] == hyp[j - 1] else 1
            cur[j] = min(prev[j - 1] + cost, cur[j - 1] + 1, prev[j] + 1)
        prev = cur
    return prev[m]


class TestVadMetrics:
    def test_hand_counts(self):
        ref = np.array([1, 1, 0, 0, 1], dtype=bool)
        hyp = np.array([1, 0, 1, 0, 1], dtype=bool)
        rep = vad_metrics(ref, hyp)
        assert rep.n_fa == 1 and rep.n_miss == 1 and rep.n_total == 5
        assert rep.fa == pytest.approx(0.2)
        assert rep.miss == pytest.approx(0.2)
        assert rep.deter == pytest.approx(0.4)

    def test_identity_exact_on_random_pairs(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 200))
            ref = rng.random(n) > 0.5
            hyp = rng.random(n) > 0.5
            rep = vad_metrics(ref, hyp)
            assert rep.deter == rep.fa + rep.miss  # exact, not approx

    def test_perfect_hyp(self, rng):
        ref = rng.random(50) > 0.5
        rep = vad_metrics(ref, ref)
        assert rep.deter == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            vad_metrics(np.zeros(3, bool), np.zeros(4, bool))

    def test_empty(self):
        with pytest.raises(DataError):
            vad_metrics(np.zeros(0, bool), np.zeros(0, bool))


class TestEditCounts:
    def test_hand_cases(self):
        assert edit_counts("abc", "abc") == (0, 0, 0)
        assert edit_counts("abc", "axc") == (1, 0, 0)
        assert edit_counts("abc", "ac") == (0, 1, 0)
        assert edit_counts("abc", "abxc") == (0, 0, 1)
        assert edit_counts("abc", "") == (0, 3, 0)
        assert edit_counts("", "ab") == (0, 0, 2)

    def test_tie_break_prefers_substitution(self):
        # "ab" -> "ba" is either 2 substitutions or ins+del; the backtrace
        # must report substitutions
        assert edit_counts("ab", "ba") == (2, 0, 0)

    def test_matches_dp_oracle(self, rng):
        alphabet = list("abcd")
        for _ in range(1000):
            ref = [alphabet[i] for i in rng.integers(0, 4, rng.integers(0, 12))]
            hyp = [alphabet[i] for i in rng.integers(0, 4, rng.integers(0, 12))]
            s, d, i = edit_counts(ref, hyp)
            assert s + d + i == dp_distance(ref, hyp)
            assert len(ref) - d + i == len(hyp) + 0  # alignment bookkeeping

    def test_token_error_rate(self):
        rep = corpus_error_rate([(list("abcde"), list("abxe"))])
        assert rep.n_sub + rep.n_del + rep.n_ins == 2
        assert rep.rate == pytest.approx(0.4)
        assert rep.rate == rep.sub + rep.del_ + rep.ins  # exact

    def test_empty_reference(self):
        with pytest.raises(DataError):
            corpus_error_rate([([], ["a"])])

    def test_corpus_rate_pools_counts(self):
        # counts and reference lengths are summed over pairs, not rates
        # averaged
        rep = corpus_error_rate([(list("ab"), list("ab")),
                                 (list("abcdef"), list("abc"))])
        assert (rep.n_sub, rep.n_del, rep.n_ins, rep.ref_len) == (0, 3, 0, 8)
        assert rep.rate == 3 / 8


class TestPublishedRowSums:
    def test_detection_row_sums(self):
        # FA + Miss must equal DetER under our normalization for the two
        # published detection rows: 4.7 + 18.6 = 23.3 and 5.3 + 12.5 = 17.8
        for n_fa, n_miss, total in ((47, 186, 1000), (53, 125, 1000)):
            rep = vad_metrics(
                np.concatenate([np.ones(n_miss + 500, bool),
                                np.zeros(total - n_miss - 500, bool)]),
                np.concatenate([np.ones(500, bool),
                                np.zeros(n_miss, bool),
                                np.ones(n_fa, bool),
                                np.zeros(total - 500 - n_miss - n_fa, bool)]))
            assert rep.deter == rep.fa + rep.miss
            assert rep.deter * 100 == pytest.approx(
                (n_fa + n_miss) / 10, abs=1e-12)

    def test_error_rate_decomposition(self):
        # 13.4 sub + 5.2 del + 1.8 ins = 20.4 total
        rep = error_report_from_counts(134, 52, 18, 1000)
        assert rep.rate == rep.sub + rep.del_ + rep.ins
        assert rep.rate * 100 == pytest.approx(20.4, abs=1e-12)


class TestSegmentsToMask:
    def test_rounding_to_frames(self):
        # times between frames round to the nearest frame; an event's own
        # times are whole frames
        between = [SimpleNamespace(start_s=0.029, end_s=0.061)]
        mask = segments_to_mask(between, 5, 0.02)
        assert list(mask) == [False, True, True, False, False]
        events = [SegmentEvent(1, 3, (), END_OF_UTT)]
        assert np.array_equal(segments_to_mask(events, 5, FRAME_DURATION_S),
                              mask)

    def test_out_of_range_rejected(self):
        events = [SegmentEvent(0, 500, (), END_OF_UTT)]
        with pytest.raises(DataError):
            segments_to_mask(events, 4, 0.02)

    def test_empty_events(self):
        assert not segments_to_mask([], 6, 0.02).any()


class TestScoreEvents:
    EVENTS = [SegmentEvent(1, 4, ("a", "b"), END_OF_UTT),
              SegmentEvent(6, 8, ("c",), FORCED)]

    def test_joins_the_scoring_steps(self):
        ref_mask = np.array([0, 1, 1, 1, 1, 0, 0, 1, 1, 0], dtype=bool)
        err, vad = score_events(list("abd"), ref_mask, self.EVENTS)
        assert err == corpus_error_rate([(list("abd"), list("abc"))])
        assert vad == vad_metrics(ref_mask, segments_to_mask(
            self.EVENTS, len(ref_mask), FRAME_DURATION_S))
        # frame 6 is a false alarm, frames 4 and 8 are missed
        assert (err.n_sub, vad.n_fa, vad.n_miss) == (1, 1, 2)

    def test_event_past_the_mask_rejected(self):
        with pytest.raises(DataError, match="outside stream"):
            score_events(list("abc"), np.ones(7, dtype=bool), self.EVENTS)
