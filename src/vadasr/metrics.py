"""Evaluation metrics: frame-level VAD detection error (DetER = FA + Miss,
all normalized by total frames) and token error rate with a
substitution/deletion/insertion split from one minimal-cost backtrace."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .audio import FRAME_DURATION_S
from .errors import DataError, DimensionError


@dataclass(frozen=True)
class VadReport:
    deter: float
    fa: float
    miss: float
    n_total: int
    n_fa: int
    n_miss: int


@dataclass(frozen=True)
class ErrorRateReport:
    rate: float
    sub: float
    del_: float
    ins: float
    ref_len: int
    n_sub: int = 0
    n_del: int = 0
    n_ins: int = 0

    def as_dict(self):
        return {"cer": self.rate, "sub": self.sub, "del": self.del_,
                "ins": self.ins, "ref_len": self.ref_len}


def vad_metrics(ref_mask, hyp_mask) -> VadReport:
    ref = np.asarray(ref_mask, dtype=bool)
    hyp = np.asarray(hyp_mask, dtype=bool)
    if ref.shape != hyp.shape:
        raise DimensionError("mask length mismatch", ref.shape, hyp.shape)
    if ref.size == 0:
        raise DataError("empty masks")
    n_total = int(ref.size)
    n_fa = int(np.sum(hyp & ~ref))
    n_miss = int(np.sum(~hyp & ref))
    # deter is defined as the float sum so deter == fa + miss bit-for-bit
    fa = n_fa / n_total
    miss = n_miss / n_total
    return VadReport(deter=fa + miss, fa=fa, miss=miss,
                     n_total=n_total, n_fa=n_fa, n_miss=n_miss)


def edit_counts(ref: Sequence, hyp: Sequence) -> tuple[int, int, int]:
    """(substitutions, deletions, insertions) from one minimal alignment.

    Tie-break in the backtrace: substitution over insertion over deletion.
    """
    n, m = len(ref), len(hyp)
    dist = np.zeros((n + 1, m + 1), dtype=np.int64)
    dist[:, 0] = np.arange(n + 1)
    dist[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if ref[i - 1] == hyp[j - 1] else 1
            dist[i, j] = min(dist[i - 1, j - 1] + cost,
                             dist[i, j - 1] + 1,
                             dist[i - 1, j] + 1)
    n_sub = n_del = n_ins = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i, j] == dist[i - 1, j - 1] + (
                0 if ref[i - 1] == hyp[j - 1] else 1):
            if ref[i - 1] != hyp[j - 1]:
                n_sub += 1
            i, j = i - 1, j - 1
        elif j > 0 and dist[i, j] == dist[i, j - 1] + 1:
            n_ins += 1
            j -= 1
        else:
            n_del += 1
            i -= 1
    return n_sub, n_del, n_ins


def corpus_error_rate(pairs: Iterable[tuple[Sequence, Sequence]]
                      ) -> ErrorRateReport:
    """Token error rate of (ref, hyp) pairs: their edit counts and reference
    lengths summed over the pairs, then divided once."""
    n_sub = n_del = n_ins = ref_len = 0
    for ref, hyp in pairs:
        s, d, i = edit_counts(ref, hyp)
        n_sub, n_del, n_ins = n_sub + s, n_del + d, n_ins + i
        ref_len += len(ref)
    return error_report_from_counts(n_sub, n_del, n_ins, ref_len)


def error_report_from_counts(n_sub: int, n_del: int, n_ins: int,
                             ref_len: int) -> ErrorRateReport:
    if ref_len == 0:
        raise DataError("reference is empty; error rate undefined")
    # rate is the float sum (left to right) so rate == sub + del + ins exactly
    s = n_sub / ref_len
    d = n_del / ref_len
    i = n_ins / ref_len
    return ErrorRateReport(rate=s + d + i, sub=s, del_=d, ins=i,
                           ref_len=ref_len,
                           n_sub=n_sub, n_del=n_del, n_ins=n_ins)


def segments_to_mask(events, T: int, frame_duration_s: float) -> np.ndarray:
    """Frame mask with True inside any [start_s, end_s) event span, each
    time rounded to the nearest frame."""
    mask = np.zeros(T, dtype=bool)
    for ev in events:
        start_s, end_s = ev.start_s, ev.end_s
        b = int(round(end_s / frame_duration_s))
        if start_s < 0 or b > T:
            raise DataError(f"event [{start_s}, {end_s}) outside stream "
                            f"[0, {T * frame_duration_s})")
        mask[int(round(start_s / frame_duration_s)):b] = True
    return mask


def score_events(ref_tokens: Sequence, ref_mask, events
                 ) -> tuple[ErrorRateReport, VadReport]:
    """Token error rate of the events' joined texts against ``ref_tokens``,
    and DetER of their spans against the frame mask ``ref_mask``."""
    hyp = [tok for ev in events for tok in ev.text]
    return (corpus_error_rate([(ref_tokens, hyp)]),
            vad_metrics(ref_mask, segments_to_mask(events, len(ref_mask),
                                                   FRAME_DURATION_S)))
