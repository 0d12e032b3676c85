"""Training objectives: CTC (forward-backward), per-frame BCE for the VAD
head, and their weighted joint combination.

Sign convention: everything here is a quantity to *minimize* (negative log
likelihood), so the joint loss is ctc + vad_weight * bce. Each loss is a
scalar autodiff node: its value is the loss, and ``autodiff.backward``
gives its exact gradient when it was taped.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from . import autodiff as ad
from .errors import DataError, DimensionError, VocabularyError

PROB_CLAMP = 1e-7
NEG_INF = -np.inf


def extend_with_blanks(targets: np.ndarray, blank: int) -> np.ndarray:
    ext = np.full(2 * len(targets) + 1, blank, dtype=np.int64)
    ext[1::2] = targets
    return ext


def ctc_batch(log_probs: list[np.ndarray], targets: list[np.ndarray]
              ) -> list[tuple[float, np.ndarray]]:
    """Each pair's (loss, grad), for log_probs (T, K), T >= 1, whose last
    column is the blank, and targets (L,) int indices, no blanks:
    -log p_CTC(targets | log_probs) and its gradient w.r.t. log_probs, or
    (inf, zeros) for an infeasible target.
    One log-space alpha/beta recursion over the blank-extended targets
    serves the batch (Graves et al. 2006).

    Alpha and beta advance together, one step of each per iteration: row 0
    is alpha, row 1 is beta with both time and states reversed, so each row
    reads states s, s-1 and s-2 of its previous step. Frames and states are
    padded with -inf emissions to the longest pair's; a state reads only
    itself and lower states, and a pair's results read only its own frames
    and states, so each pair keeps the bits it has alone."""
    blank = log_probs[0].shape[1] - 1
    exts = [extend_with_blanks(np.asarray(t, dtype=np.int64), blank)
            for t in targets]
    B, T, S = len(exts), max(map(len, log_probs)), max(map(len, exts))
    ext2 = np.full((B, 2, S), blank)
    emit = np.full((T, B, 2, S), NEG_INF)
    for b, (lp, ext) in enumerate(zip(log_probs, exts)):
        ext2[b, :, :len(ext)] = ext, ext[::-1]
        emit[:len(lp), b, :, :len(ext)] = np.stack(
            (lp[:, ext], lp[::-1, ext[::-1]]), axis=1)

    # transitions: s -> s (stay), s-1 -> s, and s-2 -> s when the skip does
    # not jump over a required blank (distinct consecutive labels)
    can_skip = np.zeros((B, 2, S), dtype=bool)
    can_skip[..., 2:] = (ext2[..., 2:] != blank) & (ext2[..., 2:]
                                                    != ext2[..., :-2])

    # state[t] is alpha[t] and beta[T-1-t] + emit[T-1-t] (reversed), after
    # two -inf pad columns that turn the s-1 and s-2 reads into views;
    # merged[t] is the logaddexp of the reads, before the emission
    state = np.full((T, B, 2, S + 2), NEG_INF)
    merged = np.empty((T, B, 2, S))
    state[0, :, 0, 2:4] = emit[0, :, 0, :2]
    merged[0, :, 1] = NEG_INF
    merged[0, :, 1, :2] = 0.0
    np.add(merged[0, :, 1], emit[0, :, 1], out=state[0, :, 1, 2:])
    for t in range(1, T):
        prev, out = state[t - 1], merged[t]
        np.logaddexp(prev[..., 2:], prev[..., 1:-1], out=out)
        np.logaddexp(out, prev[..., :-2], out=out, where=can_skip)
        np.add(out, emit[t], out=state[t, ..., 2:])

    results = []
    for b, (lp, ext) in enumerate(zip(log_probs, exts)):
        n, S = len(lp), len(ext)
        alpha = state[:n, b, 0, 2:S + 2]
        beta = merged[n - 1::-1, b, 1, S - 1::-1]
        log_z = alpha[n - 1, S - 1]
        if S > 1:
            log_z = np.logaddexp(log_z, alpha[n - 1, S - 2])
        if not np.isfinite(log_z):
            results.append((float("inf"), np.zeros_like(lp)))
            continue
        # occupancy gamma[t, s] = P(path passes (t, s) | target) in log space
        occ = np.exp(alpha + beta - log_z)
        grad = np.zeros_like(lp)
        # scatter-add marginals onto their emitting symbols
        np.add.at(grad, (np.arange(n)[:, None], ext[None, :]), occ)
        results.append((float(-log_z), -grad))
    return results


def _target_indices(grid, target) -> np.ndarray:
    idx = []
    for tok in target:
        try:
            idx.append(grid.vocab.index(tok))
        except ValueError:
            raise VocabularyError(f"target token {tok!r} not in vocabulary")
    return np.asarray(idx, dtype=np.int64)


def min_frames_required(target_idx: np.ndarray) -> int:
    repeats = int(np.sum(target_idx[1:] == target_idx[:-1])) if len(target_idx) > 1 else 0
    return len(target_idx) + repeats


def ctc_loss(grids, targets, tapes=None) -> list:
    """Each target's negative log-likelihood under its posterior grid,
    marginalized over all collapsing alignments: one recursion serves every
    pair, and node b goes on ``tapes[b]`` (the tape that recorded
    ``grids[b]``), or on the active tape without ``tapes``. A grid with
    fewer frames than its target needs gets None and records nothing."""
    idx = [_target_indices(g, t) for g, t in zip(grids, targets)]
    kept = [b for b, (g, i) in enumerate(zip(grids, idx))
            if len(g) >= min_frames_required(i)]
    nodes = [None] * len(grids)
    for b, (loss, grad) in zip(kept, ctc_batch(
            [grids[b].array for b in kept], [idx[b] for b in kept])
            if kept else ()):
        with tapes[b] if tapes else contextlib.nullcontext():
            nodes[b] = ad.custom(loss, (grids[b].log_probs,),
                                 lambda g, grad=grad: (g * grad,))
    return nodes


def bce_loss(speech_probs, speech_mask) -> ad.Tensor:
    """Per-frame-mean binary cross entropy between predicted speech
    probabilities and the boolean reference mask."""
    tensor_in = ad.tensor(speech_probs)
    p_raw = tensor_in.data.reshape(-1)
    y = np.asarray(speech_mask, dtype=np.float64).reshape(-1)
    if p_raw.shape != y.shape:
        raise DimensionError("prediction/mask length mismatch",
                             p_raw.shape, y.shape)
    inside = (p_raw > PROB_CLAMP) & (p_raw < 1.0 - PROB_CLAMP)
    p = np.clip(p_raw, PROB_CLAMP, 1.0 - PROB_CLAMP)
    T = len(y)
    loss = float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean())
    grad = ((-(y / p - (1.0 - y) / (1.0 - p)) / T) * inside).reshape(
        tensor_in.shape)
    return ad.custom(loss, (tensor_in,), lambda g: (g * grad,))


def mtl_loss(ctc, bce, vad_weight: float):
    """Joint objective ctc + vad_weight * bce, from the two loss nodes: a
    Tensor on a tape, else an array."""
    c, b = float(ad.value(ctc)), float(ad.value(bce))
    if not (math.isfinite(c) and math.isfinite(b)):
        raise DataError(f"loss parts must be finite, got ctc={c} ce={b}")
    return ad.add(ctc, ad.scale(bce, vad_weight))
