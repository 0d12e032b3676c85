"""Training objectives: CTC (forward-backward), per-frame BCE for the VAD
head, and their weighted joint combination.

Sign convention: everything here is a quantity to *minimize* (negative log
likelihood), so the joint loss is ctc + vad_weight * bce. Each loss is a
scalar autodiff node: its value is the loss, and ``autodiff.backward``
gives its exact gradient when it was taped.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .errors import DataError, DimensionError, InfeasibleTargetError, VocabularyError

PROB_CLAMP = 1e-7
NEG_INF = -np.inf


def extend_with_blanks(targets: np.ndarray, blank: int) -> np.ndarray:
    ext = np.full(2 * len(targets) + 1, blank, dtype=np.int64)
    ext[1::2] = targets
    return ext


def ctc_forward_backward(log_probs: np.ndarray, targets: np.ndarray,
                         blank: int) -> tuple[float, np.ndarray]:
    """log_probs: (T, K); targets: (L,) int indices, no blanks.

    Log-space alpha/beta recursion over the blank-extended target (Graves et
    al. 2006). Returns (loss, grad) where loss = -log p_CTC(targets |
    log_probs) and grad = d loss / d log_probs. Infeasible targets yield
    (inf, zeros).

    Alpha and beta advance together, one step of each per iteration: row 0
    is alpha, row 1 is beta with both time and states reversed, so each row
    reads states s, s-1 and s-2 of its previous step.
    """
    T, K = log_probs.shape
    ext = extend_with_blanks(np.asarray(targets, dtype=np.int64), blank)
    S = len(ext)
    ext2 = np.stack((ext, ext[::-1]))  # (2, S)

    # transitions: s -> s (stay), s-1 -> s, and s-2 -> s when the skip does
    # not jump over a required blank (distinct consecutive labels)
    can_skip = np.zeros((2, S), dtype=bool)
    can_skip[:, 2:] = (ext2[:, 2:] != blank) & (ext2[:, 2:] != ext2[:, :-2])

    emit = np.stack((log_probs[:, ext], log_probs[::-1, ext[::-1]]), axis=1)

    # state[t] is alpha[t] and beta[T-1-t] + emit[T-1-t] (reversed), after
    # two -inf pad columns that turn the s-1 and s-2 reads into views;
    # merged[t] is the logaddexp of the reads, before the emission
    state = np.full((T, 2, S + 2), NEG_INF)
    merged = np.empty((T, 2, S))
    state[0, 0, 2:4] = emit[0, 0, :2]
    merged[0, 1] = NEG_INF
    merged[0, 1, :2] = 0.0
    np.add(merged[0, 1], emit[0, 1], out=state[0, 1, 2:])
    for t in range(1, T):
        prev, out = state[t - 1], merged[t]
        np.logaddexp(prev[:, 2:], prev[:, 1:-1], out=out)
        np.logaddexp(out, prev[:, :-2], out=out, where=can_skip)
        np.add(out, emit[t], out=state[t, :, 2:])
    alpha = state[:, 0, 2:]
    beta = merged[::-1, 1, ::-1]

    tail = alpha[T - 1, S - 1]
    if S > 1:
        tail = np.logaddexp(tail, alpha[T - 1, S - 2])
    log_z = tail
    if not np.isfinite(log_z):
        return float("inf"), np.zeros_like(log_probs)

    # occupancy gamma[t, s] = P(path passes (t, s) | target) in log space
    gamma = alpha + beta - log_z
    occ = np.exp(gamma)
    grad = np.zeros_like(log_probs)
    # scatter-add marginals onto their emitting symbols
    np.add.at(grad, (np.arange(T)[:, None], ext[None, :]), occ)
    return float(-log_z), -grad


def _target_indices(grid, target) -> np.ndarray:
    idx = []
    for tok in target:
        if isinstance(tok, str):
            try:
                idx.append(grid.vocab.index(tok))
            except ValueError:
                raise VocabularyError(f"target token {tok!r} not in vocabulary")
        else:
            tok = int(tok)
            if not (0 <= tok < grid.blank_index):
                raise VocabularyError(f"target index {tok} out of range")
            idx.append(tok)
    return np.asarray(idx, dtype=np.int64)


def min_frames_required(target_idx: np.ndarray) -> int:
    repeats = int(np.sum(target_idx[1:] == target_idx[:-1])) if len(target_idx) > 1 else 0
    return len(target_idx) + repeats


def ctc_loss(grid, target) -> ad.Tensor:
    """Negative log-likelihood of ``target`` under the posterior grid,
    marginalized over all collapsing alignments."""
    logp = grid.log_probs
    tensor_in = ad.tensor(logp)
    arr = tensor_in.data
    T = arr.shape[0]
    idx = _target_indices(grid, target)
    if T < min_frames_required(idx):
        raise InfeasibleTargetError(
            f"target needs >= {min_frames_required(idx)} frames, grid has {T}")
    loss, grad = ctc_forward_backward(arr, idx, grid.blank_index)
    return ad.custom(loss, (tensor_in,), lambda g: (g * grad,))


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


def mtl_loss(ctc, bce, vad_weight: float = 1.0):
    """Joint objective ctc + vad_weight * bce, from the two loss nodes: a
    Tensor on a tape, else an array."""
    c, b = float(ad.value(ctc)), float(ad.value(bce))
    if not (math.isfinite(c) and math.isfinite(b)):
        raise DataError(f"loss parts must be finite, got ctc={c} ce={b}")
    return ad.add(ctc, ad.scale(bce, vad_weight))
