"""Test-only oracles and helpers: finite-difference gradients, elementwise
product and reductions for building test losses on the tape, the unfused
ops that a fused ``ad.matmul``, ``ad.depthwise_conv1d`` and
``ad.attention`` must match bit for bit, brute-force CTC, a scorer that
replays precomputed VAD scores, and a writer of the posterior files that
``decode-posteriors`` reads."""

from __future__ import annotations

import itertools
import json
import math
import struct
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

import vadasr.autodiff as ad
from vadasr.errors import DataError, NumericError, UsageError
from vadasr.losses import _target_indices

BRUTEFORCE_LIMIT = 10 ** 6


# ---------------------------------------------------------------------------
# test losses, built on the public ``ad.custom``


def mul(a, b) -> ad.Tensor:
    """Elementwise product, with numpy broadcasting."""
    ta, tb = ad.tensor(a), ad.tensor(b)
    x, y = ta.data, tb.data
    return ad.custom(x * y, (ta, tb),
                     lambda g: (ad._unbroadcast(g * y, x.shape),
                                ad._unbroadcast(g * x, y.shape)))


def sum_all(a) -> ad.Tensor:
    ta = ad.tensor(a)
    x = ta.data
    return ad.custom(x.sum(), (ta,),
                     lambda g: (np.broadcast_to(g, x.shape).copy(),))


def mean_all(a) -> ad.Tensor:
    ta = ad.tensor(a)
    x = ta.data
    return ad.custom(x.mean(), (ta,),
                     lambda g: (np.broadcast_to(g / x.size, x.shape).copy(),))


# ---------------------------------------------------------------------------
# the unfused ops behind a fused ``ad.matmul``, ``ad.depthwise_conv1d`` and
# ``ad.attention``


def sigmoid(a) -> ad.Tensor:
    ta = ad.tensor(a)
    s = 1.0 / (1.0 + np.exp(-ta.data))
    return ad.custom(s, (ta,), lambda g: (g * s * (1.0 - s),))


def exp(a) -> ad.Tensor:
    ta = ad.tensor(a)
    e = np.exp(ta.data)
    return ad.custom(e, (ta,), lambda g: (g * e,))


def softmax(a, axis: int = -1) -> ad.Tensor:
    return exp(ad.log_softmax(a, axis=axis))


def attention_unfused(q, k, v, n_heads: int):
    """``ad.attention(q, k, v, n_heads)`` as the per-head chain it fuses:
    slice the three inputs, transpose the keys, matmul, scale, softmax
    (log-softmax, then exp), matmul by the values, and concat the heads."""
    dh = ad.value(q).shape[1] // n_heads
    heads = []
    for h in range(n_heads):
        qs, ks, vs = (ad.slice_axis(t, h * dh, (h + 1) * dh, axis=1)
                      for t in (q, k, v))
        scores = ad.scale(ad.matmul(qs, ad.transpose(ks)),
                          1.0 / math.sqrt(dh))
        heads.append(ad.matmul(softmax(scores, axis=-1), vs))
    return ad.concat(heads, axis=1)


def matmul_unfused(a, b, bias, act=None):
    """``ad.matmul(a, b, bias, act)`` as the chain of ops it fuses: matmul,
    add, activation."""
    z = ad.add(ad.matmul(a, b), bias)
    if act == "relu":
        return ad.relu(z)
    return sigmoid(z) if act == "sigmoid" else z


def depthwise_conv1d_taps(x, kernels, left=None) -> ad.Tensor:
    """``ad.depthwise_conv1d`` as a loop over its W taps: the forward adds
    one (T, C) product per tap, the vjp scatters one per tap."""
    tx, tk = ad.tensor(x), ad.tensor(kernels)
    xv, kv = tx.data, tk.data
    T, C = xv.shape
    W = kv.shape[2]
    left = np.zeros((W - 1, C)) if left is None else ad.value(left)
    taps = kv[:, 0, :].T  # (W, C)
    xp = np.concatenate([left, xv])
    out = xp[:T] * taps[0]
    for w in range(1, W):
        out += xp[w:w + T] * taps[w]

    def vjp(g):
        dxp = np.zeros_like(xp)
        dtaps = np.empty_like(taps)
        for w in range(W):
            dxp[w:w + T] += g * taps[w]
            dtaps[w] = (g * xp[w:w + T]).sum(axis=0)
        return dxp[W - 1:], dtaps.T.reshape(kv.shape)

    return ad.custom(out, (tx, tk), vjp)


def with_upstream(fn, arrays, g):
    """``fn`` on Tensors of ``arrays``, and the gradient of each when the
    output's upstream gradient is exactly ``g``."""
    ts = [ad.Tensor(a) for a in arrays]
    with ad.Tape() as tape:
        out = ad.tensor(fn(*ts))
        seed = ad.custom(np.zeros(()), (out,), lambda _: (g,))
    grads = ad.backward(tape, seed)
    return out.data, [grads.get(t) for t in ts]


def signed_zeros(rng, shape, zero_frac: float = 0.5) -> np.ndarray:
    """Normal draws with about ``zero_frac`` of them replaced by +0.0 or
    -0.0, half each."""
    x = rng.normal(size=shape)
    zeros = rng.random(shape) < zero_frac
    x[zeros] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zeros]
    return x


# ---------------------------------------------------------------------------
# finite differences


def finite_diff_check(f: Callable, params: Sequence[ad.Tensor],
                      eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f(params) -> scalar Tensor``; must be deterministic. Relative error is
    |analytic - numeric| / max(1, |numeric|), maximized over all coordinates
    of all params.
    """
    if eps <= 0:
        raise UsageError("eps must be positive")
    with ad.Tape() as tape:
        loss = f(params)
    if not np.isfinite(loss.data):
        raise NumericError("objective is not finite at the evaluation point")
    grads = ad.backward(tape, loss)
    worst = 0.0
    for p in params:
        analytic = grads.get(p, np.zeros_like(p.data))
        flat = p.data.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(ad.value(f(params)))
            flat[i] = orig - eps
            fm = float(ad.value(f(params)))
            flat[i] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise NumericError("objective not finite under perturbation")
            numeric = (fp - fm) / (2.0 * eps)
            err = abs(analytic.ravel()[i] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# brute-force CTC


def _collapse(alignment, blank: int) -> tuple:
    out = []
    prev = -1
    for a in alignment:
        if a != prev and a != blank:
            out.append(a)
        prev = a
    return tuple(out)


def ctc_loss_bruteforce(grid, target) -> float:
    """Oracle: -log sum over all K^T alignments that collapse to the target.

    Only for tiny instances; complements the recursion in tests.
    """
    arr = grid.array
    T, K = arr.shape
    if K ** T > BRUTEFORCE_LIMIT:
        raise DataError(f"instance too large for enumeration: {K}^{T}")
    idx = tuple(_target_indices(grid, target))
    blank = grid.blank_index
    total = -math.inf
    for alignment in itertools.product(range(K), repeat=T):
        if _collapse(alignment, blank) != idx:
            continue
        lp = sum(arr[t, a] for t, a in enumerate(alignment))
        total = np.logaddexp(total, lp)
    return float(-total)


# ---------------------------------------------------------------------------
# streaming


class ExternalScores:
    """A ``Streamer`` scorer that replays per-frame VAD scores computed
    elsewhere."""

    def __init__(self, scores):
        self.scores = np.asarray(scores, dtype=np.float64)

    def __call__(self, frames, start: int) -> np.ndarray:
        end = start + len(frames)
        if end > len(self.scores):
            raise DataError("no external score for frame "
                            f"{max(start, len(self.scores))}")
        return self.scores[start:end]


def save_posteriors(path, grid) -> None:
    """Write ``grid`` as ``vadasr.cli.load_external_posteriors`` reads it:
    magic VAP1, u32 T, u32 K, then T*K little-endian f64 log-probs, and a
    JSON sidecar with the vocabulary."""
    arr = np.ascontiguousarray(grid.array, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(b"VAP1")
        fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes())
    Path(str(path) + ".json").write_text(json.dumps(
        {"vocab": grid.vocab, "blank_index": grid.blank_index}))
