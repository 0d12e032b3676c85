"""Test-only oracles and helpers: finite-difference gradients, elementwise
product and reductions for building test losses on the tape, the unfused
ops (reshape, transpose, relu, ...) that a fused ``ad.matmul`` and
``ad.attention``, and the model's fused encoder and VAD nodes, must match
bit for bit, the per-window chunked context block, the network's
intermediate outputs by stage, brute-force CTC, a scorer that replays
precomputed VAD scores,
and a writer of the posterior files that ``decode-posteriors`` reads."""

from __future__ import annotations

import itertools
import json
import math
import struct
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

import vadasr.autodiff as ad
from vadasr.errors import (DataError, DimensionError, LayoutError,
                           NumericError, UsageError)
from vadasr.chunking import ChunkLayout
from vadasr.losses import _target_indices
from vadasr.model import (CONV1_WIDTH, CONV2_WIDTH, _context_layer,
                          context_forward, cross_task_attend, forward,
                          positional_encoding, vad_forward)

BRUTEFORCE_LIMIT = 10 ** 6


# ---------------------------------------------------------------------------
# test losses, built on the public ``ad.custom``


def mul(a, b) -> ad.Tensor:
    """Elementwise product, with numpy broadcasting."""
    ta, tb = ad.tensor(a), ad.tensor(b)
    x, y = ta.data, tb.data
    return ad.custom(x * y, (ta, tb),
                     lambda g: (ad.unbroadcast(g * y, x.shape),
                                ad.unbroadcast(g * x, y.shape)))


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
# the unfused ops behind a fused ``ad.matmul``, ``ad.attention`` and the
# model's encoder and VAD nodes


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
        scores = ad.scale(ad.matmul(qs, transpose(ks)),
                          1.0 / math.sqrt(dh))
        heads.append(ad.matmul(softmax(scores, axis=-1), vs))
    return concat(heads, axis=1)


def concat(parts: Sequence, axis: int = 0):
    """``np.concatenate`` of the parts' arrays; on a tape, a node whose
    vjp splits the gradient back into the parts' shapes."""
    arrays = [ad.value(p) for p in parts]
    out = np.concatenate(arrays, axis=axis)
    if not ad.taping():
        return out
    cuts = np.cumsum([x.shape[axis] for x in arrays[:-1]])
    return ad.custom(out, parts, lambda g: tuple(np.split(g, cuts, axis=axis)))


def stitch_outputs(per_chunk_outputs, layout: ChunkLayout):
    """Join per-body outputs (tensors or arrays), in chunk order, into one
    output of full stream length: a Tensor on a tape, where each body gets
    its rows of the gradient, and an array without one. A lone body is
    returned as it is, with no copy."""
    if len(per_chunk_outputs) != len(layout.chunks):
        raise LayoutError(f"{len(per_chunk_outputs)} outputs for "
                          f"{len(layout.chunks)} chunks")
    for out, ch in zip(per_chunk_outputs, layout.chunks):
        if out.shape[0] != ch.body[1] - ch.body[0]:
            raise LayoutError(f"chunk output rows {out.shape[0]} != body "
                              f"length {ch.body[1] - ch.body[0]}")
    if not per_chunk_outputs:
        return ad.Tensor(np.zeros((0,)))
    if len(per_chunk_outputs) == 1:
        return per_chunk_outputs[0]
    return concat(per_chunk_outputs, axis=0)


def context_forward_per_window(Z, model, layout: ChunkLayout):
    """``model.context_forward(Z, model, layout)`` as each chunk's own
    chain: slice the chunk's window, run the whole layer on it, slice the
    body's rows out, and stitch the bodies."""
    T, d = ad.value(Z).shape
    zp = ad.add(Z, positional_encoding(T, d))
    bodies = []
    for ch in layout.chunks:
        (b0, b1), (w0, w1) = ch.body, ch.window
        xw = ad.slice_axis(zp, w0, w1)
        bodies.append(ad.slice_axis(_context_layer(xw, xw, model),
                                    b0 - w0, b1 - w0))
    return stitch_outputs(bodies, layout)


def forward_stages(Z, model, layout: ChunkLayout | None = None) -> dict:
    """The encoder rows ``Z``; the VAD hidden features, context vectors and
    fused vectors that the stages make from them; and ``forward``'s
    log-posteriors and speech probabilities, by name."""
    H_vad = vad_forward(Z, model)[0]
    C = context_forward(Z, model, layout)
    grid, probs = forward(Z, model, layout)
    return {"Z": Z, "H_vad": H_vad, "C": C,
            "G": cross_task_attend(C, H_vad, model),
            "log_posteriors": grid.log_probs, "speech_probs": probs}


def transpose(a) -> ad.Tensor:
    x = ad.value(a)
    if x.ndim != 2:
        raise DimensionError("transpose expects a matrix", x.shape)
    return ad.custom(x.T.copy(), (a,), lambda g: (g.T,))


def reshape(a, shape) -> ad.Tensor:
    x = ad.value(a)
    return ad.custom(x.reshape(shape), (a,), lambda g: (g.reshape(x.shape),))


def relu(a) -> ad.Tensor:
    ta = ad.tensor(a)
    x = ta.data
    mask = x > 0
    return ad.custom(np.maximum(x, 0.0), (ta,), lambda g: (g * mask,))


def stacked_matmul(a, b) -> ad.Tensor:
    """``a @ b`` where one operand is a (T, m, n) stack of matrices, each
    multiplied on its own, so an item's arithmetic does not depend on T: the
    product inside the model's fused encoder and VAD nodes, with their
    ``ad.matmul_grads`` vjp. A plain-array operand gets no gradient."""
    x, y = ad.value(a), ad.value(b)
    if sorted((x.ndim, y.ndim)) != [2, 3]:
        raise DimensionError("stacked_matmul needs one stack and one matrix",
                             x.shape, y.shape)
    need = (isinstance(a, ad.Tensor), isinstance(b, ad.Tensor))
    return ad.custom(x @ y, (a, b),
                     lambda g: ad.matmul_grads(g, x, y, *need))


def matmul_unfused(a, b, bias, act=None):
    """``ad.matmul(a, b, bias, act)`` as the chain of ops it fuses: matmul
    (``stacked_matmul`` when an operand is a stack), add, activation
    ("relu", "sigmoid" or None)."""
    stacked = max(ad.value(a).ndim, ad.value(b).ndim) == 3
    z = ad.add((stacked_matmul if stacked else ad.matmul)(a, b), bias)
    if act == "relu":
        return relu(z)
    return sigmoid(z) if act == "sigmoid" else z


def depthwise_conv1d(x, kernels, left=None):
    """Causal depthwise convolution over time, the VAD head's conv as one
    op. x: (T, C), kernels: (C, 1, W) -> (T, C), with out[t] = sum_w
    x[t + w - W + 1] * kernels[:, 0, w]. Before t = 0, x is ``left``, the
    (W - 1, C) rows that precede it (a constant: no gradient flows to it),
    or zeros. One reduction of a strided (W, T, C) window adds each row's
    products in w order, from -0.0."""
    tx, tk = ad.tensor(x), ad.tensor(kernels)
    xv, kv = tx.data, tk.data
    if xv.ndim != 2 or kv.ndim != 3 or kv.shape[:2] != (xv.shape[1], 1):
        raise DimensionError("depthwise_conv1d expects (T,C) input and "
                             "(C,1,W) kernels", xv.shape, kv.shape)
    T, C = xv.shape
    W = kv.shape[2]
    left = np.zeros((W - 1, C)) if left is None else ad.value(left)
    if left.shape != (W - 1, C):
        raise DimensionError("depthwise_conv1d's left context must be "
                             "(W-1, C)", left.shape, (W - 1, C))
    taps = kv.transpose(2, 1, 0)  # (W, 1, C)
    xp = np.concatenate([left, xv])
    s0, s1 = xp.strides
    win = np.ndarray((W, T, C), buffer=xp, strides=(s0, s0, s1))  # xp[w:w+T]
    out = np.add.reduce(win * taps, axis=0, initial=-0.0)
    if not ad.taping():  # a plain array, as a primitive gives
        return out

    def vjp(g):
        gp = np.concatenate([g, np.zeros((W - 1, C))])
        r0, r1 = gp.strides
        gwin = np.ndarray((W, T, C), buffer=gp, offset=(W - 1) * r0,
                          strides=(-r0, r0, r1))
        return (np.add.reduce(gwin * taps, axis=0, initial=0.0),
                np.add.reduce(win * g, axis=1).T.reshape(kv.shape))

    return ad.custom(out, (tx, tk), vjp)


def encode_unfused(x: np.ndarray, model) -> ad.Tensor:
    """``model.encode_features(x, model)`` as the chain of ops it fuses, on
    conv1's (c1, 1) bias: stacked matmul, add, relu, reshape, stacked
    matmul, add, relu, reshape, layer_norm."""
    p = model.params
    d, c1 = model.dims.d_model, model.dims.conv1_channels
    T = len(x)
    x = x.reshape(T, CONV2_WIDTH, CONV1_WIDTH).transpose(0, 2, 1)
    h1 = matmul_unfused(reshape(p["enc1_k"], (c1, CONV1_WIDTH)), x,
                        p["enc1_b"], "relu")
    k2 = transpose(reshape(p["enc2_k"], (d, c1 * CONV2_WIDTH)))
    h2 = matmul_unfused(reshape(h1, (T, 1, c1 * CONV2_WIDTH)), k2,
                        reshape(p["enc2_b"], (1, 1, d)), "relu")
    return ad.layer_norm(reshape(h2, (T, d)),
                         *(reshape(p[k], (1, d))
                           for k in ("enc_ln_g", "enc_ln_b")))


def vad_forward_unfused(Z, model, left=None):
    """``model.vad_forward(Z, model, left=left)`` as the chain of ops its
    two nodes fuse: conv, add, relu; then reshape, stacked matmul, add,
    sigmoid, reshape."""
    p = model.params
    T, d = ad.value(Z).shape
    h = relu(ad.add(depthwise_conv1d(Z, p["vad_k"], left),
                    reshape(p["vad_b"], (1, d))))
    z = matmul_unfused(reshape(h, (T, 1, d)), p["vad_fc_w"],
                       reshape(p["vad_fc_b"], (1, 1, 1)), "sigmoid")
    return h, reshape(z, (T,))


def depthwise_conv1d_taps(x, kernels, left=None) -> ad.Tensor:
    """``depthwise_conv1d`` as a loop over its W taps: the forward adds one
    (T, C) product per tap, the vjp scatters one per tap."""
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
    output's upstream gradient is exactly ``g``. For a tuple of outputs,
    ``g`` is a tuple of their upstream gradients, and so are the outputs
    returned."""
    ts = [ad.Tensor(a) for a in arrays]
    with ad.Tape() as tape:
        out = fn(*ts)
        many = isinstance(out, tuple)
        outs = tuple(map(ad.tensor, out if many else (out,)))
        seed = ad.custom(np.zeros(()), outs, lambda _: g if many else (g,))
    grads = ad.backward(tape, seed)
    data = tuple(o.data for o in outs)
    return data if many else data[0], [grads.get(t) for t in ts]


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
