"""Reverse-mode autodiff over dense float64 numpy arrays.

A ``Tape`` records every primitive executed while it is active (context
manager). ``backward`` replays the tape once in reverse and returns the
gradient of a scalar loss with respect to every tensor that received one.
Tensors are immutable value holders; parameters are just long-lived tensors.
"""

from __future__ import annotations

import math
import struct
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, NumericError, UsageError

_ACTIVE_TAPES: list["Tape"] = []


class Tape:
    """Recording of primitive ops for one reverse traversal."""

    def __init__(self):
        self._nodes: list[tuple["Tensor", tuple["Tensor", ...], Callable]] = []

    def __enter__(self) -> "Tape":
        _ACTIVE_TAPES.append(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE_TAPES.pop()
        return False

    def _record(self, out, parents, vjp):
        self._nodes.append((out, parents, vjp))

    def __len__(self):
        return len(self._nodes)


def _active_tape() -> Tape | None:
    return _ACTIVE_TAPES[-1] if _ACTIVE_TAPES else None


class Tensor:
    """Immutable dense array. Hash/eq are identity on purpose: the same
    parameter object is the key into gradient maps and optimizer state."""

    __slots__ = ("data", "name")

    def __init__(self, data, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor{tag}(shape={self.data.shape})"

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(_as_tensor(other), -1.0))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _op(data: np.ndarray, parents: tuple[Tensor, ...], vjp: Callable) -> Tensor:
    out = Tensor(data)
    tape = _active_tape()
    if tape is not None:
        tape._record(out, parents, vjp)
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcasted gradient back to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitives


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise DimensionError("add shapes incompatible", a.shape, b.shape)
    return _op(data, (a, b),
               lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise DimensionError("mul shapes incompatible", a.shape, b.shape)
    return _op(data, (a, b),
               lambda g: (_unbroadcast(g * b.data, a.shape),
                          _unbroadcast(g * a.data, b.shape)))


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    return _op(a.data * c, (a,), lambda g: (g * c,))


def matmul(a, b) -> Tensor:
    """Matrix product; one operand may be a (T, m, n) stack of matrices, each
    multiplied on its own, so an item's arithmetic does not depend on T."""
    a, b = _as_tensor(a), _as_tensor(b)
    if (a.ndim not in (2, 3) or b.ndim not in (2, 3) or a.ndim + b.ndim > 5
            or a.shape[-1] != b.shape[-2]):
        raise DimensionError("matmul shapes incompatible", a.shape, b.shape)

    def vjp(g):
        # sum over the stack as one flat 2-D product, not T small ones
        if a.ndim == 3:
            return g @ b.data.T, np.tensordot(a.data, g, axes=([0, 1], [0, 1]))
        if b.ndim == 3:
            return np.tensordot(g, b.data, axes=([0, 2], [0, 2])), a.data.T @ g
        return g @ b.data.T, a.data.T @ g

    return _op(a.data @ b.data, (a, b), vjp)


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    if a.ndim != 2:
        raise DimensionError("transpose expects a matrix", a.shape)
    return _op(a.data.T.copy(), (a,), lambda g: (g.T,))


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.shape
    return _op(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    s = 1.0 / (1.0 + np.exp(-a.data))
    return _op(s, (a,), lambda g: (g * s * (1.0 - s),))


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0
    return _op(a.data * mask, (a,), lambda g: (g * mask,))


def exp(a) -> Tensor:
    a = _as_tensor(a)
    e = np.exp(a.data)
    return _op(e, (a,), lambda g: (g * e,))


def log_softmax(a, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    m = a.data.max(axis=axis, keepdims=True)
    shifted = a.data - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse

    def vjp(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return _op(out, (a,), vjp)


def softmax(a, axis: int = -1) -> Tensor:
    return exp(log_softmax(a, axis=axis))


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (x.data - mu) * inv
    out = y * gain.data + bias.data

    def vjp(g):
        gy = g * gain.data
        n = x.shape[-1]
        dx = inv * (gy - gy.mean(axis=-1, keepdims=True)
                    - y * (gy * y).mean(axis=-1, keepdims=True))
        dgain = _unbroadcast(g * y, gain.shape)
        dbias = _unbroadcast(g, bias.shape)
        return dx, dgain, dbias

    return _op(out, (x, gain, bias), vjp)


def slice_rows(a, start: int, stop: int) -> Tensor:
    a = _as_tensor(a)
    if not (0 <= start <= stop <= a.shape[0]):
        raise DimensionError(f"row slice [{start}:{stop}] out of bounds", a.shape)

    def vjp(g):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        return (full,)

    return _op(a.data[start:stop].copy(), (a,), vjp)


def slice_cols(a, start: int, stop: int) -> Tensor:
    a = _as_tensor(a)
    if not (0 <= start <= stop <= a.shape[-1]):
        raise DimensionError(f"col slice [{start}:{stop}] out of bounds", a.shape)

    def vjp(g):
        full = np.zeros_like(a.data)
        full[..., start:stop] = g
        return (full,)

    return _op(a.data[..., start:stop].copy(), (a,), vjp)


def concat(parts: Sequence, axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    sizes = [p.shape[axis] for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(
            np.take(g, np.arange(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(parts))
        )

    return _op(data, tuple(parts), vjp)


def sum_all(a) -> Tensor:
    a = _as_tensor(a)
    return _op(np.asarray(a.data.sum()), (a,),
               lambda g: (np.broadcast_to(g, a.shape).copy(),))


def mean_all(a) -> Tensor:
    a = _as_tensor(a)
    n = a.size
    return _op(np.asarray(a.data.mean()), (a,),
               lambda g: (np.broadcast_to(g / n, a.shape).copy(),))


def depthwise_conv1d(x, kernels) -> Tensor:
    """Causal depthwise convolution over time. x: (T, C), kernels: (C, 1, W)
    -> (T, C), with out[t] = sum_w x[t + w - W + 1] * kernels[:, 0, w] and x
    zero before t = 0. Each row is a sum of elementwise products taken in w
    order, so its value does not depend on T."""
    x, kernels = _as_tensor(x), _as_tensor(kernels)
    if (x.ndim != 2 or kernels.ndim != 3
            or kernels.shape[:2] != (x.shape[1], 1)):
        raise DimensionError("depthwise_conv1d expects (T,C) input and "
                             "(C,1,W) kernels", x.shape, kernels.shape)
    T, C = x.shape
    W = kernels.shape[2]
    taps = kernels.data[:, 0, :].T  # (W, C)
    xp = np.concatenate([np.zeros((W - 1, C)), x.data])
    out = xp[:T] * taps[0]
    for w in range(1, W):
        out += xp[w:w + T] * taps[w]

    def vjp(g):
        dxp = np.zeros_like(xp)
        dtaps = np.empty_like(taps)
        for w in range(W):
            dxp[w:w + T] += g * taps[w]
            dtaps[w] = (g * xp[w:w + T]).sum(axis=0)
        return dxp[W - 1:], dtaps.T.reshape(kernels.shape)

    return _op(out, (x, kernels), vjp)


def custom(data: np.ndarray, parents: tuple[Tensor, ...], vjp: Callable) -> Tensor:
    """Register an externally computed primitive (e.g. CTC) on the tape."""
    return _op(np.asarray(data, dtype=np.float64), parents, vjp)


# ---------------------------------------------------------------------------
# reverse traversal


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Gradients of a scalar ``loss`` w.r.t. every tensor on the tape."""
    if loss.size != 1:
        raise UsageError(f"loss must be scalar, got shape {loss.shape}")
    if not any(out is loss for out, _, _ in tape._nodes):
        raise UsageError("loss was not produced on this tape")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    by_id: dict[int, Tensor] = {id(loss): loss}
    for out, parents, vjp in reversed(tape._nodes):
        g = grads.pop(id(out), None)
        if g is None:
            continue
        if out is not loss:
            by_id.pop(id(out), None)
        pgrads = vjp(g)
        for p, pg in zip(parents, pgrads):
            if pg is None:
                continue
            key = id(p)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
                by_id[key] = p
    return {by_id[k]: v for k, v in grads.items() if k in by_id}


def finite_diff_check(f: Callable, params: Sequence[Tensor],
                      eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f(params) -> scalar Tensor``; must be deterministic. Relative error is
    |analytic - numeric| / max(1, |numeric|), maximized over all coordinates
    of all params.
    """
    if eps <= 0:
        raise UsageError("eps must be positive")
    with Tape() as tape:
        loss = f(params)
    if not np.isfinite(loss.data):
        raise NumericError("objective is not finite at the evaluation point")
    grads = backward(tape, loss)
    worst = 0.0
    for p in params:
        analytic = grads.get(p, np.zeros_like(p.data))
        flat = p.data.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(f(params).data)
            flat[i] = orig - eps
            fm = float(f(params).data)
            flat[i] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise NumericError("objective not finite under perturbation")
            numeric = (fp - fm) / (2.0 * eps)
            err = abs(analytic.ravel()[i] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# checkpoint serialization

_MAGIC = b"TNSR"


def save_params(path, params: dict[str, Tensor]) -> None:
    """Binary checkpoint: magic, u32 count, then per tensor
    u16 name length + name, u8 rank, u32 dims, f64 little-endian data."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(params)))
        for name, t in params.items():
            # ascontiguousarray promotes 0-d to 1-d; keep the original rank
            data = np.ascontiguousarray(t.data, dtype="<f8").reshape(t.shape)
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", data.ndim))
            for d in data.shape:
                fh.write(struct.pack("<I", d))
            fh.write(data.tobytes())


def load_params(path) -> dict[str, Tensor]:
    from .errors import FormatError

    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise FormatError(f"bad checkpoint magic {blob[:4]!r}")
    off = 4
    out: dict[str, Tensor] = {}
    try:
        (count,) = struct.unpack_from("<I", blob, off)
        off += 4
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", blob, off)
            off += 2
            name = blob[off:off + nlen].decode("utf-8")
            off += nlen
            (rank,) = struct.unpack_from("<B", blob, off)
            off += 1
            dims = struct.unpack_from(f"<{rank}I", blob, off)
            off += 4 * rank
            n = math.prod(dims)  # a Python int: large dims cannot wrap
            if off + 8 * n > len(blob):
                raise FormatError(
                    f"truncated checkpoint: tensor {name!r} needs {8 * n} "
                    f"bytes, {len(blob) - off} remain")
            arr = np.frombuffer(blob, dtype="<f8", count=n, offset=off)
            off += 8 * n
            out[name] = Tensor(arr.copy().reshape(dims), name=name)
    except struct.error as exc:
        raise FormatError(f"truncated checkpoint: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"bad tensor name in checkpoint: {exc}") from exc
    if off != len(blob):
        raise FormatError("trailing bytes after last tensor")
    return out
