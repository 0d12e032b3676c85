"""Reverse-mode autodiff over dense float64 numpy arrays.

A ``Tape`` records every primitive executed while it is active (context
manager). ``backward`` replays the tape once in reverse and returns the
gradient of a scalar loss with respect to every leaf that received one.
Tensors are immutable value holders; parameters are just long-lived tensors.
With no tape active, primitives take Tensors or arrays and return plain
arrays, computed by the same arithmetic as on a tape.
"""

from __future__ import annotations

import math
import struct
from typing import Callable

import numpy as np

from .errors import DimensionError, UsageError

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

    def __len__(self):
        return len(self._nodes)


class Tensor:
    """Immutable dense array. Hash/eq are identity on purpose: the same
    parameter object is the key into ``backward``'s gradient map."""

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

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor{tag}(shape={self.data.shape})"


_F64 = np.dtype(np.float64)


def value(x) -> np.ndarray:
    """The array behind ``x``: a Tensor's data, or ``x`` as a float64 array."""
    if type(x) is np.ndarray and x.dtype is _F64:  # the common case, fast
        return x
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def tensor(x) -> Tensor:
    """``x`` as a Tensor; a Tensor is returned as it is, so a taped value
    keeps its place on the tape."""
    return x if isinstance(x, Tensor) else Tensor(x)


def custom(data: np.ndarray, parents: tuple, vjp: Callable) -> Tensor:
    """Record ``data``, computed from ``parents`` (Tensors or arrays), on
    the innermost tape, with ``vjp`` mapping its gradient to theirs: the
    one way a node is recorded. It returns a Tensor with or without a tape,
    recorded only on one."""
    out = Tensor(data)
    if _ACTIVE_TAPES:
        _ACTIVE_TAPES[-1]._nodes.append((out, tuple(map(tensor, parents)),
                                         vjp))
    return out


def taping() -> bool:
    """Whether a tape is active, on which a fused node of a model records
    itself with ``custom``."""
    return bool(_ACTIVE_TAPES)


def unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcasted gradient back to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitives
#
# Each primitive computes its forward arithmetic once, on the arrays behind
# its inputs. With no tape active it returns that plain array: no Tensor, no
# record. On a tape it records the same array with ``custom``, so both paths
# give the same bits.


def add(a, b):
    x, y = value(a), value(b)
    try:
        out = x + y
    except ValueError:
        raise DimensionError("add shapes incompatible", x.shape, y.shape)
    if not _ACTIVE_TAPES:
        return out
    return custom(out, (a, b), lambda g: (unbroadcast(g, x.shape),
                                          unbroadcast(g, y.shape)))


def scale(a, c: float):
    c = float(c)
    out = value(a) * c
    if not _ACTIVE_TAPES:
        return out
    return custom(out, (a,), lambda g: (g * c,))


def matmul(a, b, bias=None, act: str | None = None):
    """Product of two matrices. Then, fused into the same tape node,
    ``+ bias`` if given and ``act`` ("relu" or None): the arithmetic of
    ``matmul``, ``add`` and the activation, in that order, and a vjp that
    returns the arrays those three nodes' vjps would."""
    if act not in (None, "relu"):
        raise UsageError(f"unknown activation {act!r}")
    x, y = value(a), value(b)
    c = None if bias is None else value(bias)
    if x.ndim != 2 or y.ndim != 2:
        raise DimensionError("matmul needs two matrices", x.shape, y.shape)
    try:
        z = x @ y
        zshape = z.shape
        if c is not None:
            z = z + c
    except ValueError:
        raise DimensionError("matmul shapes incompatible", x.shape, y.shape,
                             *(() if c is None else (c.shape,)))
    out = z if act is None else np.maximum(z, 0.0)
    if not _ACTIVE_TAPES:
        return out
    mask = z > 0 if act == "relu" else None
    # a plain-array operand gets no gradient
    need_a, need_b = isinstance(a, Tensor), isinstance(b, Tensor)

    def vjp(g):
        if act == "relu":
            g = g * mask
        ga, gb = matmul_grads(g if c is None else unbroadcast(g, zshape),
                              x, y, need_a, need_b)
        return (ga, gb) if c is None else (ga, gb, unbroadcast(g, c.shape))

    return custom(out, (a, b) if c is None else (a, b, bias), vjp)


def matmul_grads(gz, x, y, need_a: bool = True, need_b: bool = True):
    """The gradients of ``x @ y`` for ``x`` and ``y`` (None where not
    needed) from the product's gradient ``gz``. One operand may be a
    (T, m, n) stack of matrices, as in the model's fused encoder and VAD
    nodes: a stack's sum is np.tensordot's one 2-D np.dot, on its arrays."""
    ga = gb = None
    if need_a:
        ga = gz @ y.T if y.ndim == 2 else np.dot(
            gz.transpose(1, 0, 2).reshape(gz.shape[1], -1),
            y.transpose(0, 2, 1).reshape(-1, y.shape[1]))
    if need_b:
        gb = x.T @ gz if x.ndim == 2 else np.dot(
            x.transpose(2, 0, 1).reshape(x.shape[2], -1),
            gz.reshape(-1, gz.shape[2]))
    return ga, gb


def log_softmax(a, axis: int = -1):
    x = value(a)
    shifted = x - x.max(axis=axis, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    if not _ACTIVE_TAPES:
        return out
    return custom(out, (a,), lambda g: (
        g - np.exp(out) * g.sum(axis=axis, keepdims=True),))


def attention(q, k, v, n_heads: int, blocks=None):
    """Multi-head attention of (T, d) queries over (S, d) keys and values:
    column block h is softmax(q_h k_h^T / sqrt(d / n_heads)) v_h. One tape
    node with the arithmetic of the per-head chain it replaces (slice,
    transpose, matmul, scale, log-softmax, exp, matmul, concat).

    ``blocks``, if given, are a ``ChunkLayout``'s (body, window) row ranges
    (S == T): each runs the chain on its window's rows, as on that slice
    alone, and keeps its body's rows, which so attend only to the window."""
    qv, kv, vv = value(q), value(k), value(v)
    if (qv.ndim != 2 or kv.shape != vv.shape or kv.shape[1:] != qv.shape[1:]
            or qv.shape[1] % n_heads):
        raise DimensionError("attention shapes", qv.shape, kv.shape, vv.shape)
    c = 1.0 / math.sqrt(qv.shape[1] // n_heads)
    if blocks is None:
        out, saved = _attend(qv, kv, vv, n_heads, c)
    else:
        out, saved = np.empty(qv.shape), []
        for (b0, b1), (w0, w1) in blocks:
            o, step = _attend(qv[w0:w1], kv[w0:w1], vv[w0:w1], n_heads, c)
            out[b0:b1] = o[b0 - w0:b1 - w0]
            saved.append(step)
    if not _ACTIVE_TAPES:
        return out

    def vjp(g):
        if blocks is None:
            dq, dk, dv = _attend_grads(g, *saved, c)
        else:  # each window's chain; overlapping windows sum their rows
            dq, (dk, dv) = np.empty(qv.shape), np.zeros((2, *kv.shape))
            for ((b0, b1), (w0, w1)), step in zip(blocks, saved):
                gw = np.zeros((w1 - w0, g.shape[1]))
                gw[b0 - w0:b1 - w0] = g[b0:b1]
                gq, gk, gv = _attend_grads(gw, *step, c)
                dq[b0:b1] = gq[b0 - w0:b1 - w0]
                dk[w0:w1] += gk
                dv[w0:w1] += gv
        # the chain summed the heads' zero-padded gradients: each entry + 0.0
        return (dq, dk, dv) if n_heads == 1 else (dq + 0.0, dk + 0.0, dv + 0.0)

    return custom(out, (q, k, v), vjp)


def _attend(qv, kv, vv, n_heads: int, c: float):
    """``attention`` of all of ``qv`` over all of ``kv``, and what vjp reads."""
    T, S, dh = len(qv), len(kv), qv.shape[1] // n_heads
    # heads stacked (h, T, dh), (h, dh, S), (h, S, dh): each head's bits
    qs = np.ascontiguousarray(qv.reshape(T, n_heads, dh).transpose(1, 0, 2))
    kt = np.ascontiguousarray(kv.reshape(S, n_heads, dh).transpose(1, 2, 0))
    vs = np.ascontiguousarray(vv.reshape(S, n_heads, dh).transpose(1, 0, 2))
    # in place (same bits): a fresh (h, T, S) array costs more than its math
    a = qs @ kt
    a *= c
    a -= a.max(axis=-1, keepdims=True)
    a -= np.log(np.exp(a).sum(-1, keepdims=True))
    out = (np.exp(a, out=a) @ vs).transpose(1, 0, 2).reshape(T, -1)
    return out, (qs, kt, vs, a)


def _attend_grads(g, qs, kt, vs, a, c: float):
    """The arrays the chain's vjps return, per head (stacked rounds apart)."""
    dh = qs.shape[2]
    dq, dk, dv = (np.empty((x.shape[1], g.shape[1])) for x in (qs, vs, vs))
    for h in range(len(qs)):
        b = slice(h * dh, (h + 1) * dh)
        gh = g[:, b].copy()
        dv[:, b] = a[h].T @ gh
        ga = gh @ vs[h].T
        ga *= a[h]
        ga -= a[h] * ga.sum(-1, keepdims=True)
        ga *= c
        dq[:, b] = ga @ kt[h].T
        dk[:, b] = (qs[h].T @ ga).T
    return dq, dk, dv


def layer_norm(x, gain, bias, eps: float = 1e-5):
    """Normalize over the last axis, then scale and shift."""
    out, vjp = layer_norm_arrays(value(x), value(gain), value(bias), eps)
    return custom(out, (x, gain, bias), vjp) if _ACTIVE_TAPES else out


def layer_norm_arrays(xv, gv, bv, eps: float = 1e-5):
    """``layer_norm`` on arrays: its output, and its vjp. The mean and the
    variance are numpy's own arithmetic (a sum divided by the count; the
    mean of the squared deviations), spelled out so the deviations are
    computed once."""
    n = float(xv.shape[-1])  # a float divides faster than an int, same bits
    d = xv - np.add.reduce(xv, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(np.add.reduce(d * d, axis=-1, keepdims=True) / n + eps)
    y = d * inv

    def vjp(g):
        gy = g * gv
        dx = inv * (gy - np.add.reduce(gy, axis=-1, keepdims=True) / n
                    - y * (np.add.reduce(gy * y, -1, keepdims=True) / n))
        return dx, unbroadcast(g * y, gv.shape), unbroadcast(g, bv.shape)

    return y * gv + bv, vjp


def slice_axis(a, start: int, stop: int, axis: int = 0):
    """``a[start:stop]`` along ``axis``, as a copy."""
    x = value(a)
    if not (0 <= start <= stop <= x.shape[axis]):
        raise DimensionError(f"slice [{start}:{stop}] on axis {axis} out of "
                             "bounds", x.shape)
    index = (slice(None),) * (axis % x.ndim) + (slice(start, stop),)
    out = x[index].copy()
    if not _ACTIVE_TAPES:
        return out

    def vjp(g):
        full = np.zeros_like(x)
        full[index] = g
        return (full,)

    return custom(out, (a,), vjp)


# ---------------------------------------------------------------------------
# reverse traversal


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Gradients of a scalar ``loss`` w.r.t. every tensor on the tape that
    no node on it produced (its leaves, such as the parameters)."""
    if loss.size != 1:
        raise UsageError(f"loss must be scalar, got shape {loss.shape}")
    grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
    for out, parents, vjp in reversed(tape._nodes):
        g = grads.pop(out, None)
        if g is None:
            continue
        for p, pg in zip(parents, vjp(g)):
            if pg is not None:
                prev = grads.get(p)
                grads[p] = pg if prev is None else prev + pg
    if loss in grads:  # no node on the tape produced it
        raise UsageError("loss was not produced on this tape")
    return grads


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
