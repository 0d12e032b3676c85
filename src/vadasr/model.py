"""Toy two-branch network: a convolutional feature encoder feeding a cheap
VAD head (depthwise temporal conv + sigmoid FC) and a transformer context block
whose output queries the VAD features through cross-task attention before the
CTC prediction head.

The encoder's receptive field is exactly one 20 ms frame (kernel == stride in
both conv layers), so each conv is a per-frame matrix product, and the VAD
conv is causal: VAD scores are computable online, a block of frames at a
time, bit-identical to whole-sequence ones.

The forward functions are written once: on a tape they build taped
Tensors for training, and with no tape active they compute on plain arrays
with the same arithmetic, so inference gives the same bits without the
tape's cost. The encoder is one fused tape node and the VAD head two (its
hidden features; its speech probability), each running its numpy
arithmetic in one function for both; the rest is ``autodiff`` primitives.
The fused nodes read their weights as the arrays ``encoder_weights`` and
``vad_weights`` lay out, record the stored parameters as their parents and
return gradients in the stored shapes. The speech probabilities of
``forward`` and ``vad_score_frames`` are Tensors either way.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .audio import FRAME_SAMPLES, FrameSequence, parse_vocab
from .chunking import ChunkLayout
from .errors import (
    DataError,
    DimensionError,
    FormatError,
    LayoutError,
    UsageError,
)

CONV1_WIDTH = 16   # stride 16: 320 -> 20 positions per frame
CONV2_WIDTH = 20   # stride 20: 20 positions -> 1 latent per frame

# the parameters of the encoder's node and of the VAD head's two nodes
ENCODER = ("enc1_k", "enc1_b", "enc2_k", "enc2_b", "enc_ln_g", "enc_ln_b")
VAD_HEAD = ("vad_k", "vad_b", "vad_fc_w", "vad_fc_b")


@dataclass(frozen=True)
class ModelDims:
    vocab_size: int
    d_model: int = 32
    n_heads: int = 2
    conv1_channels: int = 16
    ffn_dim: int = 64
    vad_kernel_width: int = 5

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int or value < 1:
                raise UsageError(
                    f"{f.name} must be a positive int, got {value!r}")
        if self.d_model % self.n_heads:
            raise UsageError(
                f"n_heads={self.n_heads} must divide d_model={self.d_model}")


@dataclass(frozen=True)
class PosteriorGrid:
    """Per-frame log-probabilities over vocabulary plus trailing blank."""

    log_probs: ad.Tensor  # (T, |V|+1); an array is wrapped as a Tensor
    vocab: list[str]

    def __post_init__(self):
        object.__setattr__(self, "log_probs", ad.tensor(self.log_probs))
        if self.log_probs.shape[-1] != len(self.vocab) + 1:
            raise DimensionError("grid width != |V|+1",
                                 self.log_probs.shape, len(self.vocab) + 1)

    @property
    def blank_index(self) -> int:
        return len(self.vocab)

    @property
    def array(self) -> np.ndarray:
        return self.log_probs.data

    def __len__(self):
        return self.log_probs.shape[0]


_POSENC_CACHE: dict[int, np.ndarray] = {}


def positional_encoding(T: int, d: int) -> np.ndarray:
    cached = _POSENC_CACHE.get(d)
    if cached is None or cached.shape[0] < T:
        n = max(T, 512)
        pos = np.arange(n)[:, None]
        i = np.arange(d // 2)[None, :]
        angles = pos / np.power(10000.0, 2.0 * i / d)
        enc = np.zeros((n, d))
        enc[:, 0::2] = np.sin(angles)
        enc[:, 1::2] = np.cos(angles)
        _POSENC_CACHE[d] = cached = enc
    return cached[:T]


def param_layout(dims: ModelDims) -> dict[str, tuple[tuple, int | str]]:
    """Every parameter's name -> (shape, fill), in draw order; fill is
    "zeros", "ones", or the fan-in of a normal draw."""
    d, c1, f = dims.d_model, dims.conv1_channels, dims.ffn_dim
    K = dims.vocab_size + 1
    w = dims.vad_kernel_width
    return {
        "enc1_k": ((c1, 1, CONV1_WIDTH), CONV1_WIDTH),
        "enc1_b": ((c1, 1), "zeros"),
        "enc2_k": ((d, c1, CONV2_WIDTH), c1 * CONV2_WIDTH),
        "enc2_b": ((d, 1), "zeros"),
        "enc_ln_g": ((d,), "ones"),
        "enc_ln_b": ((d,), "zeros"),
        "vad_k": ((d, 1, w), w),
        "vad_b": ((d, 1), "zeros"),
        "vad_fc_w": ((d, 1), d),
        "vad_fc_b": ((1,), "zeros"),
        "ctx_wq": ((d, d), d),
        "ctx_wk": ((d, d), d),
        "ctx_wv": ((d, d), d),
        "ctx_wo": ((d, d), d),
        "ctx_ln1_g": ((d,), "ones"),
        "ctx_ln1_b": ((d,), "zeros"),
        "ffn_w1": ((d, f), d),
        "ffn_b1": ((f,), "zeros"),
        "ffn_w2": ((f, d), f),
        "ffn_b2": ((d,), "zeros"),
        "ctx_ln2_g": ((d,), "ones"),
        "ctx_ln2_b": ((d,), "zeros"),
        "xattn_wq": ((d, d), d),
        "xattn_wk": ((d, d), d),
        "xattn_wv": ((d, d), d),
        "xattn_wo": ((d, d), d),
        "asr_w": ((d, K), d),
        "asr_b": ((K,), "zeros"),
    }


class ModelParams:
    """Parameter store plus dims/vocab; mutation happens only in training."""

    def __init__(self, vocab: list[str], dims: ModelDims,
                 params: dict[str, ad.Tensor]):
        if dims.vocab_size != len(vocab):
            raise UsageError("dims.vocab_size != len(vocab)")
        self.vocab = list(vocab)
        self.dims = dims
        self.params = params
        self.attention_evals = 0  # instrumentation for the cheap-VAD check

    @classmethod
    def init(cls, vocab: list[str], dims: ModelDims | None = None,
             seed: int = 0) -> "ModelParams":
        dims = dims or ModelDims(vocab_size=len(vocab))
        rng = np.random.default_rng(seed)

        def draw(shape, fill):
            if fill == "zeros":
                return np.zeros(shape)
            if fill == "ones":
                return np.ones(shape)
            return rng.normal(0.0, math.sqrt(1.0 / fill), shape)

        p = {name: ad.Tensor(draw(shape, fill), name=name)
             for name, (shape, fill) in param_layout(dims).items()}
        return cls(vocab, dims, p)

    VAD_BRANCH = ENCODER + VAD_HEAD

    def copy(self) -> "ModelParams":
        cloned = {k: ad.Tensor(v.data.copy(), name=k)
                  for k, v in self.params.items()}
        return ModelParams(self.vocab, self.dims, cloned)

    def save(self, path) -> None:
        path = Path(path)
        ad.save_params(path, self.params)
        sidecar = {"vocab": self.vocab, "dims": asdict(self.dims)}
        path.with_suffix(path.suffix + ".json").write_text(json.dumps(sidecar))

    @classmethod
    def load(cls, path) -> "ModelParams":
        """Read a checkpoint and its JSON sidecar; every tensor must have the
        name and shape that ``param_layout`` gives for the sidecar's dims,
        and finite values."""
        path = Path(path)
        params = ad.load_params(path)
        sidecar_path = path.with_suffix(path.suffix + ".json")
        try:
            sidecar = json.loads(sidecar_path.read_text())
            vocab = parse_vocab(sidecar["vocab"], sidecar_path)
            dims = ModelDims(**sidecar["dims"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                UsageError) as exc:
            raise FormatError(f"{sidecar_path}: bad checkpoint sidecar: "
                              f"{type(exc).__name__}: {exc}") from exc
        if dims.vocab_size != len(vocab):
            raise FormatError(f"{sidecar_path}: {len(vocab)} vocab entries, "
                              f"dims say {dims.vocab_size}")
        expected = param_layout(dims)
        for name, (shape, _) in expected.items():
            if name not in params:
                raise FormatError(f"{path}: missing tensor {name!r}")
            if params[name].shape != shape:
                raise FormatError(
                    f"{path}: tensor {name!r} has shape {params[name].shape}, "
                    f"the sidecar's dims give {shape}")
            # one NaN weight turns every posterior it reaches into NaN
            if not np.isfinite(params[name].data).all():
                raise FormatError(f"{path}: tensor {name!r} holds NaN or inf")
        extra = [name for name in params if name not in expected]
        if extra:
            raise FormatError(f"{path}: unexpected tensor {extra[0]!r}")
        return cls(vocab, dims, params)


# ---------------------------------------------------------------------------
# forward ops


def encoder_weights(model: ModelParams) -> tuple:
    """The encoder's weights as arrays in its node's layout: conv1's kernel
    as a (c1, CONV1_WIDTH) matrix, its bias as a (c1, CONV2_WIDTH) block
    (+ -0.0 changes no value), conv2's kernel as a contiguous
    (c1 * CONV2_WIDTH, d) matrix, the rest in one frame's shape: numpy adds
    each to one frame's values on its fast, same-shape path."""
    k1, b1, k2, b2, ln_g, ln_b = (ad.value(model.params[n]) for n in ENCODER)
    d, c1 = model.dims.d_model, model.dims.conv1_channels
    return (k1.reshape(c1, CONV1_WIDTH), b1 + np.full((c1, CONV2_WIDTH), -0.0),
            k2.reshape(d, c1 * CONV2_WIDTH).T.copy(), b2.reshape(1, 1, d),
            ln_g.reshape(1, d), ln_b.reshape(1, d))


def encode_features(frames: FrameSequence | np.ndarray, model: ModelParams,
                    weights: tuple | None = None):
    """Convolutional encoder: one latent vector per 320-sample frame, as one
    tape node whose parents are the six stored ``ENCODER`` parameters.
    ``frames`` is a FrameSequence or a (T, 320) array; ``weights``, if
    given, are ``encoder_weights(model)``, prepared once by a caller that
    encodes one frame at a time."""
    x = frames.frames if isinstance(frames, FrameSequence) else frames
    T = len(x)
    if T == 0:
        raise DataError("cannot encode an empty frame sequence")
    if x.ndim != 2 or x.shape[1] != FRAME_SAMPLES:
        raise DimensionError("expected 320-sample frames (16 kHz, 20 ms)",
                             x.shape)
    k1, b1, k2, b2, ln_g, ln_b = weights or encoder_weights(model)
    # matmul + bias + relu for each conv (column j: position j's samples)
    xs = x.reshape(T, CONV2_WIDTH, CONV1_WIDTH).transpose(0, 2, 1)
    h1 = np.maximum(k1 @ xs + b1, 0.0)  # (T, c1, CONV2_WIDTH)
    h1s = h1.reshape(T, 1, -1)
    h2 = np.maximum(h1s @ k2 + b2, 0.0)
    out, ln_vjp = ad.layer_norm_arrays(h2.reshape(T, -1), ln_g, ln_b)
    if not ad.taping():
        return out
    params = tuple(model.params[n] for n in ENCODER)

    def vjp(g):
        # the arrays the chain's vjps return, in the stored shapes; relu's
        # mask is out > 0
        g, dg, db = ln_vjp(g)
        g2 = g.reshape(h2.shape) * (h2 > 0)
        g1, dk2 = ad.matmul_grads(g2, h1s, k2)
        g1 = g1.reshape(h1.shape) * (h1 > 0)
        dk1 = ad.matmul_grads(g1, k1, xs, need_b=False)[0]
        return (dk1.reshape(params[0].shape),
                ad.unbroadcast(g1, params[1].shape),  # then the -0.0 add's sum
                dk2.T.reshape(params[2].shape),
                ad.unbroadcast(g2, b2.shape).reshape(params[3].shape),
                dg.reshape(params[4].shape), db.reshape(params[5].shape))

    return ad.custom(out, params, vjp)


def vad_weights(model: ModelParams) -> tuple:
    """The VAD head's weights as arrays in the layout its nodes use, the
    biases shaped as in ``encoder_weights``."""
    k, b, fc_w, fc_b = (ad.value(model.params[n]) for n in VAD_HEAD)
    return k, b.reshape(1, model.dims.d_model), fc_w, fc_b.reshape(1, 1, 1)


def vad_forward(Z, model: ModelParams, weights: tuple | None = None,
                left: np.ndarray | None = None, probs: bool = True):
    """Cheap VAD branch as two tape nodes: hidden features (causal depthwise
    temporal conv, bias, relu) and speech probability (FC, bias, sigmoid),
    whose parameter parents are the stored ``VAD_HEAD`` parameters.
    ``weights``, if given, are ``vad_weights(model)``; ``left`` is the
    (vad_kernel_width - 1, d) array of encoder rows before ``Z``'s first (a
    constant, given no gradient), or zeros. Without ``probs`` the second
    result is None, and the FC is not run."""
    kv, bv, wv, cv = weights or vad_weights(model)
    zv = ad.value(Z)
    T, d = zv.shape
    W = kv.shape[2]
    left = np.zeros((W - 1, d)) if left is None else left
    if left.shape != (W - 1, d):
        raise DimensionError("the VAD conv's left context must be (W-1, d)",
                             left.shape, (W - 1, d))
    # conv[t] = sum_w xp[t + w] * kernels[:, 0, w], xp = [left; Z]: one
    # reduction adds the products in w order, from -0.0 so that a sum of
    # -0.0 products stays -0.0, and a row does not depend on T
    taps = kv.transpose(2, 1, 0)  # (W, 1, d)
    xp = np.concatenate([left, zv])
    s0, s1 = xp.strides
    win = np.ndarray((W, T, d), np.float64, xp, 0, (s0, s0, s1))  # xp[w:w+T]
    h = np.maximum(np.add.reduce(win * taps, axis=0, initial=-0.0) + bv, 0.0)
    hs = h.reshape(T, 1, d)
    prob = ((1.0 / (1.0 + np.exp(-(hs @ wv + cv)))).reshape(T) if probs
            else None)
    if not ad.taping():
        return h, prob
    k, b, fc_w, fc_b = (model.params[n] for n in VAD_HEAD)

    def hidden_vjp(g):
        g = g * (h > 0)
        # dx[t] = sum of g[t + W-1 - w] * taps[w] in w order from +0.0; the
        # zero rows padded after g add zero products, which change no such sum
        gp = np.concatenate([g, np.zeros((W - 1, d))])
        r0, r1 = gp.strides
        gwin = np.ndarray((W, T, d), buffer=gp, offset=(W - 1) * r0,
                          strides=(-r0, r0, r1))
        return (np.add.reduce(gwin * taps, axis=0, initial=0.0),
                np.add.reduce(win * g, axis=1).T.reshape(kv.shape),
                ad.unbroadcast(g, bv.shape).reshape(b.shape))

    def probs_vjp(g):
        g = (g.reshape(T) * prob * (1.0 - prob)).reshape(T, 1, 1)
        gh, gw = ad.matmul_grads(g, hs, wv)
        return (gh.reshape(T, d), gw,
                ad.unbroadcast(g, cv.shape).reshape(fc_b.shape))

    H = ad.custom(h, (Z, k, b), hidden_vjp)
    return H, ad.custom(prob, (H, fc_w, fc_b), probs_vjp) if probs else None


def vad_score_frames(frames: FrameSequence, model: ModelParams) -> ad.Tensor:
    """Low-cost VAD path: encoder + VAD head only, no attention, no ASR."""
    _, probs = vad_forward(encode_features(frames, model), model)
    return ad.tensor(probs)


def _mha(x_q, x_kv, wq, wk, wv, wo, n_heads: int, model: ModelParams,
         blocks=None):
    model.attention_evals += 1
    heads = ad.attention(ad.matmul(x_q, wq), ad.matmul(x_kv, wk),
                         ad.matmul(x_kv, wv), n_heads, blocks)
    return ad.matmul(heads, wo)


def _context_layer(x_q, x_kv, model: ModelParams, blocks=None):
    p = model.params
    a = _mha(x_q, x_kv, p["ctx_wq"], p["ctx_wk"], p["ctx_wv"], p["ctx_wo"],
             model.dims.n_heads, model, blocks)
    x1 = ad.layer_norm(ad.add(x_q, a), p["ctx_ln1_g"], p["ctx_ln1_b"])
    ff = ad.matmul(ad.matmul(x1, p["ffn_w1"], p["ffn_b1"], "relu"),
                   p["ffn_w2"], p["ffn_b2"])
    return ad.layer_norm(ad.add(x1, ff), p["ctx_ln2_g"], p["ctx_ln2_b"])


def context_forward(Z, model: ModelParams, layout: ChunkLayout | None = None,
                    span: tuple[int, int] | None = None):
    """Transformer block over encoder latents; with a layout, a chunk's body
    rows attend only to its window (``ad.attention``'s blocks), all else once
    per row. With ``span``, a (start, stop) pair in place of a layout, only
    the span's rows are computed, with keys and values over every row: the
    block's one layer joins rows only through attention."""
    T, d = Z.shape
    zp = ad.add(Z, positional_encoding(T, d))
    if span is not None:
        if layout is not None or not 0 <= span[0] < span[1] <= T:
            raise DimensionError(f"span {span} must be non-empty, within "
                                 f"the {T} rows and given without a layout")
        return _context_layer(ad.slice_axis(zp, *span), zp, model)
    if layout is not None and layout.total_T != T:
        raise LayoutError(f"layout covers {layout.total_T} frames, Z has {T}")
    return _context_layer(zp, zp, model, None if layout is None else
                          [(ch.body, ch.window) for ch in layout.chunks])


def cross_task_attend(C, H_vad, model: ModelParams,
                      span: tuple[int, int] | None = None):
    """Residual cross-task attention: queries from the ASR context vectors,
    keys/values from the VAD hidden features; with ``span``, ``C`` holds
    only the span's rows, and keys and values still cover every row."""
    rows = H_vad.shape[0] if span is None else span[1] - span[0]
    if C.shape[0] != rows:
        raise DimensionError("C and H_vad disagree on frame count",
                             C.shape, H_vad.shape)
    p = model.params
    fused = _mha(C, H_vad, p["xattn_wq"], p["xattn_wk"], p["xattn_wv"],
                 p["xattn_wo"], model.dims.n_heads, model)
    return ad.add(C, fused)


def asr_head(G, model: ModelParams) -> PosteriorGrid:
    p = model.params
    logits = ad.matmul(G, p["asr_w"], p["asr_b"])
    return PosteriorGrid(log_probs=ad.log_softmax(logits, axis=-1),
                         vocab=model.vocab)


def forward(Z, model: ModelParams, layout: ChunkLayout | None = None,
            span: tuple[int, int] | None = None
            ) -> tuple[PosteriorGrid, ad.Tensor | None]:
    """The network after the encoder, from the (T, d) encoder rows ``Z``:
    the posterior grid and the (T,) speech probabilities. On a tape both
    are taped; without one it runs on plain arrays, and the probabilities
    are wrapped as a Tensor only here. ``span`` (see ``context_forward``)
    gives the grid of the span's rows only, and no speech probabilities."""
    h_vad, probs = vad_forward(Z, model, probs=span is None)
    C = context_forward(Z, model, layout, span)
    grid = asr_head(cross_task_attend(C, h_vad, model, span), model)
    return grid, probs if probs is None else ad.tensor(probs)
