"""Two-stage training recipe and evaluation loops.

Every stage trains through one loss path, and the stage picks the
objective: stage 1 (``asr_only``) minimises CTC alone, stage 2 (``mtl``)
finetunes CTC + vad_weight * BCE with random-size chunk-hopping, and the
VAD-only baseline trains just the encoder + VAD head on BCE for the
MTL-vs-STL comparison. Learning rates follow a tri-stage schedule (linear
warmup, hold, linear decay); constants are rescaled for desk-scale runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad, model as net
from .audio import (FRAME_SAMPLES, FrameSequence, SampleBuffer, Utterance,
                    draw_frames, frame_stream, to_frames)
from .chunking import plan_chunks, sample_chunk_len
from .decode import BeamConfig, beam_search, greedy_decode
from .errors import DataError, NumericError
from .losses import bce_loss, ctc_loss, mtl_loss
from .metrics import corpus_error_rate, score_events, vad_metrics
from .model import ModelParams, forward, vad_score_frames
from .streamer import StreamerConfig, run_stream

# warmup, hold and decay shares of the tri-stage schedule's steps
SCHEDULE_FRACTIONS = (0.1, 0.4, 0.5)
GRAD_CLIP = 5.0  # global gradient norm bound per step
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
VAD_THRESHOLD = 0.5  # speech decision on a whole-sequence VAD score
DEV_STREAM_SEED = 1234  # gaps and noise of the streaming evaluation's stream
DEV_GAP_RANGE_S = (0.5, 2.0)  # silence between a dev stream's utterances


@dataclass
class TrainConfig:
    stage: str = "asr_only"            # asr_only | mtl | vad_only
    learning_rate: float = 5e-3
    epochs: int = 24
    batch_size: int = 4
    chunk_min_s: float = 0.5
    chunk_max_s: float = 3.0
    splice_s: float = 0.5
    vad_weight: float = 2.0            # mtl only
    seed: int = 0

    def __post_init__(self):
        if self.stage not in ("asr_only", "mtl", "vad_only"):
            raise DataError(f"unknown training stage {self.stage!r}")
        if not self.learning_rate > 0 or self.epochs < 1 or self.batch_size < 1:
            raise DataError("learning_rate, epochs, batch_size must be positive")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        for name in ("splice_s", "vad_weight"):
            if not 0 <= getattr(self, name) < math.inf:
                raise DataError(f"{name} must be finite and >= 0, "
                                f"got {getattr(self, name)!r}")
        if not 0 < self.chunk_min_s <= self.chunk_max_s < math.inf:
            raise DataError(f"need 0 < chunk_min_s <= chunk_max_s, both "
                            f"finite, got {self.chunk_min_s!r} and "
                            f"{self.chunk_max_s!r}")
        to_frames(self.chunk_max_s)  # as frames too: 1.7e308 s overflows
        to_frames(self.splice_s)


@dataclass
class TrainReport:
    ctc_curve: list[float] = field(default_factory=list)
    ce_curve: list[float] = field(default_factory=list)
    total_curve: list[float] = field(default_factory=list)
    final_dev_cer: Optional[float] = None
    final_dev_vad: Optional[dict] = None
    wall_clock_s: float = 0.0
    skipped_infeasible: int = 0
    param_count: int = 0


# ---------------------------------------------------------------------------
# optimizer


def tri_stage_lr(step: int, total_steps: int, peak_lr: float) -> float:
    """Linear warmup, constant hold, linear decay over ``SCHEDULE_FRACTIONS``
    of the steps; lr(0) = 0."""
    warm = max(1, int(total_steps * SCHEDULE_FRACTIONS[0]))
    hold = int(total_steps * SCHEDULE_FRACTIONS[1])
    if step < warm:
        return peak_lr * step / warm
    if step < warm + hold:
        return peak_lr
    decay_steps = max(1, total_steps - warm - hold)
    frac = min(1.0, (step - warm - hold) / decay_steps)
    return peak_lr * (1.0 - frac)


class Adam:
    """Adam with bias correction, in place over one parameter vector."""

    def __init__(self, size: int):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray, lr: float) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        self.m += (1 - b1) * (grad - self.m)
        self.v += (1 - b2) * (grad * grad - self.v)
        # lr * mhat / (sqrt(vhat) + eps), in place where it keeps the bits:
        # each temporary is as long as the whole parameter vector
        denom = np.sqrt(self.v / (1 - b2 ** self.t)) + ADAM_EPS
        update = self.m / (1 - b1 ** self.t)
        update *= lr
        update /= denom
        params -= update


def clip_gradients(grad: np.ndarray, parts: Sequence[np.ndarray],
                   max_norm: float) -> None:
    """Scale ``grad`` to a global norm of at most ``max_norm``; the norm sums
    each of ``parts``, the per-parameter views of ``grad``, in turn."""
    total = math.sqrt(sum(float((g * g).sum()) for g in parts))
    if max_norm > 0 and total > max_norm:
        grad *= max_norm / total


# ---------------------------------------------------------------------------
# shared loop


def _forward(model: ModelParams, frames: FrameSequence, config: TrainConfig,
             layout):
    """One utterance's posterior grid (None if VAD-only) and speech
    probabilities, on the active tape."""
    if config.stage == "vad_only":
        return None, vad_score_frames(frames, model)
    return forward(net.encode_features(frames, model), model, layout)


def _loss(probs, utt: Utterance, config: TrainConfig, ctc
          ) -> tuple[ad.Tensor, float, float]:
    """The loss node ``config.stage`` minimises for one utterance, from its
    speech probabilities and its CTC node (None when VAD-only), and the CTC
    and BCE values for the curves (CTC 0 when VAD-only)."""
    if config.stage == "asr_only":  # BCE for its curve, on a tape of its own
        with ad.Tape():
            bce = bce_loss(probs, utt.speech_mask)
        return ctc, float(ctc.data), float(bce.data)
    bce = bce_loss(probs, utt.speech_mask)
    if config.stage == "vad_only":
        return bce, 0.0, float(bce.data)
    return (mtl_loss(ctc, bce, config.vad_weight), float(ctc.data),
            float(bce.data))


def _run_training(model: ModelParams, corpus: Sequence[Utterance],
                  config: TrainConfig) -> TrainReport:
    """Train ``model``, the stage's own copy, in place: its trained
    parameters become views of one vector, which Adam updates."""
    trained = (model.params if config.stage != "vad_only"
               else {n: model.params[n] for n in ModelParams.VAD_BRANCH})
    flat = np.concatenate([t.data.ravel() for t in trained.values()])
    grad = np.empty_like(flat)
    parts, end = [], 0  # each parameter's gradient, a view of ``grad``
    for t in trained.values():
        end += t.size
        t.data = flat[end - t.size:end].reshape(t.shape)
        parts.append(grad[end - t.size:end].reshape(t.shape))
    report = TrainReport(param_count=flat.size)
    rng = np.random.default_rng(config.seed)
    opt = Adam(flat.size)
    n = len(corpus)
    total_steps = config.epochs * math.ceil(n / config.batch_size)
    splice_frames = to_frames(config.splice_s)
    step = 0
    t0 = time.perf_counter()
    for _ in range(config.epochs):
        order = rng.permutation(n)
        ep_ctc, ep_ce, ep_total, ep_count = 0.0, 0.0, 0.0, 0
        for bstart in range(0, n, config.batch_size):
            batch = order[bstart:bstart + config.batch_size]
            body_frames = (sample_chunk_len(rng, config.chunk_min_s,
                                            config.chunk_max_s)
                           if config.stage == "mtl" else None)
            grad.fill(0.0)
            counted_before = ep_count
            # forwards each on a tape, one CTC recursion, backwards in order
            taped = []
            for ui in batch:
                utt = corpus[int(ui)]
                frames = frame_stream(utt.audio)
                layout = (plan_chunks(len(frames), body_frames, splice_frames,
                                      splice_frames)
                          if body_frames is not None else None)
                with ad.Tape() as tape:
                    taped.append((tape, utt,
                                  *_forward(model, frames, config, layout)))
            ctcs = ([None] * len(taped) if config.stage == "vad_only" else
                    ctc_loss([grid for _, _, grid, _ in taped],
                             [utt.transcript for _, utt, _, _ in taped],
                             [tape for tape, _, _, _ in taped]))
            for (tape, utt, _, probs), ctc in zip(taped, ctcs):
                if ctc is None and config.stage != "vad_only":  # infeasible
                    report.skipped_infeasible += 1
                    continue
                with tape:
                    node, ctc_val, ce_val = _loss(probs, utt, config, ctc)
                    gmap = ad.backward(tape, node)
                for t, part in zip(trained.values(), parts):
                    g = gmap.get(t)
                    if g is not None:
                        part += g
                ep_ctc += ctc_val
                ep_ce += ce_val
                ep_total += float(node.data)
                ep_count += 1
            if ep_count > counted_before:  # an utterance gave a gradient
                grad /= len(batch)
                if not np.isfinite(grad).all():
                    name = next(name for name, part in zip(trained, parts)
                                if not np.isfinite(part).all())
                    raise NumericError(
                        f"non-finite gradient for {name!r} at step "
                        f"{step + 1} of {total_steps}")
                clip_gradients(grad, parts, GRAD_CLIP)
                lr = tri_stage_lr(step, total_steps, config.learning_rate)
                opt.step(flat, grad, lr)
            step += 1
        denom = max(1, ep_count)
        report.ctc_curve.append(ep_ctc / denom)
        report.ce_curve.append(ep_ce / denom)
        report.total_curve.append(ep_total / denom)
    report.wall_clock_s = time.perf_counter() - t0
    return report


def train(model: ModelParams, corpus: Sequence[Utterance], config: TrainConfig,
          dev_corpus: Optional[Sequence[Utterance]] = None
          ) -> tuple[ModelParams, TrainReport]:
    """Train a copy of ``model`` on the objective ``config.stage`` names;
    attach dev metrics when there is a dev corpus: segmented ``evaluate``,
    or for ``vad_only``, whose ASR head is untrained, the VAD report."""
    model = model.copy()
    report = _run_training(model, corpus, config)
    if dev_corpus and config.stage == "vad_only":
        report.final_dev_vad = _vad_report(dev_corpus, [
            vad_score_frames(frame_stream(u.audio), model).data
            for u in dev_corpus])
    elif dev_corpus:
        ev = evaluate(model, dev_corpus, mode="segmented")
        report.final_dev_cer = ev["cer"]
        report.final_dev_vad = {k: ev[k] for k in ("deter", "fa", "miss")}
    return model, report


# the names perfbench imports and times; they go when it calls ``train``
train_stage1_asr = train_stage2_mtl = train


# ---------------------------------------------------------------------------
# evaluation


def _vad_report(corpus: Sequence[Utterance], probs: Sequence) -> dict:
    """DetER, FA and miss of each utterance's whole-sequence speech
    probabilities ``probs`` at ``VAD_THRESHOLD``, over the corpus's frames."""
    rep = vad_metrics(np.concatenate([u.speech_mask for u in corpus]),
                      np.concatenate(probs) >= VAD_THRESHOLD)
    return {"deter": rep.deter, "fa": rep.fa, "miss": rep.miss}


def build_dev_stream(corpus: Sequence[Utterance], seed: int = DEV_STREAM_SEED,
                     noise_amplitude: float = 0.005
                     ) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Concatenate utterances with silence gaps of ``DEV_GAP_RANGE_S`` into
    one long stream.

    Returns (samples, frame speech mask, reference token sequence).
    """
    rng = np.random.default_rng(seed)
    max_gap = max(1, to_frames(max(DEV_GAP_RANGE_S)))
    # filled in place at an upper bound, so the stream is never held twice;
    # the untouched tail is never resident
    samples = np.empty((len(corpus) + 1) * max_gap * FRAME_SAMPLES
                       + sum(len(u.audio.samples) for u in corpus))
    n = 0
    masks, ref = [], []

    def put(audio):
        nonlocal n
        samples[n:n + len(audio)] = audio
        n += len(audio)

    def gap():
        g_frames = draw_frames(rng, *DEV_GAP_RANGE_S)
        put(rng.normal(0.0, noise_amplitude, g_frames * FRAME_SAMPLES)
            if noise_amplitude > 0 else np.zeros(g_frames * FRAME_SAMPLES))
        masks.append(np.zeros(g_frames, dtype=bool))

    gap()
    for utt in corpus:
        put(utt.audio.samples[:len(utt.speech_mask) * FRAME_SAMPLES])
        masks.append(utt.speech_mask)
        ref.extend(utt.transcript)
        gap()
    return samples[:n], np.concatenate(masks), tuple(ref)


def evaluate(model: ModelParams, corpus: Sequence[Utterance],
             beam: Optional[BeamConfig] = None, mode: str = "segmented",
             l_asr_s: float = 3.0) -> dict:
    """Score a trained model.

    ``segmented``: decode each utterance whole (oracle segmentation).
    ``streaming``: run the online pipeline over one concatenated stream
    (``build_dev_stream`` at ``DEV_STREAM_SEED``) with ASR chunk capacity
    ``l_asr_s`` and score events against the concatenated reference. Its
    ``deter`` scores the event spans against
    the reference mask, so it measures segment coverage: a pause inside an
    utterance that one event bridges counts as false alarm (1346 of the
    7424 frames of the seed-8 corpus joined with gap seed 1 lie in such
    pauses).
    """
    if not corpus:
        raise DataError("cannot evaluate on an empty corpus")
    if mode == "segmented":
        pairs, probs = [], []
        for utt in corpus:
            grid, speech = forward(
                net.encode_features(frame_stream(utt.audio), model), model)
            hyp = (greedy_decode(grid) if beam is None
                   else beam_search(grid, beam)[0].tokens)
            pairs.append((utt.transcript, hyp))
            probs.append(speech.data)
        rep = corpus_error_rate(pairs)
        return {**rep.as_dict(), **_vad_report(corpus, probs),
                "n_utts": len(corpus)}

    if mode != "streaming":
        raise DataError(f"unknown evaluation mode {mode!r}")
    samples, ref_mask, ref_tokens = build_dev_stream(corpus)
    frames = frame_stream(SampleBuffer(samples))
    cfg = StreamerConfig(max_chunk_frames=max(
        to_frames(l_asr_s), StreamerConfig.min_speech_frames))
    streamer = run_stream(model, frames, cfg, beam)
    rep, vad = score_events(ref_tokens, ref_mask, streamer.events)
    return {**rep.as_dict(), "deter": vad.deter, "fa": vad.fa,
            "miss": vad.miss, "n_utts": len(corpus),
            "n_events": len(streamer.events),
            "events": streamer.events}
