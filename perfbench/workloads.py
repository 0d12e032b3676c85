"""Inputs, closed loops and output checks of the three workloads.

A single client drives the public API and sends the next frame (or starts
the next epoch) only after the previous call has returned, the way
``vadasr transcribe`` and ``vadasr train`` do.

- ``stream-greedy`` and ``stream-beam-lm`` push the dev stream (a
  ``dev_seed`` corpus joined by ``trainer.build_dev_stream`` with gap seed
  ``run_seed``) through a fresh ``Streamer`` per pass, frame by frame. One
  operation is one pushed frame. A pass always runs to the end of the
  stream, so every pass does the same work however fast the machine is.
- ``train-mtl`` calls ``trainer.train_stage2_mtl`` for one epoch at a time,
  each time from the fixture, with trainer seed ``run_seed``. One operation
  is one optimizer step; an epoch is never cut.

Before timing, ``warm_up`` runs a little of the workload untimed, so that
lazy set-up inside the package and the allocator is done. Between calls, a
run times slices of the reference loop in ``refspeed`` (outside every timed
call) before and after every block of ``REF_EVERY_FRAMES`` frames in a
stream, and before and after each epoch in training; a block or an epoch is
scaled to reference speed by the two slices on either side of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from vadasr import trainer
from vadasr.audio import (FRAME_DURATION_S, CorpusSpec, FrameSequence,
                          SampleBuffer, frame_stream, gen_synthetic_corpus)
from vadasr.decode import BeamConfig, train_ngram
from vadasr.errors import DataError
from vadasr.metrics import (edit_counts, error_report_from_counts,
                            segments_to_mask, vad_metrics)
from vadasr.model import vad_score_frames
from vadasr.streamer import (ModelDecoder, ModelScorer, Streamer,
                             StreamerConfig, run_offline_reference,
                             validate_events)

import fixture
from refspeed import RefClock

DEV_UTTERANCES = 50
TRAIN_UTTERANCES = 200
LM_ORDER = 4
BATCH_SIZE = 4

# name -> (ASR chunk capacity in frames, beam 20 with the LM or greedy)
STREAMS = {"stream-greedy": (150, False), "stream-beam-lm": (50, True)}


class RunFailed(Exception):
    """An operation raised or an output check failed. ``failed`` counts the
    operation that raised and every operation of its pass or epoch not yet
    attempted; ``done`` counts the operations of that pass that succeeded.
    The run loop adds earlier operations to ``attempted``."""

    def __init__(self, message: str, done: int = 0, failed: int = 0):
        super().__init__(message)
        self.failed = failed
        self.attempted = done + failed


@dataclass(frozen=True)
class Seeds:
    run: int     # stream gaps and noise; trainer shuffling and chunk sizes
    dev: int     # dev corpus the streams are built from
    train: int   # training corpus, also the LM's transcripts


# ---------------------------------------------------------------------------
# set-up


@dataclass
class StreamInputs:
    model: object
    frames: np.ndarray
    ref_mask: np.ndarray
    ref_tokens: tuple
    config: StreamerConfig
    beam: Optional[BeamConfig]
    gen_s: float

    def new_streamer(self) -> Streamer:
        return Streamer(self.config, ModelScorer(self.model),
                        ModelDecoder(self.model, self.beam))


@dataclass
class TrainInputs:
    model: object
    corpus: list
    config: trainer.TrainConfig
    frames_per_epoch: int
    gen_s: float

    @property
    def steps_per_epoch(self) -> int:
        return math.ceil(len(self.corpus) / self.config.batch_size)


def setup(workload: str, seeds: Seeds):
    if workload in STREAMS:
        capacity, with_lm = STREAMS[workload]
        t = perf_counter()
        dev = gen_synthetic_corpus(CorpusSpec(utterance_count=DEV_UTTERANCES,
                                              seed=seeds.dev))
        train = (gen_synthetic_corpus(CorpusSpec(
            utterance_count=TRAIN_UTTERANCES, seed=seeds.train))
            if with_lm else None)
        gen_s = perf_counter() - t
        model = fixture.load_fixture()
        beam = None
        if with_lm:
            lm = train_ngram([u.transcript for u in train], order=LM_ORDER)
            beam = BeamConfig(beam_size=20, lm_weight=0.46, word_score=0.52,
                              lm=lm)
        samples, ref_mask, ref_tokens = trainer.build_dev_stream(
            dev, seed=seeds.run)
        frames = frame_stream(SampleBuffer(samples)).frames
        return StreamInputs(model, frames, ref_mask, ref_tokens,
                            StreamerConfig(max_chunk_frames=capacity), beam,
                            gen_s)
    t = perf_counter()
    corpus = gen_synthetic_corpus(CorpusSpec(utterance_count=TRAIN_UTTERANCES,
                                             seed=seeds.train))
    gen_s = perf_counter() - t
    config = trainer.TrainConfig(stage="mtl", epochs=1, learning_rate=2e-3,
                                 batch_size=BATCH_SIZE, seed=seeds.run,
                                 vad_weight=2.0)
    frames = sum(len(frame_stream(u.audio)) for u in corpus)
    return TrainInputs(fixture.load_fixture(), corpus, config, frames, gen_s)


# ---------------------------------------------------------------------------
# streaming


# In a traced run, tracing is on for alternate blocks of frames, and for the
# other blocks in the next pass, so every block is timed both ways close in
# time and the difference is the tracing overhead.
TRACE_BLOCK_FRAMES = 250


# reference-loop units per slice: about 1.5 ms every 2 s of audio in a
# stream (1% of the run), and 0.2 s between 2 s epochs (10%)
REF_EVERY_FRAMES = 100
REF_FRAME_UNITS = 20
REF_EPOCH_UNITS = 3000


def traced_frame(pass_index: int, frame: int) -> bool:
    return (frame // TRACE_BLOCK_FRAMES + pass_index) % 2 == 1


@dataclass
class StreamPass:
    index: int
    streamer: Streamer
    durations: list[float]   # one per push_frame call, then finalize
    emitted: list[bool]      # whether that call returned an event
    seconds: float           # wall time of the whole pass
    # one per block of REF_EVERY_FRAMES calls (finalize joins the last), from
    # the reference slices before and after the block
    ref_factors: list[float]

    @property
    def frames(self) -> int:
        return len(self.durations) - 1

    def ref_factor(self, call: int) -> float:
        return self.ref_factors[min(call // REF_EVERY_FRAMES,
                                    len(self.ref_factors) - 1)]

    def traced_calls(self) -> list[bool]:
        flags = [traced_frame(self.index, i) for i in range(self.frames)]
        return flags + [traced_frame(self.index, max(0, self.frames - 1))]


def stream_pass(inp: StreamInputs, index: int, ref: RefClock,
                set_tracing: Optional[Callable[[bool], None]] = None
                ) -> StreamPass:
    """Push the whole stream through a fresh streamer, then finalize it."""
    streamer = inp.new_streamer()
    durations: list[float] = []
    emitted: list[bool] = []
    n = len(inp.frames)
    first_slice = len(ref.slices)
    start = perf_counter()
    try:
        for i, fr in enumerate(inp.frames):
            if i % REF_EVERY_FRAMES == 0:
                ref.slice(REF_FRAME_UNITS)
            if set_tracing is not None and i % TRACE_BLOCK_FRAMES == 0:
                set_tracing(traced_frame(index, i))
            t = perf_counter()
            ev = streamer.push_frame(fr)
            durations.append(perf_counter() - t)
            emitted.append(ev is not None)
        t = perf_counter()
        ev = streamer.finalize()
        durations.append(perf_counter() - t)
        emitted.append(ev is not None)
        ref.slice(REF_FRAME_UNITS)
    except Exception as exc:
        done = min(len(durations), n)
        raise RunFailed(f"frame {done}: {exc!r}", done,
                        max(1, n - done)) from exc
    finally:
        if set_tracing is not None:
            set_tracing(False)
    seconds = perf_counter() - start
    blocks = len(ref.slices) - first_slice - 1
    factors = [ref.factor(first_slice + b, first_slice + b + 2)
               for b in range(blocks)]
    return StreamPass(index, streamer, durations, emitted, seconds, factors)


def check_stream_pass(inp: StreamInputs, p: StreamPass,
                      first: Optional[StreamPass]) -> None:
    """Raise RunFailed unless the pass's outputs are correct. The first pass
    is checked against the oracles; a later pass must repeat it exactly."""
    def fail(msg):
        raise RunFailed(msg)

    events = p.streamer.events
    if first is not None and first is not p:
        if (events != first.streamer.events
                or p.streamer.boundaries != first.streamer.boundaries):
            fail("a later pass emitted different events than the first")
        return
    try:
        validate_events(events, inp.config)
    except DataError as exc:
        fail(f"validate_events: {exc}")
    scores = vad_score_frames(FrameSequence(inp.frames), inp.model).data
    if p.streamer.boundaries != run_offline_reference(scores, inp.config):
        fail("streamer boundaries differ from run_offline_reference over "
             "whole-sequence vad_score_frames")
    vocab = set(inp.model.vocab)
    bad = {tok for ev in events for tok in ev.text} - vocab
    if bad:
        fail(f"event tokens outside the vocabulary: {sorted(bad)}")


def stream_quality(inp: StreamInputs, p: StreamPass) -> dict:
    """CER and DetER of a complete pass against the stream reference."""
    events = p.streamer.events
    hyp = [tok for ev in events for tok in ev.text]
    s, d, i = edit_counts(inp.ref_tokens, hyp)
    cer = error_report_from_counts(s, d, i, len(inp.ref_tokens)).rate
    T = p.frames
    vad = vad_metrics(inp.ref_mask[:T],
                      segments_to_mask(events, T, FRAME_DURATION_S))
    return {"cer": cer, "deter": vad.deter}


MIN_PASSES = 2   # two passes of the dev stream give over 100 events


def run_stream(inp: StreamInputs, seconds: float, ref: RefClock,
               set_tracing: Optional[Callable[[bool], None]] = None
               ) -> tuple[list[StreamPass], int]:
    """Closed-loop complete passes: at least ``MIN_PASSES``, then another
    while it is expected to end within ``seconds``. Returns the passes and
    the operations attempted; the caller checks the passes."""
    deadline = perf_counter() + seconds
    passes: list[StreamPass] = []
    attempted = 0
    try:
        while (len(passes) < MIN_PASSES
               or perf_counter() + passes[-1].seconds <= deadline):
            p = stream_pass(inp, len(passes), ref, set_tracing)
            attempted += p.frames
            passes.append(p)
    except RunFailed as exc:
        exc.attempted += attempted
        raise
    return passes, attempted


# ---------------------------------------------------------------------------
# training


@dataclass
class Epoch:
    seconds: float
    report: object
    model: object
    ref_factor: float = 1.0  # from the reference slices before and after it


def check_epoch(ep: Epoch, first: Optional[Epoch]) -> None:
    r = ep.report
    losses = r.ctc_curve + r.ce_curve + r.total_curve
    if not all(math.isfinite(x) for x in losses):
        raise RunFailed(f"non-finite loss in {losses}")
    for name, t in ep.model.params.items():
        if not np.all(np.isfinite(t.data)):
            raise RunFailed(f"non-finite parameter {name!r}")
    if first is not None and (r.total_curve != first.report.total_curve
                              or r.skipped_infeasible
                              != first.report.skipped_infeasible):
        raise RunFailed("an epoch from the same start gave different losses")


WARMUP_FRAMES = 250


def warm_up(inp) -> None:
    """Run a little of the workload untimed: the first ``WARMUP_FRAMES`` of
    the stream through a throwaway streamer, or one training epoch."""
    try:
        if isinstance(inp, StreamInputs):
            streamer = inp.new_streamer()
            for fr in inp.frames[:WARMUP_FRAMES]:
                streamer.push_frame(fr)
            streamer.finalize()
        else:
            trainer.train_stage2_mtl(inp.model, inp.corpus, inp.config)
    except Exception as exc:
        raise RunFailed(f"warm-up: {exc!r}", failed=1) from exc


def traced_epoch(index: int) -> bool:
    """In a traced run, every other epoch is traced."""
    return index % 2 == 1


def run_train(inp: TrainInputs, seconds: float, ref: RefClock,
              set_tracing: Optional[Callable[[bool], None]] = None
              ) -> tuple[list[Epoch], int]:
    """One-epoch ``train_stage2_mtl`` calls from the fixture while the next
    epoch is expected to end within ``seconds``; the first epoch always runs.
    With ``set_tracing`` (a traced run) there are at least two epochs.
    Returns the epochs and the operations attempted; the caller checks the
    epochs."""
    start = perf_counter()
    epochs: list[Epoch] = []
    steps = inp.steps_per_epoch
    while (not epochs
           or perf_counter() - start + epochs[-1].seconds <= seconds
           or (set_tracing is not None and len(epochs) < 2)):
        ref.slice(REF_EPOCH_UNITS)
        if set_tracing is not None:
            set_tracing(traced_epoch(len(epochs)))
        t = perf_counter()
        try:
            model, report = trainer.train_stage2_mtl(inp.model, inp.corpus,
                                                     inp.config)
            seconds_taken = perf_counter() - t
        except Exception as exc:
            err = RunFailed(f"epoch {len(epochs)}: {exc!r}", failed=steps)
            err.attempted += steps * len(epochs)
            raise err from exc
        finally:
            if set_tracing is not None:
                set_tracing(False)
        epochs.append(Epoch(seconds_taken, report, model))
    ref.slice(REF_EPOCH_UNITS)
    # slice k was taken just before epoch k, slice k + 1 just after it
    first = len(ref.slices) - len(epochs) - 1
    for k, ep in enumerate(epochs):
        ep.ref_factor = ref.factor(first + k, first + k + 2)
    return epochs, steps * len(epochs)
