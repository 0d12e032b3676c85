"""Online VAD&ASR state machine.

Frames arrive in blocks: ``push_frames`` takes a (k, 320) block, and
``push_frame`` is a block of one, so there is one path. A block is scored
with one call of the scorer, ``scorer(frames, start) -> scores``, where
``start`` is the absolute index of the block's first frame and the result
holds one score per frame. ``ModelScorer`` carries only the VAD conv's
``vad_kernel_width - 1`` left-context encoder rows from block to block, so
any split of a stream into blocks gives the same scores, and with them the
same events. A ``ModelDecoder`` decodes from the encoder rows that the
``ModelScorer`` of its model made, so no frame is encoded twice. In a live
stream a block of k frames waits up to k - 1 frames for its last frame
before it is scored: that algorithmic latency, in frames, is separate from
the compute latency of scoring and decoding.

Per frame of a block: update the frames-to-process counter ``c`` and
the trailing-silence counter ``b``, raise the speaking flag once
``c - b >= min_speech``, and flush the pending speech span either when it
reaches the ASR chunk capacity (forced-length) or when ``min_silence``
consecutive sub-threshold frames arrive while speaking (end-of-utterance).
The flush decision uses the speaking flag *before* the long-silence
falsification, otherwise end-of-utterance flushes would be unreachable.

An event's span counts frames. Seconds exist only in event files, written
as frame index times ``FRAME_DURATION_S`` and read back to the nearest frame.

Additional reset rule: while not speaking, a window that is pure silence
(``b == c``) or whose silence run reached ``min_silence`` is discarded. This
makes every kept window start at a supra-threshold frame and bounds any
flushed span by capacity + min_silence frames.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .audio import FRAME_DURATION_S, MAX_STREAM_S, FrameSequence, to_frames
from .decode import BeamConfig, beam_search, greedy_decode
from .errors import DataError, InvalidSpecError, UsageError
from .model import ModelParams, encoder_weights, forward, vad_weights
from . import autodiff as ad, model as net

FORCED = "forced-length"
END_OF_UTT = "end-of-utterance"
FINALIZE = "finalize"
CAUSES = (FORCED, END_OF_UTT, FINALIZE)


@dataclass(frozen=True)
class StreamerConfig:
    vad_threshold: float = 0.45
    min_speech_frames: int = 5      # C: 0.1 s at 20 ms frames
    min_silence_frames: int = 30    # B: 0.6 s
    max_chunk_frames: int = 150     # l: ASR queue capacity, 3.0 s
    splice_frames: int = 32         # 0.64 s context on each side

    def __post_init__(self):
        if not (0.0 <= self.vad_threshold <= 1.0):
            raise InvalidSpecError("vad_threshold must be in [0, 1]")
        if self.min_speech_frames < 1 or self.min_silence_frames < 1:
            raise InvalidSpecError("min speech/silence must be >= 1 frame")
        if self.max_chunk_frames < self.min_speech_frames:
            raise InvalidSpecError("chunk capacity must be >= min speech")
        if self.splice_frames < 0:
            raise InvalidSpecError("splice_frames must be >= 0")


@dataclass(frozen=True)
class SegmentEvent:
    """Frames ``[start, end)`` of a stream, their text and their cause."""
    start: int
    end: int
    text: tuple[str, ...]
    cause: str

    def __post_init__(self):
        if self.cause not in CAUSES:
            raise DataError(f"event cause must be one of {', '.join(CAUSES)}"
                            f", got {self.cause!r}")

    start_s = property(lambda self: self.start * FRAME_DURATION_S)
    end_s = property(lambda self: self.end * FRAME_DURATION_S)

    def as_dict(self):
        return {"start_s": self.start_s, "end_s": self.end_s,
                "text": " ".join(self.text), "cause": self.cause}


# ---------------------------------------------------------------------------
# scorers and decoders


class ModelScorer:
    """Cheap VAD path of the model, evaluated a block of frames at a time.

    Encodes each new frame once, off the tape. The encoder is frame-local
    and the VAD conv causal, so a block scores exactly as in the whole
    sequence given the conv's left context: the encoder rows of the
    ``vad_kernel_width - 1`` frames before it (zeros before the first), all
    the scorer carries. The weights are copied once, in the layout the
    forward uses. ``rows`` is the last block's (k, d) encoder rows, the
    ``ModelDecoder``'s input: a fresh array per call that the scorer never
    writes, so a streamer may adopt it as its row buffer."""

    def __init__(self, model: ModelParams):
        self.model = model
        # copies: a training step updates the parameters in place
        self._weights = tuple(tuple(map(np.array, ws))
                              for ws in (encoder_weights(model),
                                         vad_weights(model)))
        self._left = np.zeros((model.dims.vad_kernel_width - 1,
                               model.dims.d_model))
        self.rows = self._left[:0]

    def __call__(self, frames: np.ndarray, start: int) -> np.ndarray:
        enc_w, vad_w = self._weights
        rows = self.rows = ad.value(net.encode_features(frames, self.model,
                                                        enc_w))
        scores = ad.value(net.vad_forward(rows, self.model, vad_w,
                                          self._left)[1])
        n, k = len(self._left), len(rows)  # (a view of rows is never written)
        self._left = (rows[k - n:] if k >= n
                      else np.concatenate((self._left[k:], rows)))
        return scores


class ModelDecoder:
    """Decode a flushed window, the (T, d) encoder rows a ``ModelScorer`` of
    the same model made, a view a ``Streamer`` lends for the call only: the
    rest of the forward for the span's rows, keys and values over the
    window, then beam search (or greedy). The span must be non-empty, in it."""

    def __init__(self, model: ModelParams, beam: Optional[BeamConfig] = None):
        self.model = model
        self.beam = beam

    def __call__(self, window: np.ndarray, span_start: int,
                 span_len: int) -> tuple[str, ...]:
        span = (span_start, span_start + span_len)
        grid = forward(window, self.model, span=span)[0]
        return (greedy_decode(grid) if self.beam is None
                else beam_search(grid, self.beam)[0].tokens)


# ---------------------------------------------------------------------------
# the state machine


class Streamer:
    """Single-writer online VAD&ASR over pushed frames. A decoder reads views
    of one row buffer; without one, any scorer will do and text is empty."""

    def __init__(self, config: StreamerConfig,
                 scorer: Callable[[np.ndarray, int], np.ndarray],
                 decoder: Optional[ModelDecoder] = None):
        if decoder is not None and not (
                isinstance(decoder, ModelDecoder)
                and isinstance(scorer, ModelScorer)
                and scorer.model is decoder.model):
            raise UsageError("a ModelDecoder needs a ModelScorer of its model")
        self.config = config
        self.scorer = scorer
        self.decoder = decoder
        self._t = 0                 # absolute index of the next frame
        self._c = 0                 # frames accumulated in the window
        self._b = 0                 # trailing sub-threshold run
        self._speaking = False
        self._window_start = 0      # absolute index of the window's frame 0
        self._rows = np.empty((0, 0))  # the decoder's encoder rows
        self._row0 = 0              # absolute index of _rows[0]
        self.events: list[SegmentEvent] = []

    @property
    def boundaries(self) -> list[tuple[int, int, str]]:
        """Each event's ``(start, end, cause)``, as perfbench compares them."""
        return [(ev.start, ev.end, ev.cause) for ev in self.events]

    # -- frame bookkeeping

    def _emit(self, start: int, end: int, cause: str) -> SegmentEvent:
        cfg = self.config
        text: tuple[str, ...] = ()
        if self.decoder is not None:
            ws = max(0, start - cfg.splice_frames)
            we = min(self._t, end + cfg.splice_frames)
            window = self._rows[ws - self._row0:we - self._row0]
            text = self.decoder(window, start - ws, end - start)
        ev = SegmentEvent(start, end, text, cause)
        self.events.append(ev)
        return ev

    # -- Algorithm-1 transitions

    def push_frame(self, frame) -> Optional[SegmentEvent]:
        """Push one frame: a block of one. Returns its event, if any."""
        events = self.push_frames(np.asarray(frame, dtype=np.float64)[None])
        return events[0] if events else None

    def push_frames(self, frames) -> list[SegmentEvent]:
        """Push a block of frames: score it with one scorer call, then run
        the transitions frame by frame. Returns the events it flushed, each
        decoded from a window that ends where it would one frame at a time."""
        cfg = self.config
        block = np.asarray(frames, dtype=np.float64)
        if not len(block):  # e.g. a stream shorter than one frame
            return []
        start = self._t
        try:
            scores = np.asarray(self.scorer(block, start), dtype=np.float64)
            if scores.shape != (len(block),):
                raise DataError(f"{scores.shape} scores for {len(block)} "
                                "frames")
        except Exception as exc:
            raise DataError(
                f"VAD scorer failed at frame {start}: {exc}") from exc
        if self.decoder is not None:
            self._keep_rows(self.scorer.rows)

        events = []
        for theta in scores.tolist():
            self._t += 1
            self._c += 1
            if theta >= cfg.vad_threshold:
                self._b = 0
            else:
                self._b += 1
            speech_len = self._c - self._b
            if speech_len >= cfg.min_speech_frames:
                self._speaking = True

            forced = speech_len >= cfg.max_chunk_frames
            end_of_utt = self._b >= cfg.min_silence_frames and self._speaking

            if forced or end_of_utt:
                if speech_len >= cfg.min_speech_frames:
                    events.append(self._emit(
                        self._window_start, self._window_start + speech_len,
                        FORCED if forced else END_OF_UTT))
                # forced flushes continue the same utterance;
                # end-of-utterance flushes close it
                self._speaking = forced
                self._reset_window()
            elif self._b == self._c or self._b >= cfg.min_silence_frames:
                # window is pure silence (or a sub-minimum blip followed by
                # a long silence) while not speaking: nothing worth keeping
                self._speaking = False
                self._reset_window()
        return events

    def _reset_window(self) -> None:
        self._c = 0
        self._b = 0
        self._window_start = self._t

    def _keep_rows(self, rows: np.ndarray) -> None:
        """Append a block's rows to the row buffer. A row is live, and kept,
        from ``splice_frames`` before the window on."""
        base = max(0, self._window_start - self.config.splice_frames)
        i, k = self._t - self._row0, len(rows)
        if self._t == base:  # no live row: adopt the fresh block
            self._rows, self._row0 = rows, self._t
        elif i + k <= len(self._rows):
            self._rows[i:i + k] = rows
        else:  # the live rows, then the block, in a buffer twice their size
            live = self._rows[base - self._row0:i]
            self._rows = np.empty((2 * (len(live) + k), rows.shape[1]))
            np.concatenate((live, rows), out=self._rows[:len(live) + k])
            self._row0 = base

    def finalize(self) -> Optional[SegmentEvent]:
        """Flush a trailing utterance once the stream has ended."""
        cfg = self.config
        speech_len = self._c - self._b
        event = None
        if self._speaking and speech_len >= cfg.min_speech_frames:
            event = self._emit(self._window_start,
                               self._window_start + speech_len, FINALIZE)
        self._speaking = False
        self._reset_window()
        # keep the live rows, at most splice_frames, and free the rest
        n, end = min(self._t, cfg.splice_frames), self._t - self._row0
        self._rows, self._row0 = self._rows[end - n:end].copy(), self._t - n
        return event


def run_stream(model: ModelParams, frames: FrameSequence,
               config: StreamerConfig, beam: Optional[BeamConfig] = None,
               decode: bool = True) -> Streamer:
    """Push the whole stream through a model-scored streamer as one block,
    then finalize it. With ``decode``, flushed spans are decoded greedily or
    with ``beam``."""
    decoder = ModelDecoder(model, beam) if decode else None
    streamer = Streamer(config, ModelScorer(model), decoder)
    streamer.push_frames(frames.frames)
    streamer.finalize()
    return streamer


def run_offline_reference(scores: Sequence[float], config: StreamerConfig
                          ) -> list[tuple[int, int, str]]:
    """Whole-sequence transliteration of the same transition rules: each
    segment's ``(start, end, cause)``. Testing oracle for ``push_frames``."""
    c = b = 0
    speaking = False
    window_start = 0
    out: list[tuple[int, int, str]] = []
    for t, theta in enumerate(scores):
        c += 1
        b = 0 if theta >= config.vad_threshold else b + 1
        if c - b >= config.min_speech_frames:
            speaking = True
        forced = c - b >= config.max_chunk_frames
        end_of_utt = b >= config.min_silence_frames and speaking
        if forced or end_of_utt:
            if c - b >= config.min_speech_frames:
                out.append((window_start, window_start + (c - b),
                            FORCED if forced else END_OF_UTT))
            speaking = forced
            c = b = 0
            window_start = t + 1
        elif b == c or b >= config.min_silence_frames:
            speaking = False
            c = b = 0
            window_start = t + 1
    if speaking and c - b >= config.min_speech_frames:
        out.append((window_start, window_start + (c - b), FINALIZE))
    return out


def validate_events(events: Sequence[SegmentEvent],
                    config: StreamerConfig) -> None:
    """Raise DataError unless the events are in order, apart, and each spans
    min speech to capacity + min silence frames."""
    lo = config.min_speech_frames
    hi = config.max_chunk_frames + config.min_silence_frames
    for i, ev in enumerate(events):
        if i and ev.start < events[i - 1].end:
            raise DataError(f"event {i}: overlaps previous event")
        if not lo <= ev.end - ev.start <= hi:
            raise DataError(f"event {i}: span of {ev.end - ev.start} frames, "
                            f"not from minimum speech {lo} to capacity {hi}")


# ---------------------------------------------------------------------------
# event file format: JSON-lines, times in seconds


def write_events(path, events: Sequence[SegmentEvent]) -> None:
    with open(path, "w") as fh:
        fh.writelines(json.dumps(ev.as_dict()) + "\n" for ev in events)


def read_events(path) -> list[SegmentEvent]:
    """A JSON-lines event file's events, times rounded to the nearest frame."""
    events = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                times = rec["start_s"], rec["end_s"]
                if not all(type(t) in (int, float) for t in times):
                    raise TypeError(f"event times must be JSON numbers, got "
                                    f"{times}")
                start_s, end_s = map(float, times)
                if not (0 <= start_s <= end_s <= MAX_STREAM_S):
                    raise DataError(f"event times must be >= 0, in order and "
                                    f"at most {MAX_STREAM_S:.0f} s (the longest"
                                    f" 16 kHz WAV), got [{start_s}, {end_s})")
                events.append(SegmentEvent(
                    to_frames(start_s), to_frames(end_s),
                    tuple(rec["text"].split()), rec["cause"]))
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            except (json.JSONDecodeError, KeyError, ValueError, TypeError,
                    AttributeError, OverflowError) as exc:
                raise DataError(f"{path}:{lineno}: bad event line: "
                                f"{type(exc).__name__}: {exc}") from exc
    return events
