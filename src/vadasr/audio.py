"""Audio ingestion, fixed-rate framing, and the synthetic "beep language"
corpus used for desk-scale training.

Each vocabulary symbol is rendered as a pure sine tone at its own frequency;
silence gaps separate tones, so the ground-truth speech mask is exact at the
frame grid (tone and gap durations are quantized to whole frames).
"""

from __future__ import annotations

import json
import math
import string
import struct
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DataError,
    DimensionError,
    FormatError,
    InvalidSpecError,
    UnsupportedFormatError,
)

# The one frame clock: every VAD decision, mask entry and duration in the
# package counts whole 20 ms frames of 16 kHz audio.
SAMPLE_RATE = 16000
FRAME_SAMPLES = 320
FRAME_DURATION_S = FRAME_SAMPLES / SAMPLE_RATE
# The longest stream one 16-bit mono WAV holds, in whole frames: RIFF sizes
# are 32-bit.
MAX_STREAM_S = (2 ** 32 - 1) // 2 // FRAME_SAMPLES * FRAME_DURATION_S
TONE_AMPLITUDE = 0.5
BASE_FREQ_HZ = 400.0
FREQ_SPACING_HZ = 300.0


@dataclass(frozen=True)
class SampleBuffer:
    samples: np.ndarray  # float64 in [-1, 1]
    sample_rate_hz: int = SAMPLE_RATE

    def __post_init__(self):
        object.__setattr__(self, "samples",
                           np.asarray(self.samples, dtype=np.float64))
        if self.sample_rate_hz <= 0:
            raise InvalidSpecError("sample rate must be positive")
        if not np.all(np.isfinite(self.samples)):
            raise InvalidSpecError("samples must be finite")


@dataclass(frozen=True)
class FrameSequence:
    frames: np.ndarray  # (T, FRAME_SAMPLES)

    def __post_init__(self):
        object.__setattr__(self, "frames",
                           np.asarray(self.frames, dtype=np.float64))

    def __len__(self):
        return self.frames.shape[0]


@dataclass(frozen=True)
class Utterance:
    audio: SampleBuffer
    transcript: tuple[str, ...]
    speech_mask: np.ndarray  # bool, one entry per whole frame
    id: str

    def __post_init__(self):
        object.__setattr__(self, "speech_mask",
                           np.asarray(self.speech_mask, dtype=bool))
        n_frames = len(frame_stream(self.audio))
        if len(self.speech_mask) != n_frames:
            raise DimensionError("speech_mask length does not match frames",
                                 len(self.speech_mask), n_frames)


@dataclass(frozen=True)
class CorpusSpec:
    vocab_size: int = 5
    utterance_count: int = 200
    symbols_per_utterance: tuple[int, int] = (2, 4)
    tone_duration_s: tuple[float, float] = (0.10, 0.24)
    gap_duration_s: tuple[float, float] = (0.12, 0.40)
    noise_amplitude: float = 0.005
    seed: int = 7

    def __post_init__(self):
        if self.vocab_size < 2:
            raise InvalidSpecError("vocab_size must be >= 2")
        if self.utterance_count < 1:
            raise InvalidSpecError("utterance_count must be >= 1")
        for name in ("symbols_per_utterance", "tone_duration_s", "gap_duration_s"):
            lo, hi = getattr(self, name)
            if not 0 < lo <= hi < math.inf:
                raise InvalidSpecError(f"{name} range invalid: [{lo}, {hi}]")
        if not 0 <= self.noise_amplitude < math.inf:
            raise InvalidSpecError("noise_amplitude must be finite and >= 0")
        if self.seed < 0:
            raise InvalidSpecError(f"seed must be >= 0, got {self.seed}")
        # the longest utterance the draws allow must fit in one WAV
        n = self.symbols_per_utterance[1]
        if (n * max(1, to_frames(self.tone_duration_s[1]))
                + (n + 1) * max(1, to_frames(self.gap_duration_s[1]))
                > to_frames(MAX_STREAM_S)):
            raise InvalidSpecError(f"an utterance may run past {MAX_STREAM_S}"
                                   " s, the longest stream one WAV holds")


def default_vocab(vocab_size: int) -> list[str]:
    letters = string.ascii_lowercase
    if vocab_size <= len(letters):
        return list(letters[:vocab_size])
    return [f"t{k}" for k in range(vocab_size)]


def parse_vocab(value, source) -> list[str]:
    """A vocabulary as read from JSON: a list of distinct, non-empty tokens
    without whitespace, so each survives a join on spaces and a split.
    Anything else raises FormatError naming ``source``."""
    if not (isinstance(value, list)
            and all(type(t) is str and t.split() == [t] for t in value)
            and len(set(value)) == len(value)):
        raise FormatError(f"{source}: vocab must be a JSON list of distinct, "
                          "non-empty strings without whitespace")
    return value


def symbol_frequency_hz(index: int) -> float:
    return BASE_FREQ_HZ + FREQ_SPACING_HZ * index


# ---------------------------------------------------------------------------
# WAV I/O


def read_wav(path) -> SampleBuffer:
    """Read a RIFF PCM 16-bit mono file; samples scaled by 1/32768."""
    try:
        with wave.open(str(path), "rb") as wf:
            channels = wf.getnchannels()
            width = wf.getsampwidth()
            rate = wf.getframerate()
            raw = wf.readframes(wf.getnframes())
    except (wave.Error, EOFError, RuntimeError) as exc:
        # wave raises a bare RuntimeError for a chunk size past the file end
        raise FormatError(f"{path}: malformed WAV ({exc!r})") from exc
    if channels != 1:
        raise UnsupportedFormatError(f"{path}: expected mono, got {channels} channels")
    if width != 2:
        raise UnsupportedFormatError(f"{path}: expected 16-bit PCM, got {8 * width}-bit")
    if len(raw) % 2:
        raise FormatError(f"{path}: sample data truncated mid-sample")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return SampleBuffer(samples=samples, sample_rate_hz=rate)


def write_wav(path, buf: SampleBuffer) -> None:
    pcm = np.clip(np.round(buf.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(buf.sample_rate_hz)
        wf.writeframes(pcm.tobytes())


# ---------------------------------------------------------------------------
# the frame clock


def frame_stream(buf: SampleBuffer) -> FrameSequence:
    """Chop 16 kHz audio into non-overlapping ``FRAME_SAMPLES`` frames; a
    trailing partial frame is dropped."""
    if buf.sample_rate_hz != SAMPLE_RATE:
        raise UnsupportedFormatError(f"expected {SAMPLE_RATE} Hz audio, got "
                                     f"{buf.sample_rate_hz} Hz")
    n = len(buf.samples) // FRAME_SAMPLES
    return FrameSequence(buf.samples[:n * FRAME_SAMPLES]
                         .reshape(n, FRAME_SAMPLES))


def to_frames(seconds: float) -> int:
    """A duration in seconds as the nearest whole number of frames."""
    frames = seconds / FRAME_DURATION_S  # 1e308 s is inf frames
    if not 0 <= frames < math.inf:
        raise InvalidSpecError(
            f"a duration must be finite and >= 0 s, got {seconds!r}")
    return int(round(frames))


def draw_frames(rng: np.random.Generator, lo_s: float, hi_s: float) -> int:
    """A duration drawn uniformly from [lo_s, hi_s] seconds, in frames (at
    least one)."""
    if lo_s > hi_s:
        raise InvalidSpecError(f"duration range [{lo_s}, {hi_s}] is inverted")
    return max(1, to_frames(rng.uniform(lo_s, hi_s)))


# ---------------------------------------------------------------------------
# synthetic corpus


def gen_synthetic_corpus(spec: CorpusSpec) -> list[Utterance]:
    """Deterministic alternation of silence gaps and pure tones; one tone per
    emitted symbol, white noise over the whole signal."""
    rng = np.random.default_rng(spec.seed)
    vocab = default_vocab(spec.vocab_size)
    utts = []
    for u in range(spec.utterance_count):
        n_sym = int(rng.integers(spec.symbols_per_utterance[0],
                                 spec.symbols_per_utterance[1] + 1))
        pieces: list[np.ndarray] = []
        mask: list[np.ndarray] = []
        transcript: list[str] = []
        for k in range(n_sym + 1):
            gap_frames = draw_frames(rng, *spec.gap_duration_s)
            pieces.append(np.zeros(gap_frames * FRAME_SAMPLES))
            mask.append(np.zeros(gap_frames, dtype=bool))
            if k == n_sym:
                break
            sym = int(rng.integers(0, spec.vocab_size))
            transcript.append(vocab[sym])
            tone_frames = draw_frames(rng, *spec.tone_duration_s)
            n_samp = tone_frames * FRAME_SAMPLES
            t = np.arange(n_samp) / SAMPLE_RATE
            phase = rng.uniform(0.0, 2.0 * np.pi)
            pieces.append(TONE_AMPLITUDE
                          * np.sin(2.0 * np.pi * symbol_frequency_hz(sym) * t + phase))
            mask.append(np.ones(tone_frames, dtype=bool))
        samples = np.concatenate(pieces)
        if spec.noise_amplitude > 0:
            samples = samples + rng.normal(0.0, spec.noise_amplitude, len(samples))
        samples = np.clip(samples, -1.0, 1.0)
        utts.append(Utterance(
            audio=SampleBuffer(samples=samples),
            transcript=tuple(transcript),
            speech_mask=np.concatenate(mask),
            id=f"utt{u:04d}",
        ))
    return utts


# ---------------------------------------------------------------------------
# on-disk corpus: JSON-lines manifest + WAVs + binary masks

_MASK_MAGIC = b"VMSK"


def write_mask(path, mask: np.ndarray) -> None:
    mask = np.asarray(mask, dtype=bool)
    with open(path, "wb") as fh:
        fh.write(_MASK_MAGIC)
        fh.write(struct.pack("<I", len(mask)))
        fh.write(mask.astype(np.uint8).tobytes())


def read_mask(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MASK_MAGIC:
        raise FormatError(f"{path}: bad mask magic {blob[:4]!r}")
    if len(blob) < 8:
        raise FormatError(f"{path}: mask header truncated at "
                          f"{len(blob)} bytes")
    (n,) = struct.unpack_from("<I", blob, 4)
    body = blob[8:]
    if len(body) != n:
        raise FormatError(f"{path}: expected {n} mask bytes, got {len(body)}")
    return np.frombuffer(body, dtype=np.uint8).astype(bool)


def write_corpus(out_dir, utts: list[Utterance], vocab: list[str]) -> Path:
    """Write WAVs, masks, and a JSON-lines manifest; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = out / "manifest.jsonl"
    with open(manifest, "w") as fh:
        for utt in utts:
            wav_path = out / f"{utt.id}.wav"
            mask_path = out / f"{utt.id}.mask"
            write_wav(wav_path, utt.audio)
            write_mask(mask_path, utt.speech_mask)
            fh.write(json.dumps({
                "id": utt.id,
                "wav_path": wav_path.name,
                "transcript": " ".join(utt.transcript),
                "mask_path": mask_path.name,
            }) + "\n")
    (out / "vocab.json").write_text(json.dumps({"vocab": vocab}))
    return manifest


def read_corpus(manifest_path) -> tuple[list[Utterance], list[str]]:
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    utts = []
    with open(manifest_path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                wav_path = base / rec["wav_path"]
                mask_path = base / rec["mask_path"]
                transcript = tuple(rec["transcript"].split())
                utt_id = rec["id"]
            except (json.JSONDecodeError, KeyError, TypeError,
                    AttributeError) as exc:
                raise FormatError(f"{manifest_path}: bad manifest line: "
                                  f"{type(exc).__name__}: {exc}") from exc
            audio, mask = read_wav(wav_path), read_mask(mask_path)
            where = f"{manifest_path}:{lineno}"
            try:
                utts.append(Utterance(audio=audio, transcript=transcript,
                                      speech_mask=mask, id=utt_id))
            except UnsupportedFormatError as exc:
                raise UnsupportedFormatError(
                    f"{where}: {wav_path}: {exc}") from exc
            except DimensionError as exc:
                raise DimensionError(f"{where}: {mask_path}: {exc}") from exc
            if not len(mask):  # nothing to encode, score or align
                raise DataError(f"{where}: {wav_path}: no whole 20 ms frame "
                                f"in {len(audio.samples)} samples")
    if not utts:
        raise DataError(f"{manifest_path}: no utterance in the manifest")
    vocab_file = base / "vocab.json"
    if vocab_file.exists():
        try:
            vocab = parse_vocab(json.loads(vocab_file.read_text())["vocab"],
                                vocab_file)
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise FormatError(f"{vocab_file}: bad vocab file: "
                              f"{type(exc).__name__}: {exc}") from exc
    else:
        vocab = sorted({tok for u in utts for tok in u.transcript})
    return utts, vocab
