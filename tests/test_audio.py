"""WAV round trips, framing rules, and the synthetic corpus generator."""

import numpy as np
import pytest

from vadasr.audio import (
    FRAME_DURATION_S,
    FRAME_SAMPLES,
    SAMPLE_RATE,
    CorpusSpec,
    SampleBuffer,
    Utterance,
    default_vocab,
    draw_frames,
    frame_stream,
    gen_synthetic_corpus,
    read_corpus,
    read_mask,
    read_wav,
    symbol_frequency_hz,
    to_frames,
    write_corpus,
    write_mask,
    write_wav,
)
from vadasr.errors import (
    DataError,
    DimensionError,
    FormatError,
    InvalidSpecError,
    UnsupportedFormatError,
)


class TestWav:
    def test_round_trip(self, rng, tmp_path):
        samples = rng.uniform(-0.9, 0.9, 1600)
        path = tmp_path / "x.wav"
        write_wav(path, SampleBuffer(samples))
        back = read_wav(path)
        assert back.sample_rate_hz == SAMPLE_RATE
        # 16-bit quantization error only
        assert np.max(np.abs(back.samples - samples)) < 1.0 / 32768

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"RIFFgarbage")
        with pytest.raises(FormatError):
            read_wav(path)

    def test_stereo_rejected(self, tmp_path):
        import wave

        path = tmp_path / "st.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(2)
            wf.setsampwidth(2)
            wf.setframerate(16000)
            wf.writeframes(b"\x00" * 64)
        with pytest.raises(UnsupportedFormatError):
            read_wav(path)

    def test_8bit_rejected(self, tmp_path):
        import wave

        path = tmp_path / "w8.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(1)
            wf.setframerate(16000)
            wf.writeframes(b"\x80" * 64)
        with pytest.raises(UnsupportedFormatError):
            read_wav(path)


class TestFraming:
    def test_partial_trailing_frame_dropped(self):
        buf = SampleBuffer(np.zeros(320 * 3 + 17))
        frames = frame_stream(buf)
        assert len(frames) == 3
        assert frames.frames.shape == (3, 320)

    def test_exact_multiple(self):
        frames = frame_stream(SampleBuffer(np.zeros(320 * 5)))
        assert len(frames) == 5

    def test_shorter_than_one_frame(self):
        frames = frame_stream(SampleBuffer(np.zeros(100)))
        assert len(frames) == 0

    @pytest.mark.parametrize("rate", [8000, 16001, 44100])
    def test_only_16khz(self, rate):
        with pytest.raises(UnsupportedFormatError, match=f"got {rate} Hz"):
            frame_stream(SampleBuffer(np.zeros(2 * rate), sample_rate_hz=rate))


class TestFrameClock:
    def test_constants(self):
        assert (SAMPLE_RATE, FRAME_SAMPLES) == (16000, 320)
        assert FRAME_DURATION_S == 0.02

    @pytest.mark.parametrize("seconds, frames", [
        (0.0, 0), (0.009, 0), (0.011, 1), (0.1, 5), (0.5, 25), (0.64, 32),
        (3.0, 150)])
    def test_to_frames_rounds_to_nearest(self, seconds, frames):
        assert to_frames(seconds) == frames

    @pytest.mark.parametrize("seconds", [
        float("nan"), float("inf"), float("-inf"), -1e-9, -5.0, 1.7e308])
    def test_to_frames_rejects(self, seconds):
        with pytest.raises(InvalidSpecError):
            to_frames(seconds)

    def test_draw_frames_is_the_inline_rule(self):
        # the same draws, in the same order, as the expression it replaced
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        for lo, hi in [(0.12, 0.40), (0.10, 0.24), (0.5, 3.0), (0.0, 0.01)]:
            for _ in range(100):
                assert draw_frames(a, lo, hi) == max(
                    1, int(round(b.uniform(lo, hi) / 0.02)))

    def test_draw_frames_inverted_range(self, rng):
        with pytest.raises(InvalidSpecError):
            draw_frames(rng, 2.0, 1.0)


class TestUtterance:
    def test_mask_has_one_entry_per_whole_frame(self):
        audio = SampleBuffer(np.zeros(500))  # one frame and a 180-sample tail
        assert len(Utterance(audio, ("a",), [True], "u").speech_mask) == 1
        with pytest.raises(DimensionError):
            Utterance(audio, ("a",), [True, False], "u")

    def test_other_rate_rejected(self):
        with pytest.raises(UnsupportedFormatError):
            Utterance(SampleBuffer(np.zeros(320), sample_rate_hz=8000),
                      ("a",), [True], "u")


class TestCorpusSpec:
    def test_defaults_valid(self):
        CorpusSpec()

    @pytest.mark.parametrize("kwargs", [
        {"vocab_size": 1},
        {"utterance_count": 0},
        {"tone_duration_s": (0.2, 0.1)},
        {"gap_duration_s": (0.0, 0.1)},
        {"noise_amplitude": -0.1},
        {"noise_amplitude": float("nan")},
        {"tone_duration_s": (0.1, float("inf"))},
        {"gap_duration_s": (float("nan"), 0.4)},
        # the longest utterance the draws allow must fit in one WAV
        {"gap_duration_s": (0.1, 1e300)},
        {"symbols_per_utterance": (2, 10 ** 11)},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidSpecError):
            CorpusSpec(**kwargs)

    def test_longest_utterance_fits_one_wav(self):
        # n one-frame tones and n + 1 one-frame gaps, against the 6710886
        # frames one WAV holds
        one = (0.02, 0.02)
        CorpusSpec(symbols_per_utterance=(1, 3355442), tone_duration_s=one,
                   gap_duration_s=one)
        with pytest.raises(InvalidSpecError, match="WAV"):
            CorpusSpec(symbols_per_utterance=(1, 3355443),
                       tone_duration_s=one, gap_duration_s=one)


class TestSyntheticCorpus:
    def test_deterministic(self):
        a = gen_synthetic_corpus(CorpusSpec(utterance_count=3, seed=11))
        b = gen_synthetic_corpus(CorpusSpec(utterance_count=3, seed=11))
        for ua, ub in zip(a, b):
            assert ua.transcript == ub.transcript
            assert np.array_equal(ua.audio.samples, ub.audio.samples)
            assert np.array_equal(ua.speech_mask, ub.speech_mask)

    def test_mask_matches_energy(self):
        # frames flagged as speech carry tone energy; silence frames do not
        utts = gen_synthetic_corpus(CorpusSpec(utterance_count=5, seed=3))
        for utt in utts:
            frames = frame_stream(utt.audio)
            rms = np.sqrt((frames.frames ** 2).mean(axis=1))
            mask = utt.speech_mask[:len(frames)]
            assert rms[mask].min() > 0.1
            assert rms[~mask].max() < 0.05

    def test_transcript_lengths_in_range(self):
        spec = CorpusSpec(utterance_count=20, symbols_per_utterance=(2, 4),
                          seed=5)
        for utt in gen_synthetic_corpus(spec):
            assert 2 <= len(utt.transcript) <= 4
            assert all(t in default_vocab(5) for t in utt.transcript)

    def test_samples_clipped(self):
        utts = gen_synthetic_corpus(CorpusSpec(utterance_count=2, seed=1,
                                               noise_amplitude=0.3))
        for utt in utts:
            assert np.max(np.abs(utt.audio.samples)) <= 1.0

    def test_distinct_frequencies(self):
        assert symbol_frequency_hz(0) == 400.0
        freqs = [symbol_frequency_hz(i) for i in range(5)]
        assert len(set(freqs)) == 5


class TestMaskIO:
    def test_round_trip(self, rng, tmp_path):
        mask = rng.random(97) > 0.5
        path = tmp_path / "m.mask"
        write_mask(path, mask)
        assert np.array_equal(read_mask(path), mask)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mask"
        path.write_bytes(b"XXXX\x00\x00\x00\x00")
        with pytest.raises(FormatError):
            read_mask(path)

    def test_truncated(self, rng, tmp_path):
        path = tmp_path / "m.mask"
        write_mask(path, rng.random(50) > 0.5)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError):
            read_mask(path)


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        utts = gen_synthetic_corpus(CorpusSpec(utterance_count=3, seed=2))
        vocab = default_vocab(5)
        manifest = write_corpus(tmp_path / "corpus", utts, vocab)
        back, vocab_back = read_corpus(manifest)
        assert vocab_back == vocab
        assert [u.id for u in back] == [u.id for u in utts]
        for ua, ub in zip(utts, back):
            assert ua.transcript == ub.transcript
            assert np.array_equal(ua.speech_mask, ub.speech_mask)
            assert np.max(np.abs(ua.audio.samples - ub.audio.samples)) < 1e-4

    @pytest.mark.parametrize("n_samples", [0, FRAME_SAMPLES - 1])
    def test_utterance_without_a_whole_frame_rejected(self, tmp_path,
                                                      n_samples):
        utts = gen_synthetic_corpus(CorpusSpec(utterance_count=2, seed=2))
        short = Utterance(audio=SampleBuffer(np.zeros(n_samples)),
                          transcript=("a",), speech_mask=np.zeros(0), id="s")
        manifest = write_corpus(tmp_path / "c", [*utts, short],
                                default_vocab(5))
        with pytest.raises(DataError, match=f"manifest.jsonl:3: .*s.wav: no "
                                            f"whole .* in {n_samples} samples"):
            read_corpus(manifest)

    def test_empty_manifest_rejected(self, tmp_path):
        manifest = write_corpus(tmp_path / "c", [], default_vocab(5))
        with pytest.raises(DataError, match="manifest.jsonl: no utterance"):
            read_corpus(manifest)

    def test_bad_manifest_line(self, tmp_path):
        utts = gen_synthetic_corpus(CorpusSpec(utterance_count=1, seed=2))
        manifest = write_corpus(tmp_path / "c", utts, default_vocab(5))
        with open(manifest, "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(FormatError):
            read_corpus(manifest)
