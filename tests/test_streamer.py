"""The online state machine against its offline reference, invariants, and
event file I/O."""

import json
import re

import numpy as np
import pytest

import vadasr.autodiff as ad
import vadasr.model
from vadasr.audio import FrameSequence, to_frames
from vadasr.chunking import plan_chunks
from vadasr.decode import BeamConfig, beam_search, greedy_decode
from vadasr.errors import (DataError, DimensionError, InvalidSpecError,
                           UsageError)
from vadasr.model import (ModelDims, ModelParams, PosteriorGrid,
                          encode_features, vad_score_frames)
from vadasr.streamer import (
    END_OF_UTT,
    FINALIZE,
    FORCED,
    ModelDecoder,
    ModelScorer,
    SegmentEvent,
    Streamer,
    StreamerConfig,
    read_events,
    run_offline_reference,
    run_stream,
    validate_events,
    write_events,
)

from oracles import ExternalScores, forward_stages

SMALL = StreamerConfig(vad_threshold=0.5, min_speech_frames=2,
                       min_silence_frames=3, max_chunk_frames=10,
                       splice_frames=2)

DUMMY = np.zeros(320)


# block sizes of the block-equivalence tests; None is the whole stream
BLOCK_SIZES = (1, 2, 5, 7, 100, None)


def blocks(n, size):
    """Consecutive (start, stop) blocks of ``size`` frames over ``n``."""
    size = size or n
    return [(a, min(a + size, n)) for a in range(0, n, size)]


def bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def spans(streamer):
    """Each event's ``(start, end, cause)``, as ``run_offline_reference``
    gives them."""
    return [(ev.start, ev.end, ev.cause) for ev in streamer.events]


def run_online(scores, config):
    s = Streamer(config, ExternalScores(scores), None)
    for _ in scores:
        s.push_frame(DUMMY)
    s.finalize()
    return s


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"vad_threshold": 1.5},
        {"min_speech_frames": 0},
        {"min_silence_frames": 0},
        {"min_speech_frames": 8, "max_chunk_frames": 4},
        {"splice_frames": -1},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidSpecError):
            StreamerConfig(**kwargs)


class TestHandTraces:
    def test_end_of_utterance(self):
        # 5 speech frames then 4 silence: segment [0, 5), flushed when the
        # silence run reaches 3
        scores = [0.9] * 5 + [0.1] * 4
        assert spans(run_online(scores, SMALL)) == [(0, 5, END_OF_UTT)]

    def test_forced_flush_at_capacity(self):
        scores = [0.9] * 25
        assert spans(run_online(scores, SMALL)) == [
            (0, 10, FORCED), (10, 20, FORCED), (20, 25, FINALIZE)]

    def test_short_blip_discarded(self):
        # one speech frame (< min_speech 2) then long silence: no event
        scores = [0.9] + [0.1] * 10
        assert run_online(scores, SMALL).events == []

    def test_no_decoder_keeps_no_frames(self):
        # only a decoder reads the kept encoder rows: without one, the
        # streamer never asks its scorer for them
        class RowlessScores(ExternalScores):
            @property
            def rows(self):
                raise AssertionError("encoder rows read without a decoder")

        s = Streamer(SMALL, RowlessScores([0.9] * 25 + [0.1] * 5), None)
        for _ in range(30):
            s.push_frame(DUMMY)
        s.finalize()
        assert len(s.events) == 3 and not any(ev.text for ev in s.events)

    def test_leading_silence_not_included(self):
        # long leading silence must not inflate the first segment: pure
        # silence windows are discarded, so the span starts at speech onset
        scores = [0.1] * 20 + [0.9] * 5 + [0.1] * 4
        assert spans(run_online(scores, SMALL)) == [(20, 25, END_OF_UTT)]

    def test_trailing_speech_finalized(self):
        scores = [0.9] * 4
        assert spans(run_online(scores, SMALL)) == [(0, 4, FINALIZE)]

    def test_finalize_idempotent(self):
        s = Streamer(SMALL, ExternalScores([0.9] * 4), None)
        for _ in range(4):
            s.push_frame(DUMMY)
        assert s.finalize() is not None
        assert s.finalize() is None
        assert len(s.events) == 1

    def test_internal_silence_bridged(self):
        # a 2-frame dip (< min_silence 3) stays inside one utterance
        scores = [0.9] * 3 + [0.1] * 2 + [0.9] * 3 + [0.1] * 3
        assert [ev.cause for ev in run_online(scores, SMALL).events] == [
            END_OF_UTT]


class TestOfflineEquivalence:
    def test_random_sequences_exact(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 500))
            scores = rng.random(n)
            cfg = StreamerConfig(
                vad_threshold=float(rng.uniform(0.2, 0.8)),
                min_speech_frames=int(rng.integers(1, 8)),
                min_silence_frames=int(rng.integers(1, 10)),
                max_chunk_frames=int(rng.integers(8, 40)),
                splice_frames=int(rng.integers(0, 8)))
            s = run_online(scores, cfg)
            offline = run_offline_reference(scores, cfg)
            assert spans(s) == s.boundaries == offline

    def test_invariants_on_random_corpus(self, rng):
        for _ in range(100):
            scores = rng.random(int(rng.integers(1, 800)))
            s = run_online(scores, SMALL)
            validate_events(s.events, SMALL)
            prev_end = None
            for ev in s.events:
                length = ev.end - ev.start
                assert length >= SMALL.min_speech_frames
                assert length <= (SMALL.max_chunk_frames
                                  + SMALL.min_silence_frames)
                if prev_end is not None:
                    assert ev.start >= prev_end  # no double decoding
                prev_end = ev.end
            # >= min_silence silence between consecutive end-of-utterance
            # flushes (the silence run that closed the first one)
            for a, b in zip(s.events, s.events[1:]):
                if a.cause == END_OF_UTT:
                    assert b.start - a.end >= SMALL.min_silence_frames


def scorer_case(rng, width, n_frames):
    """A perturbed small model and ``n_frames`` random frames, with their
    whole-sequence scores from the taped training path."""
    dims = ModelDims(vocab_size=3, vad_kernel_width=width)
    model = ModelParams.init(["a", "b", "c"], dims, seed=5)
    for t in model.params.values():
        t.data += rng.normal(0.0, 0.1, t.shape)
    frames = rng.normal(0.0, 0.1, size=(n_frames, 320))
    with ad.Tape():
        whole = vad_score_frames(FrameSequence(frames), model).data
    return model, frames, whole


class TestModelScorer:
    def test_frame_by_frame_equals_whole_sequence(self, rng):
        # the README's claim, exactly: every online score, including the
        # first W-1 that see the causal pad, equals the whole-sequence score
        model, frames, whole = scorer_case(rng, 4, 3 * 4 + 2)
        scorer = ModelScorer(model)
        online = np.array([scorer(fr[None], i)[0]
                           for i, fr in enumerate(frames)])
        assert np.array_equal(online, whole)
        assert np.array_equal(bits(online), bits(whole))

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @pytest.mark.parametrize("width", [1, 2, 4, 5])
    def test_blocks_have_whole_sequence_bits(self, rng, width, size):
        # bits, not values: -0.0 == +0.0 would hide a sign flip; a block of
        # one is frame by frame
        model, frames, whole = scorer_case(rng, width, 230)
        scorer = ModelScorer(model)
        online = np.concatenate([scorer(frames[a:b], a)
                                 for a, b in blocks(len(frames), size)])
        assert np.array_equal(bits(online), bits(whole))
        # all the scorer carries is the conv's left context
        assert_carries_left_rows(scorer, model, frames)

    @pytest.mark.parametrize("sizes", [(1,), (7, 1, 100), (300, 2)])
    @pytest.mark.parametrize("width", [1, 2, 4, 5])
    def test_mixed_block_sizes_keep_bits(self, rng, width, sizes):
        # blocks shorter and longer than the left context, in turn
        model, frames, whole = scorer_case(rng, width, 700)
        scorer = ModelScorer(model)
        online, a, i = [], 0, 0
        while a < len(frames):
            b = min(a + sizes[i % len(sizes)], len(frames))
            online.append(scorer(frames[a:b], a))
            assert_carries_left_rows(scorer, model, frames[:b])
            a, i = b, i + 1
        assert np.array_equal(bits(np.concatenate(online)), bits(whole))

    def test_weights_are_a_snapshot(self, rng):
        # a training step updates the parameters in place; a scorer built
        # before it scores as one built on a copy of the old model
        model, frames, _ = scorer_case(rng, 5, 40)
        old = model.copy()
        scorer = ModelScorer(model)
        for n in ModelParams.VAD_BRANCH:
            model.params[n].data += rng.normal(0, 0.1, model.params[n].shape)
        expected = ModelScorer(old)(frames, 0)
        assert np.array_equal(bits(scorer(frames, 0)), bits(expected))
        assert not np.array_equal(ModelScorer(model)(frames, 0), expected)


def assert_carries_left_rows(scorer, model, frames):
    """The scorer's carried state is exactly the last W - 1 encoder rows of
    ``frames``, zeros before the first frame (none at W = 1)."""
    W, d = model.dims.vad_kernel_width, model.dims.d_model
    Z = np.concatenate([np.zeros((W - 1, d)), encode_features(frames, model)])
    assert scorer._left.shape == (W - 1, d)
    assert np.array_equal(bits(scorer._left), bits(Z[len(Z) - (W - 1):]))


def perturbed_stream(seed, width, n_runs=12):
    """A small model with every parameter perturbed, and a stream of
    ``n_runs`` loud and quiet 8-frame runs."""
    rng = np.random.default_rng(seed)
    dims = ModelDims(vocab_size=3, vad_kernel_width=width)
    model = ModelParams.init(["a", "b", "c"], dims, seed=seed)
    for t in model.params.values():
        t.data += rng.normal(0.0, 0.1, t.shape)
    amp = np.repeat(rng.choice([0.01, 0.3], size=n_runs), 8)
    frames = rng.normal(0.0, 1.0, size=(len(amp), 320)) * amp[:, None]
    return model, FrameSequence(frames)


class RecordingDecoder(ModelDecoder):
    """A ModelDecoder that records each call's arguments and text. The
    window is a view valid for the call only, so it records a copy."""

    def __init__(self, model, beam=None):
        super().__init__(model, beam)
        self.calls = []

    def __call__(self, window, span_start, span_len):
        text = super().__call__(window, span_start, span_len)
        self.calls.append((window.copy(), span_start, span_len, text))
        return text


class TestSharedEncoderRows:
    """A decoding streamer keeps its ModelScorer's encoder rows, and decoding
    from them gives the bits that decoding from the frames gives."""

    @pytest.mark.parametrize("width", [4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_and_frames_decode_alike(self, seed, width):
        model, frames = perturbed_stream(seed, width)
        scorer = ModelScorer(model)
        scores, rows = [], []
        for i, fr in enumerate(frames.frames):
            scores.append(scorer(fr[None], i)[0])
            rows.append(scorer.rows[0])
        Z = np.stack(rows)
        T = len(frames)
        for layout in (None, plan_chunks(T, body_len=5, left_len=3,
                                         right_len=2)):
            from_frames = forward_stages(encode_features(frames, model),
                                         model, layout)
            from_rows = forward_stages(Z, model, layout)
            for name, a in from_frames.items():
                assert np.array_equal(ad.value(a),
                                      ad.value(from_rows[name])), name

        # each window that a model-scored stream, pushed frame by frame with
        # forced and end-of-utterance flushes, decodes from its scorer's rows
        # has the stages' outputs and the text of the forward from its frames
        cfg = StreamerConfig(vad_threshold=float(np.median(scores)),
                             min_speech_frames=2, min_silence_frames=3,
                             max_chunk_frames=6, splice_frames=2)
        for beam in (None, BeamConfig(beam_size=3)):
            decoder = RecordingDecoder(model, beam)
            s = Streamer(cfg, ModelScorer(model), decoder)
            for fr in frames.frames:
                s.push_frame(fr)
            s.finalize()
            assert {FORCED, END_OF_UTT} <= {ev.cause for ev in s.events}
            assert any(ev.text for ev in s.events)
            assert len(decoder.calls) == len(s.events)
            for (window, span_start, span_len, text), ev in zip(
                    decoder.calls, s.events):
                assert span_len == ev.end - ev.start
                ws = ev.start - span_start
                x = FrameSequence(frames.frames[ws:ws + len(window)])
                from_frames = forward_stages(encode_features(x, model), model)
                from_rows = forward_stages(window, model)
                for name, a in from_frames.items():
                    assert np.array_equal(bits(ad.value(a)),
                                          bits(ad.value(from_rows[name])))
                grid = PosteriorGrid(
                    log_probs=ad.value(from_frames["log_posteriors"])[
                        span_start:span_start + span_len],
                    vocab=model.vocab)
                assert text == ev.text == (
                    greedy_decode(grid) if beam is None
                    else beam_search(grid, beam)[0].tokens)

    def test_each_streamed_frame_encoded_once(self, monkeypatch):
        model, frames = perturbed_stream(0, 5)
        encoded = []
        encode = vadasr.model.encode_features

        def counting(x, *args, **kwargs):
            out = encode(x, *args, **kwargs)
            encoded.append(len(ad.value(out)))
            return out

        monkeypatch.setattr(vadasr.model, "encode_features", counting)
        cfg = StreamerConfig(min_speech_frames=2, min_silence_frames=3,
                             max_chunk_frames=6, splice_frames=2,
                             vad_threshold=0.5)
        before = model.attention_evals
        streamer = run_stream(model, frames, cfg)
        assert streamer.events
        assert sum(encoded) == len(frames)
        # every decoded window still runs context and cross-task attention
        assert model.attention_evals == before + 2 * len(streamer.events)

    def test_decoder_queries_cover_the_span_only(self, monkeypatch):
        # each decoded window's two attentions (context, cross-task) get the
        # span's rows as queries and every window row as keys and values
        model, frames = perturbed_stream(0, 5)
        shapes = []
        attention = ad.attention

        def spy(q, k, v, n_heads, blocks):
            assert blocks is None  # a decoded window is one block
            shapes.append((len(ad.value(q)), len(ad.value(k))))
            return attention(q, k, v, n_heads, blocks)

        monkeypatch.setattr(ad, "attention", spy)
        scores = vad_score_frames(frames, model).data
        cfg = StreamerConfig(vad_threshold=float(np.median(scores)),
                             min_speech_frames=2, min_silence_frames=3,
                             max_chunk_frames=6, splice_frames=2)
        decoder = RecordingDecoder(model)
        s = Streamer(cfg, ModelScorer(model), decoder)
        before = model.attention_evals
        for fr in frames.frames:
            s.push_frame(fr)
        s.finalize()
        assert {FORCED, END_OF_UTT} <= {ev.cause for ev in s.events}
        assert model.attention_evals == before + 2 * len(s.events)
        expected = [(span_len, len(window))
                    for window, _, span_len, _ in decoder.calls]
        assert shapes == [x for pair in zip(expected, expected) for x in pair]
        assert any(q < k for q, k in shapes)


class TestRowBuffer:
    """A decoding streamer keeps its encoder rows in one buffer that adopts
    whole blocks, takes appends, and moves its live rows to the front of a
    larger one when full; each window it decodes holds the stream's rows."""

    def test_windows_are_the_streams_rows(self):
        rng = np.random.default_rng(2024)
        model, frames = perturbed_stream(0, 5, n_runs=40)
        x = frames.frames
        Z = encode_features(x, model)
        scores = vad_score_frames(frames, model).data
        for _ in range(12):
            threshold = np.quantile(scores, rng.uniform(0.3, 0.7))
            cfg = StreamerConfig(
                vad_threshold=float(threshold),
                min_speech_frames=int(rng.integers(1, 4)),
                min_silence_frames=int(rng.integers(1, 6)),
                max_chunk_frames=int(rng.integers(4, 12)),
                splice_frames=int(rng.integers(0, 6)))
            # some blocks are longer than any window's span plus splice
            longest = (cfg.splice_frames + cfg.max_chunk_frames
                       + cfg.min_silence_frames)
            decoder = RecordingDecoder(model)
            s = Streamer(cfg, ModelScorer(model), decoder)
            a = 0
            while a < len(x):
                b = a + int(rng.integers(1, 2 * longest + 2))
                s.push_frames(x[a:b])
                a = b
            s.finalize()
            assert s.events and len(decoder.calls) == len(s.events)
            assert len(s._rows) <= cfg.splice_frames
            for (window, span_start, span_len, _), ev in zip(decoder.calls,
                                                              s.events):
                ws = ev.start - span_start
                assert ws == max(0, ev.start - cfg.splice_frames)
                assert ev.end <= ws + len(window) <= ev.end + cfg.splice_frames
                assert np.array_equal(bits(window),
                                      bits(Z[ws:ws + len(window)]))


class TestBlockEquivalence:
    """Pushing a stream in blocks gives the events (spans, causes and
    texts) of pushing it one frame at a time."""

    @pytest.mark.parametrize("beam", [None, BeamConfig(beam_size=3)],
                             ids=["greedy", "beam"])
    @pytest.mark.parametrize("external", [False, True],
                             ids=["model", "external"])
    def test_blocks_match_frame_by_frame(self, beam, external):
        model, frames = perturbed_stream(0, 5, n_runs=30)
        x = frames.frames
        scores = vad_score_frames(frames, model).data
        cfg = StreamerConfig(vad_threshold=float(np.median(scores)),
                             min_speech_frames=2, min_silence_frames=3,
                             max_chunk_frames=6, splice_frames=2)

        def streamer():
            # external scores stream boundaries only: a decoder reads a
            # ModelScorer's encoder rows, so ``beam`` does not apply
            if external:
                return Streamer(cfg, ExternalScores(scores), None)
            return Streamer(cfg, ModelScorer(model), ModelDecoder(model, beam))

        ref = streamer()
        for fr in x:
            ref.push_frame(fr)
        ref.finalize()
        assert {FORCED, END_OF_UTT} <= {ev.cause for ev in ref.events}
        assert any(ev.text for ev in ref.events) != external
        for size in BLOCK_SIZES:
            s = streamer()
            returned = []
            for a, b in blocks(len(x), size):
                returned += s.push_frames(x[a:b])
            last = s.finalize()
            assert returned + [last] * (last is not None) == s.events
            assert s.events == ref.events, size
        if not external:
            whole = run_stream(model, frames, cfg, beam)
            assert whole.events == ref.events

    def test_push_frame_calls_the_scorer_once(self):
        calls = []

        def scorer(frames, start):
            calls.append((len(frames), start))
            return np.full(len(frames), 0.9)

        s = Streamer(SMALL, scorer, None)
        for _ in range(3):
            s.push_frame(DUMMY)
        s.push_frames(np.zeros((4, 320)))
        assert calls == [(1, 0), (1, 1), (1, 2), (4, 3)]

    def test_empty_block(self):
        model, _ = perturbed_stream(0, 5)
        for scorer, decoder in ((ExternalScores([]), None),
                                (ModelScorer(model), ModelDecoder(model))):
            s = Streamer(SMALL, scorer, decoder)
            assert s.push_frames(np.zeros((0, 320))) == []
            assert s.finalize() is None
        # a stream shorter than one frame has no frames to push
        empty = FrameSequence(np.zeros((0, 320)))
        assert run_stream(model, empty, SMALL).events == []


class TestScorerFailure:
    def test_wrapped_as_data_error(self):
        s = Streamer(SMALL, ExternalScores([0.9]), None)
        s.push_frame(DUMMY)
        with pytest.raises(DataError, match="frame 1"):
            s.push_frame(DUMMY)  # no score for index 1

    def test_external_block_names_first_frame_without_score(self):
        s = Streamer(SMALL, ExternalScores([0.9] * 5), None)
        s.push_frames(np.zeros((3, 320)))
        with pytest.raises(DataError,
                           match="no external score for frame 5$"):
            s.push_frames(np.zeros((4, 320)))  # frames 3-6, scores for 3-4
        with pytest.raises(DataError,
                           match="no external score for frame 7$"):
            ExternalScores([0.9] * 5)(np.zeros((2, 320)), 7)

    def test_failure_inside_block_names_its_first_frame(self):
        def scorer(frames, start):
            if start <= 5 < start + len(frames):
                raise ValueError("frame 5 is corrupt")
            return np.full(len(frames), 0.9)

        s = Streamer(SMALL, scorer, None)
        s.push_frames(np.zeros((4, 320)))
        with pytest.raises(DataError, match="VAD scorer failed at frame 4: "
                                            "frame 5 is corrupt"):
            s.push_frames(np.zeros((3, 320)))

    def test_wrong_number_of_scores(self):
        s = Streamer(SMALL, lambda frames, start: np.zeros(len(frames) + 1),
                     None)
        with pytest.raises(DataError, match="at frame 0: .* for 2 frames"):
            s.push_frames(np.zeros((2, 320)))


class TestDecoderInputs:
    @pytest.mark.parametrize("beam", [None, BeamConfig(beam_size=3)],
                             ids=["greedy", "beam"])
    def test_nan_posteriors_rejected(self, beam):
        model, frames = perturbed_stream(0, 5)
        model.params["asr_b"].data[1] = np.nan
        rows = encode_features(frames.frames[:6], model)
        with pytest.raises(DataError, match="NaN or \\+inf"):
            ModelDecoder(model, beam)(rows, 1, 4)

    @pytest.mark.parametrize("span_start, span_len", [
        (8, 5), (-3, 4), (12, 3), (4, 0), (-1, 0), (0, 11)],
        ids=["past-the-end", "negative-start", "start-past-the-end",
             "empty", "empty-negative-start", "longer-than-window"])
    def test_span_outside_window_rejected(self, span_start, span_len):
        # a (10, d) window; each span is empty or reaches outside it
        model, frames = perturbed_stream(0, 5)
        window = encode_features(frames.frames[:10], model)
        for beam in (None, BeamConfig(beam_size=3)):
            with pytest.raises(DimensionError, match="span"):
                ModelDecoder(model, beam)(window, span_start, span_len)

    def test_decoder_needs_a_scorer_of_its_model(self):
        # the decoder reads the scorer's encoder rows, so only a ModelScorer
        # of the decoder's own model may feed it
        model, _ = perturbed_stream(0, 5)
        twin, _ = perturbed_stream(0, 5)  # equal weights, another model
        decoder = ModelDecoder(model)
        for scorer in (ExternalScores([0.9] * 5), ModelScorer(twin),
                       lambda frames, start: np.zeros(len(frames))):
            with pytest.raises(UsageError, match="ModelScorer of its model"):
                Streamer(SMALL, scorer, decoder)
        with pytest.raises(UsageError, match="ModelScorer of its model"):
            Streamer(SMALL, ModelScorer(model), lambda *args: ())
        Streamer(SMALL, ModelScorer(model), decoder)


class TestValidateEvents:
    # SMALL: spans of 2 to 10 + 3 frames
    def _ev(self, start, end, cause=END_OF_UTT, text=()):
        return SegmentEvent(start=start, end=end, text=text, cause=cause)

    def test_accepts_valid(self):
        # the bounds are whole frames: a span of exactly 2 or 13, and an
        # event that starts where the previous one ends
        validate_events([self._ev(0, 2), self._ev(2, 15), self._ev(20, 24)],
                        SMALL)

    def test_rejects_overlap(self):
        with pytest.raises(DataError, match="event 1: overlap"):
            validate_events([self._ev(0, 10), self._ev(9, 15)], SMALL)

    def test_rejects_empty_span(self):
        for start, end in ((15, 15), (16, 15)):
            with pytest.raises(DataError,
                               match=f"event 0: span of {end - start} "):
                validate_events([self._ev(start, end)], SMALL)

    def test_rejects_too_short(self):
        with pytest.raises(DataError, match="span of 1 frames, not from "
                                            "minimum speech 2 to"):
            validate_events([self._ev(0, 1)], SMALL)

    def test_rejects_too_long(self):
        with pytest.raises(DataError, match="event 1: span of 14 frames, "
                                            "not from .* capacity 13"):
            validate_events([self._ev(0, 2), self._ev(2, 16)], SMALL)

    def test_rejects_unknown_cause(self):
        # the record checks its cause, so no event list holds a bad one
        with pytest.raises(DataError, match="cause"):
            self._ev(0, 5, cause="mystery")


class TestEventIO:
    EVENTS = [SegmentEvent(0, 25, ("a", "b"), END_OF_UTT),
              SegmentEvent(50, 100, (), FORCED)]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_events(path, self.EVENTS)
        assert path.read_text().splitlines()[0] == (
            '{"start_s": 0.0, "end_s": 0.5, "text": "a b", '
            '"cause": "end-of-utterance"}')
        assert read_events(path) == self.EVENTS

    @pytest.mark.parametrize("seconds, frame", [
        (0.029, 1), (0.031, 2), (0.01, 0), (0.05, 2), (0.07, 4)])
    def test_times_round_to_the_nearest_frame(self, seconds, frame,
                                              tmp_path):
        # as ``to_frames`` rounds: half a frame goes to the even neighbour
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps({"start_s": seconds, "end_s": 1.0,
                                    "text": "", "cause": FORCED}) + "\n")
        assert [(ev.start, ev.end) for ev in read_events(path)] == [
            (to_frames(seconds), 50)] == [(frame, 50)]

    def test_bad_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"start_s": 0.0}\n')
        with pytest.raises(DataError,
                           match=f"^{re.escape(str(path))}:1: bad event line"):
            read_events(path)

    @pytest.mark.parametrize("fields, message", [
        ({"end_s": None}, "bad event line: TypeError"),
        ({"start_s": 0.5, "end_s": 0.2}, "event times must be >= 0, in order"),
        ({"cause": "timeout"}, "event cause must be one of"),
    ], ids=["time-null", "times-reversed", "cause-unknown"])
    def test_error_names_the_line(self, fields, message, tmp_path):
        # a blank line still counts
        path = tmp_path / "bad.jsonl"
        good = self.EVENTS[0].as_dict()
        path.write_text(f"{json.dumps(good)}\n\n"
                        f"{json.dumps({**good, **fields})}\n")
        with pytest.raises(DataError,
                           match=f"^{re.escape(str(path))}:3: {message}"):
            read_events(path)
