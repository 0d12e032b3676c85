"""Optimizer behavior, schedule shape, and short deterministic training runs."""

import ast
import hashlib
import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

import vadasr.autodiff as ad
import vadasr.model as model_module
import vadasr.streamer as streamer_module
import vadasr.trainer as trainer
from vadasr.audio import (CorpusSpec, SampleBuffer, Utterance, default_vocab,
                          frame_stream, gen_synthetic_corpus, to_frames)
from vadasr.chunking import plan_chunks, sample_chunk_len
from vadasr.decode import BeamConfig, greedy_decode, train_ngram
from vadasr.errors import DataError, NumericError
from vadasr.losses import ctc_loss, mtl_loss
from vadasr.metrics import corpus_error_rate, vad_metrics
from vadasr.model import ModelParams, forward, vad_score_frames
from vadasr.streamer import (ModelDecoder, ModelScorer, Streamer,
                             StreamerConfig, run_stream)
from vadasr.trainer import (
    Adam,
    TrainConfig,
    build_dev_stream,
    clip_gradients,
    evaluate,
    train,
    tri_stage_lr,
)


@pytest.fixture(scope="module")
def tiny_corpus():
    return gen_synthetic_corpus(CorpusSpec(utterance_count=6, seed=21))


class TestSchedule:
    def test_starts_at_zero(self):
        assert tri_stage_lr(0, 100, 1e-3) == 0.0

    def test_peak_during_hold(self):
        # warmup 10, hold 40, decay 50
        for step in (10, 30, 49):
            assert tri_stage_lr(step, 100, 1e-3) == pytest.approx(1e-3)

    def test_linear_warmup(self):
        assert tri_stage_lr(5, 100, 1e-3) == pytest.approx(5e-4)

    def test_decays_to_zero(self):
        assert tri_stage_lr(100, 100, 1e-3) == pytest.approx(0.0)
        assert tri_stage_lr(75, 100, 1e-3) == pytest.approx(5e-4)


class TestAdam:
    def test_zero_gradient_is_noop(self):
        p = np.ones(3)
        Adam(3).step(p, np.zeros(3), lr=0.1)
        assert np.array_equal(p, np.ones(3))

    def test_quadratic_bowl_converges(self):
        # minimize 0.5 * ||x - 3||^2
        x = np.zeros(4)
        opt = Adam(4)
        for _ in range(5000):
            g = x - 3.0
            opt.step(x, g, lr=0.01)
            if np.max(np.abs(g)) < 1e-6:
                break
        assert np.allclose(x, 3.0, atol=1e-5)

    def test_clip_gradients_scales_global_norm(self):
        grad = np.concatenate([np.full(4, 3.0), np.full(4, 4.0)])
        clip_gradients(grad, (grad[:4], grad[4:]), max_norm=5.0)
        assert np.sqrt((grad ** 2).sum()) == pytest.approx(5.0)
        # direction preserved
        assert grad[0] / grad[4] == pytest.approx(0.75)

    def test_clip_noop_below_threshold(self):
        grad = np.ones(2)
        clip_gradients(grad, (grad,), max_norm=100.0)
        assert np.array_equal(grad, np.ones(2))


class TestConfig:
    def test_bad_stage(self):
        with pytest.raises(DataError):
            TrainConfig(stage="pretrain")

    @pytest.mark.parametrize("kwargs", [
        {"splice_s": float("nan")}, {"splice_s": float("inf")},
        {"splice_s": -1.0}, {"chunk_min_s": float("nan")},
        {"chunk_min_s": 0.0}, {"chunk_min_s": -1.0},
        {"chunk_min_s": 2.0, "chunk_max_s": 1.0},
        {"chunk_max_s": float("inf")}, {"chunk_max_s": float("nan")},
        {"chunk_max_s": 1.7e308}, {"splice_s": 1.7e308},  # inf frames
    ], ids=str)
    def test_bad_durations_rejected(self, kwargs):
        with pytest.raises(DataError):
            TrainConfig(stage="mtl", **kwargs)

    @pytest.mark.parametrize("weight", [-1.0, float("nan"), float("inf")],
                             ids=str)
    def test_bad_vad_weight_rejected(self, weight):
        # a NaN weight would reach Adam.step as NaN gradients
        with pytest.raises(DataError, match="vad_weight"):
            TrainConfig(stage="mtl", vad_weight=weight)

    def test_zero_splice_allowed(self):
        assert TrainConfig(stage="mtl", splice_s=0.0).splice_s == 0.0

    def test_negative_seed_rejected(self):
        # numpy's generators take no negative seed
        with pytest.raises(DataError, match="seed"):
            TrainConfig(seed=-1)


class TestEntryPoint:
    def test_stage_names_are_train(self):
        # perfbench times these names: they cannot grow a second path
        assert trainer.train_stage1_asr is trainer.train_stage2_mtl is train

    def test_public_functions_have_callers(self):
        # every public function of the trainer is named in src/ or
        # perfbench/ beyond its own definition, so no dead wrapper stays
        root = Path(__file__).resolve().parents[1]
        source = root / "src" / "vadasr" / "trainer.py"
        public = {node.name for node in ast.parse(source.read_text()).body
                  if isinstance(node, ast.FunctionDef)
                  and not node.name.startswith("_")}
        assert {"train", "evaluate", "build_dev_stream"} <= public
        used = set()
        for path in [*(root / "src" / "vadasr").glob("*.py"),
                     *(root / "perfbench").glob("*.py")]:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    used.update(alias.name for alias in node.names)
        assert not public - used, f"no caller: {sorted(public - used)}"


class TestTraining:
    def test_deterministic(self, tiny_corpus):
        runs = []
        for _ in range(2):
            model = ModelParams.init(default_vocab(5), seed=1)
            m, rep = train(model, tiny_corpus,
                           TrainConfig(stage="asr_only", epochs=2, seed=5))
            runs.append((m, rep))
        assert runs[0][1].ctc_curve == runs[1][1].ctc_curve
        for k in runs[0][0].params:
            assert np.array_equal(runs[0][0].params[k].data,
                                  runs[1][0].params[k].data)

    def test_input_model_untouched(self, tiny_corpus):
        model = ModelParams.init(default_vocab(5), seed=1)
        before = {k: v.data.copy() for k, v in model.params.items()}
        train(model, tiny_corpus,
              TrainConfig(stage="asr_only", epochs=1, seed=0))
        for k, v in before.items():
            assert np.array_equal(model.params[k].data, v)

    @pytest.mark.parametrize("stage", ["asr_only", "vad_only"])
    def test_trained_parameters_are_views_of_one_vector(self, tiny_corpus,
                                                        monkeypatch, stage):
        # at every step, each trained tensor's data lies in the vector Adam
        # updates, and the views tile it; the frozen tensors do not
        model = ModelParams.init(default_vocab(5), seed=1)
        trained = (ModelParams.VAD_BRANCH if stage == "vad_only"
                   else list(model.params))
        steps = []

        def checked_step(opt, flat, grad, lr):
            for name, t in model.params.items():
                assert np.shares_memory(t.data, flat) == (name in trained)
            assert np.array_equal(flat, np.concatenate(
                [model.params[n].data.ravel() for n in trained]))
            steps.append(flat.size)
            return adam_step(opt, flat, grad, lr)

        adam_step = Adam.step
        monkeypatch.setattr(Adam, "step", checked_step)
        trainer._run_training(model, tiny_corpus,
                              TrainConfig(stage=stage, epochs=1, seed=0))
        assert steps == [sum(model.params[n].size for n in trained)] * 2

    def test_non_finite_gradient_names_parameter_and_step(self, tiny_corpus,
                                                          monkeypatch):
        # a NaN in one parameter's gradient at the fifth backward call, which
        # falls in the second batch of four
        calls = []

        def nan_backward(tape, loss):
            grads = backward(tape, loss)
            calls.append(loss)
            if len(calls) == 5:
                t = next(t for t in grads if t.name == "vad_fc_w")
                grads[t] = grads[t] + np.nan
            return grads

        backward = ad.backward
        monkeypatch.setattr(ad, "backward", nan_backward)
        with pytest.raises(NumericError,
                           match=r"'vad_fc_w' at step 2 of 4$"):
            train(ModelParams.init(default_vocab(5), seed=1), tiny_corpus,
                  TrainConfig(stage="mtl", epochs=2, seed=0, batch_size=4))

    def test_input_config_untouched(self, tiny_corpus):
        model = ModelParams.init(default_vocab(5), seed=1)
        config = TrainConfig(stage="asr_only", epochs=1, seed=0,
                             vad_weight=0.7)
        train(model, tiny_corpus, config)
        assert config == TrainConfig(stage="asr_only", epochs=1, seed=0,
                                     vad_weight=0.7)

    def test_loss_decreases(self, tiny_corpus):
        model = ModelParams.init(default_vocab(5), seed=1)
        _, rep = train(model, tiny_corpus,
                       TrainConfig(stage="asr_only", epochs=6, seed=0))
        assert rep.ctc_curve[-1] < rep.ctc_curve[0]

    def test_vad_stl_trains_only_vad_branch(self, tiny_corpus):
        cfg = TrainConfig(stage="vad_only", epochs=2, seed=4)
        fresh = ModelParams.init(default_vocab(5), seed=4)
        model, rep = train(fresh, tiny_corpus, cfg)
        for name in model.params:
            same = np.array_equal(model.params[name].data,
                                  fresh.params[name].data)
            if name in ModelParams.VAD_BRANCH:
                assert not same, f"{name} should have trained"
            else:
                assert same, f"{name} should be frozen"
        assert rep.param_count == sum(
            fresh.params[n].size for n in ModelParams.VAD_BRANCH)

    def test_vad_total_curve_is_ce_curve(self, tiny_corpus):
        # the VAD-only stage minimises unweighted BCE, whatever vad_weight
        cfg = TrainConfig(stage="vad_only", epochs=2, seed=4, vad_weight=2.0)
        _, rep = train(ModelParams.init(default_vocab(5), seed=4),
                       tiny_corpus, cfg)
        assert rep.total_curve == rep.ce_curve
        assert rep.ctc_curve == [0.0, 0.0]

    @pytest.mark.parametrize("stage,per_utt", [("asr_only", 0), ("mtl", 1)])
    def test_joint_node_only_in_mtl(self, tiny_corpus, monkeypatch, stage,
                                    per_utt):
        # stage 1 differentiates the CTC node and builds no joint node
        calls = []

        def counting_mtl_loss(*args):
            calls.append(args)
            return mtl_loss(*args)

        monkeypatch.setattr(trainer, "mtl_loss", counting_mtl_loss)
        train(ModelParams.init(default_vocab(5), seed=1), tiny_corpus[:3],
              TrainConfig(stage=stage, epochs=1, seed=0))
        assert len(calls) == 3 * per_utt

    @pytest.mark.parametrize("stage,per_step", [("asr_only", 0), ("mtl", 1),
                                                ("vad_only", 0)])
    def test_chunk_len_drawn_per_step_in_mtl_only(self, tiny_corpus,
                                                  monkeypatch, stage,
                                                  per_step):
        draws = []

        def counting_sample_chunk_len(*args):
            draws.append(args)
            return sample_chunk_len(*args)

        monkeypatch.setattr(trainer, "sample_chunk_len",
                            counting_sample_chunk_len)
        cfg = TrainConfig(stage=stage, epochs=2, seed=0, batch_size=4)
        train(ModelParams.init(default_vocab(5), seed=1), tiny_corpus, cfg)
        steps = 2 * math.ceil(len(tiny_corpus) / 4)
        assert len(draws) == steps * per_step

    def test_infeasible_utterances_skipped(self):
        # stage-2 chunking cannot make a whole utterance infeasible (layouts
        # cover everything), so force it with an absurdly long transcript
        utts = gen_synthetic_corpus(CorpusSpec(utterance_count=2, seed=3))
        bad = utts[0]
        long_ref = ("a",) * 500
        from vadasr.audio import Utterance
        bad = Utterance(audio=bad.audio, transcript=long_ref,
                        speech_mask=bad.speech_mask, id="bad")
        model = ModelParams.init(default_vocab(5), seed=1)
        _, rep = train(model, [bad, utts[1]],
                       TrainConfig(stage="asr_only", epochs=2, seed=0))
        assert rep.skipped_infeasible == 2  # once per epoch

    def test_wall_clock_survives_clock_steps(self, tiny_corpus, monkeypatch):
        # a system clock set back mid-run must not give a negative duration
        clock = itertools.count(1e9, -3600.0)
        monkeypatch.setattr(time, "time", lambda: next(clock))
        model = ModelParams.init(default_vocab(5), seed=1)
        _, rep = train(model, tiny_corpus[:2],
                       TrainConfig(stage="asr_only", epochs=1, seed=0))
        assert rep.wall_clock_s >= 0.0

    @pytest.mark.parametrize("stage", ["mtl", "vad_only"])
    def test_frames_each_utterance_once(self, tiny_corpus, monkeypatch, stage):
        calls = []

        def counting_frame_stream(audio):
            calls.append(audio)
            return frame_stream(audio)

        monkeypatch.setattr(trainer, "frame_stream", counting_frame_stream)
        cfg = TrainConfig(stage=stage, epochs=2, seed=0)
        train(ModelParams.init(default_vocab(5), seed=1), tiny_corpus, cfg)
        assert len(calls) == 2 * len(tiny_corpus)


# One stage-2 epoch from the benchmark fixture: the sha256 of the trained
# parameters' bytes (sorted by name) and the epoch's total loss, recorded
# when a chunked context block became one layer over the utterance's rows
# (its gradients sum the chunk windows' terms in another order).
STAGE2_EPOCH_PARAMS_SHA256 = ("f39f8f633a4047a73eb9a030e7514323"
                              "10977bf896a1e0e1c1fa63e963775070")
STAGE2_EPOCH_TOTAL_LOSS = 0.5592670779094441
# Two epochs of stage 1 and of the VAD-only stage on the 12 utterances of
# the seed-21 corpus, recorded before training ran on one parameter vector.
ASR_ONLY_PARAMS_SHA256 = ("bade8d93b6d8380b6fe461de77d83a4f"
                          "77c07cec8756da597ee7cf8ad5022de6")
ASR_ONLY_TOTAL_CURVE = [79.6816301047846, 8.305772398076863]
VAD_ONLY_PARAMS_SHA256 = ("c6646e89787ff0ca87e72ff1c08af48b"
                          "94f9c48dbf5379a7abb0e889a425e9bc")
VAD_ONLY_TOTAL_CURVE = [0.7859392678917362, 0.42920520936150974]


def params_sha256(model):
    """The sha256 of the parameters' bytes, sorted by name."""
    digest = hashlib.sha256()
    for name in sorted(model.params):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(model.params[name].data,
                                           dtype="<f8").tobytes())
    return digest.hexdigest()


class TestSameBits:
    def test_stage2_epoch_from_fixture(self, perfbench):
        """One stage-2 epoch from ``perfbench/fixture_mtl.npz`` at run seed
        1, on the first 40 utterances of the seed-7 corpus, ends at pinned
        parameter bytes and a pinned first ``total_curve`` entry, so a
        change to the tape, the primitives or the losses that is meant to
        keep every bit is checked here. Like ``FIXTURE_SHA256``, the values
        pin this machine's numpy (2.4.6) and one BLAS thread (the products
        here are too small for BLAS to split): another numpy or BLAS may
        round differently, and then the values are re-recorded from a
        commit known to be good, never loosened."""
        fixture = perfbench[0]
        corpus = gen_synthetic_corpus(CorpusSpec(utterance_count=40, seed=7))
        model, rep = train(
            fixture.load_fixture(), corpus,
            TrainConfig(stage="mtl", epochs=1, learning_rate=2e-3,
                        batch_size=4, seed=1, vad_weight=2.0))
        assert rep.total_curve[0] == STAGE2_EPOCH_TOTAL_LOSS
        assert params_sha256(model) == STAGE2_EPOCH_PARAMS_SHA256

    def test_asr_only_epochs(self):
        corpus = gen_synthetic_corpus(CorpusSpec(utterance_count=12, seed=21))
        model, rep = train(
            ModelParams.init(default_vocab(5), seed=1), corpus,
            TrainConfig(stage="asr_only", epochs=2, seed=0))
        assert rep.total_curve == ASR_ONLY_TOTAL_CURVE
        assert params_sha256(model) == ASR_ONLY_PARAMS_SHA256

    def test_vad_only_epochs(self):
        corpus = gen_synthetic_corpus(CorpusSpec(utterance_count=12, seed=21))
        model, rep = train(
            ModelParams.init(default_vocab(5), seed=4), corpus,
            TrainConfig(stage="vad_only", epochs=2, seed=4))
        assert rep.total_curve == VAD_ONLY_TOTAL_CURVE
        assert params_sha256(model) == VAD_ONLY_PARAMS_SHA256

    def test_mtl_tape_size(self):
        # each _mha call is five nodes (three projections, attention, output
        # projection), the encoder one and the VAD head two, and a chunked
        # context block is one layer at any chunk count; a refactor that
        # expands the tape again fails here
        utt = gen_synthetic_corpus(CorpusSpec(utterance_count=1, seed=3))[0]
        frames = frame_stream(utt.audio)
        layout = plan_chunks(len(frames), 50, 25, 25)
        assert (len(frames), len(layout.chunks)) == (98, 2)
        config = TrainConfig(stage="mtl")
        with ad.Tape() as tape:
            grid, probs = trainer._forward(
                ModelParams.init(default_vocab(5), seed=0), frames, config,
                layout)
            trainer._loss(probs, utt, config,
                          ctc_loss([grid], [utt.transcript])[0])
        assert len(tape) == 27

    def test_asr_only_tape_reaches_all_but_the_vad_probability(self):
        # stage 1 differentiates CTC alone: it records no BCE node, and
        # backward skips only the speech-probability node
        utt = gen_synthetic_corpus(CorpusSpec(utterance_count=1, seed=3))[0]
        config = TrainConfig()
        with ad.Tape() as tape:
            grid, probs = trainer._forward(
                ModelParams.init(default_vocab(5), seed=0),
                frame_stream(utt.audio), config, None)
            node, _, ce = trainer._loss(
                probs, utt, config, ctc_loss([grid], [utt.transcript])[0])
        reached = []

        def counted(i, vjp):
            return lambda g: (reached.append(i), vjp(g))[1]

        tape._nodes = [(out, parents, counted(i, vjp))
                       for i, (out, parents, vjp) in enumerate(tape._nodes)]
        ad.backward(tape, node)
        assert ce > 0
        assert (len(tape), len(tape) - len(reached)) == (24, 1)


# The benchmark fixture's outputs on perfbench's dev stream (the 50
# utterances of the seed-8 corpus joined at gap seed 1, 7424 frames): the
# sha256 of each event list's (start, end, cause, text) by ASR chunk
# capacity and decoder, and of segmented ``evaluate``'s report on the
# corpus, recorded before ``forward`` took encoder rows.
SAME_EVENTS_SHA256 = {
    ("greedy", 0.64): ("4e0ec1fa380c21d231c6394849cf78a3"
                       "2445d1ee3f568f73544c30d490597073"),
    ("greedy", 1.0): ("89346eed100e10db4fe9cbc144174a1b"
                      "6ec9a5e1c068d9abce1d142e9be0268f"),
    ("greedy", 3.0): ("6bd89cbfe99a2869b4dd969a34f1db9d"
                      "d00715310399b95a912397523e4c741b"),
    # every utterance is shorter than 3 s, so 5 s flushes as 3 s does
    ("greedy", 5.0): ("6bd89cbfe99a2869b4dd969a34f1db9d"
                      "d00715310399b95a912397523e4c741b"),
    ("beam 20 + LM", 1.0): ("b9f337062f773cffa4af252f65e94dcd"
                            "af2b1f743f45b2bdf8be72e9f528b6a9"),
}
# the sha256 of every hypothesis ``beam_search`` returns on that beam-20 + LM
# stream's events, recorded before the search skipped the frames and beams
# whose extensions cannot make the cut
SAME_HYPOTHESES_SHA256 = ("59c757e22c643161db4ecd3da2d1ac37"
                          "e0445b54c70a4c8bd46b3b6ffb90edf2")
SEGMENTED_REPORT_SHA256 = ("6b54281a32659373347ab8cc6ee2e9c6"
                           "70247ad4790d5c2e7fe5ce0de75107a3")


def events_sha256(events):
    return hashlib.sha256(repr([(ev.start, ev.end, ev.cause, ev.text)
                                for ev in events]).encode()).hexdigest()


def capacity(seconds):
    return StreamerConfig(max_chunk_frames=to_frames(seconds))


@pytest.fixture(scope="module")
def bench_dev():
    """perfbench's dev corpus and its stream's frames."""
    dev = gen_synthetic_corpus(CorpusSpec(utterance_count=50, seed=8))
    return dev, frame_stream(SampleBuffer(build_dev_stream(dev, seed=1)[0]))


class TestSameEvents:
    """Streaming and segmented decoding of the benchmark fixture end at
    pinned events and a pinned report, so a change meant to keep every
    event is checked here. Like ``TestSameBits``, the values pin this
    machine's numpy and BLAS; they are re-recorded from a commit known to
    be good, never loosened."""

    @pytest.mark.parametrize("capacity_s", [0.64, 1.0, 3.0, 5.0])
    def test_greedy_events(self, perfbench, bench_dev, capacity_s):
        frames = bench_dev[1]
        assert len(frames) == 7424
        streamer = run_stream(perfbench[0].load_fixture(), frames,
                              capacity(capacity_s))
        assert (events_sha256(streamer.events)
                == SAME_EVENTS_SHA256["greedy", capacity_s])

    @pytest.fixture(scope="class")
    def beam_lm(self):
        """perfbench's stream-beam-lm decoder: its 4-gram LM is trained on
        the 200 transcripts of the seed-7 corpus."""
        train = gen_synthetic_corpus(CorpusSpec(utterance_count=200, seed=7))
        return BeamConfig(beam_size=20, lm_weight=0.46, word_score=0.52,
                          lm=train_ngram([u.transcript for u in train], 4))

    def test_beam_with_lm_events(self, perfbench, bench_dev, beam_lm):
        streamer = run_stream(perfbench[0].load_fixture(), bench_dev[1],
                              capacity(1.0), beam_lm)
        assert (events_sha256(streamer.events)
                == SAME_EVENTS_SHA256["beam 20 + LM", 1.0])

    def test_beam_with_lm_hypotheses(self, perfbench, bench_dev, beam_lm,
                                     monkeypatch):
        # every hypothesis of every search, not only each event's best
        # text: its tokens and the exact bits of its three scores
        results = []
        search = streamer_module.beam_search

        def spy(grid, config):
            results.append(search(grid, config))
            return results[-1]

        monkeypatch.setattr(streamer_module, "beam_search", spy)
        run_stream(perfbench[0].load_fixture(), bench_dev[1], capacity(1.0),
                   beam_lm)
        hyps = [[(h.tokens, h.score.hex(), h.ctc_score.hex(),
                  h.lm_score.hex()) for h in hs] for hs in results]
        assert len(results) > 1
        assert (hashlib.sha256(repr(hyps).encode()).hexdigest()
                == SAME_HYPOTHESES_SHA256)

    def test_frame_by_frame_events(self, perfbench, bench_dev):
        # pushed a frame at a time, as perfbench pushes them, the 3.0 s
        # capacity gives the events it gives in one block
        net = perfbench[0].load_fixture()
        streamer = Streamer(capacity(3.0), ModelScorer(net),
                            ModelDecoder(net))
        for frame in bench_dev[1].frames:
            streamer.push_frame(frame)
        streamer.finalize()
        assert (events_sha256(streamer.events)
                == SAME_EVENTS_SHA256["greedy", 3.0])

    def test_segmented_report(self, perfbench, bench_dev):
        rep = evaluate(perfbench[0].load_fixture(), bench_dev[0],
                       mode="segmented")
        assert hashlib.sha256(repr(sorted(rep.items())).encode()
                              ).hexdigest() == SEGMENTED_REPORT_SHA256


class TestDevStream:
    def test_concatenation_bookkeeping(self, tiny_corpus):
        samples, mask, ref = build_dev_stream(tiny_corpus, seed=9)
        window = 320
        assert len(samples) == len(mask) * window
        assert sum(len(u.transcript) for u in tiny_corpus) == len(ref)
        assert mask.sum() == sum(u.speech_mask.sum() for u in tiny_corpus)

    @pytest.mark.parametrize("seed,noise", [(9, 0.005), (101, 0.005),
                                            (9, 0.0)])
    def test_matches_concatenation_reference(self, tiny_corpus, seed, noise):
        samples, mask, ref = build_dev_stream(tiny_corpus, seed=seed,
                                              noise_amplitude=noise)
        r_samples, r_mask, r_ref = _dev_stream_by_concatenation(
            tiny_corpus, seed, noise_amplitude=noise)
        assert np.array_equal(samples, r_samples)
        assert np.array_equal(mask, r_mask)
        assert ref == r_ref

    def test_partial_tail_frame_dropped(self, tiny_corpus):
        # a 500-sample utterance is one whole frame; its 180-sample tail
        # must not shift what follows off its mask
        short = Utterance(SampleBuffer(np.full(500, 0.25)), ("a",), [True],
                          "short")
        corpus = [short, *tiny_corpus[:2]]
        samples, mask, ref = build_dev_stream(corpus, seed=9)
        assert len(samples) == len(mask) * 320
        assert len(frame_stream(SampleBuffer(samples))) == len(mask)
        r_samples, r_mask, _ = _dev_stream_by_concatenation(corpus, 9)
        assert np.array_equal(samples, r_samples)
        assert np.array_equal(mask, r_mask)

    def test_deterministic(self, tiny_corpus):
        a = build_dev_stream(tiny_corpus, seed=9)[0]
        b = build_dev_stream(tiny_corpus, seed=9)[0]
        assert np.array_equal(a, b)


def _dev_stream_by_concatenation(corpus, seed, gap_range_s=(0.5, 2.0),
                                 noise_amplitude=0.005):
    """Reference: every piece kept in a list, then concatenated."""
    rng = np.random.default_rng(seed)
    pieces, masks, ref = [], [], []

    def gap():
        g = max(1, int(round(rng.uniform(*gap_range_s) / 0.02)))
        pieces.append(rng.normal(0.0, noise_amplitude, g * 320)
                      if noise_amplitude > 0 else np.zeros(g * 320))
        masks.append(np.zeros(g, dtype=bool))

    gap()
    for utt in corpus:
        pieces.append(utt.audio.samples[:len(utt.speech_mask) * 320])
        masks.append(utt.speech_mask)
        ref.extend(utt.transcript)
        gap()
    return np.concatenate(pieces), np.concatenate(masks), tuple(ref)


class TestEvaluate:
    def test_segmented_keys(self, tiny_corpus):
        model = ModelParams.init(default_vocab(5), seed=1)
        rep = evaluate(model, tiny_corpus, mode="segmented")
        for key in ("cer", "sub", "del", "ins", "deter", "fa", "miss"):
            assert key in rep
        assert rep["cer"] == pytest.approx(
            rep["sub"] + rep["del"] + rep["ins"])

    def test_segmented_encodes_each_utterance_once(self, perfbench,
                                                   tiny_corpus, monkeypatch):
        # the VAD decisions come from the speech probabilities of the
        # forward that decodes each utterance, which are the bits of
        # ``vad_score_frames``: the report is the one that scores each
        # utterance twice
        net = perfbench[0].load_fixture()
        encode, calls = model_module.encode_features, []

        def counted(*args, **kwargs):
            calls.append(args)
            return encode(*args, **kwargs)

        monkeypatch.setattr(model_module, "encode_features", counted)
        rep = evaluate(net, tiny_corpus, mode="segmented")
        assert len(calls) == len(tiny_corpus)
        pairs = [(u.transcript, greedy_decode(forward(
                      model_module.encode_features(frame_stream(u.audio), net),
                      net)[0]))
                 for u in tiny_corpus]
        vr = vad_metrics(
            np.concatenate([u.speech_mask for u in tiny_corpus]),
            np.concatenate([vad_score_frames(frame_stream(u.audio), net).data
                            >= 0.5 for u in tiny_corpus]))
        assert rep == {**corpus_error_rate(pairs).as_dict(),
                       "deter": vr.deter, "fa": vr.fa, "miss": vr.miss,
                       "n_utts": len(tiny_corpus)}

    @pytest.mark.parametrize("seed", range(12))
    def test_segmented_deter_is_fa_plus_miss(self, seed):
        # exact, as the streaming report and ``vad_metrics`` give it
        corpus = gen_synthetic_corpus(CorpusSpec(utterance_count=4, seed=100))
        model = ModelParams.init(default_vocab(5), seed=seed)
        rep = evaluate(model, corpus, mode="segmented")
        assert rep["deter"] == rep["fa"] + rep["miss"]

    def test_vad_baseline_report_is_vad_metrics(self, tiny_corpus):
        # the ASR head is untrained, so no dev CER is reported
        model, rep = train(
            ModelParams.init(default_vocab(5), seed=0), tiny_corpus[:2],
            TrainConfig(stage="vad_only", epochs=1), dev_corpus=tiny_corpus)
        hyp = np.concatenate([
            vad_score_frames(frame_stream(u.audio), model).data >= 0.5
            for u in tiny_corpus])
        ref = np.concatenate([u.speech_mask for u in tiny_corpus])
        vr = vad_metrics(ref, hyp)
        assert rep.final_dev_vad == {"deter": vr.deter, "fa": vr.fa,
                                     "miss": vr.miss}
        assert rep.final_dev_cer is None

    def test_streaming_deter_is_segment_coverage(self, monkeypatch):
        # streaming deter scores event spans against the reference mask: a
        # pause inside an utterance that one event bridges counts as false
        # alarm, even when every frame's VAD decision is right
        import vadasr.streamer as streamer

        class PerfectScorer(streamer.ModelScorer):
            # frame energy gives the reference mask here; the model's rows
            # still feed the decoder
            def __call__(self, frames, start):
                super().__call__(frames, start)
                return (np.sqrt(np.mean(frames ** 2, axis=1)) > 0.1) * 1.0

        monkeypatch.setattr(streamer, "ModelScorer", PerfectScorer)
        pieces = [(10, False), (20, True), (12, False), (20, True),
                  (10, False)]  # the 12-frame pause is below min silence
        t = np.arange(320) / 16000.0
        tone = 0.5 * np.sin(2.0 * np.pi * 400.0 * t)
        samples = np.concatenate([np.tile(tone if speech else 0.0 * tone, n)
                                  for n, speech in pieces])
        mask = np.concatenate([np.full(n, speech) for n, speech in pieces])
        utt = Utterance(audio=SampleBuffer(samples), transcript=("a",),
                        speech_mask=mask, id="u")
        model = ModelParams.init(default_vocab(5), seed=1)
        rep = evaluate(model, [utt], mode="streaming")
        n_frames = len(build_dev_stream([utt])[1])
        assert rep["n_events"] == 1
        assert rep["miss"] == 0.0
        assert rep["fa"] == 12 / n_frames
        assert rep["deter"] == rep["fa"]

    def test_streaming_keys(self, tiny_corpus):
        model = ModelParams.init(default_vocab(5), seed=1)
        rep = evaluate(model, tiny_corpus[:2], mode="streaming", l_asr_s=1.0)
        assert "n_events" in rep and "events" in rep
        assert rep["deter"] == rep["fa"] + rep["miss"]

    def test_empty_corpus(self):
        model = ModelParams.init(default_vocab(5), seed=1)
        with pytest.raises(DataError):
            evaluate(model, [], mode="segmented")

    def test_unknown_mode(self, tiny_corpus):
        model = ModelParams.init(default_vocab(5), seed=1)
        with pytest.raises(DataError):
            evaluate(model, tiny_corpus, mode="oracle")
