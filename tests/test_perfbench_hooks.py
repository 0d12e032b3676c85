"""What the benchmark in ``perfbench/`` relies on in the package: the names
it imports, the names its layer hooks wrap, and the checkpoint sidecar of
its fixture model."""

import ast
import importlib
import os
import sys

import numpy as np
import pytest

from vadasr import autodiff, decode, model, streamer, trainer
from vadasr.audio import (CorpusSpec, FrameSequence, SampleBuffer, Utterance,
                          default_vocab, frame_stream, gen_synthetic_corpus)
from vadasr.metrics import score_events, vad_metrics

from conftest import BLAS_THREAD_VARS, PERFBENCH


def test_layer_hooks_install_and_uninstall(perfbench):
    # install wraps every hooked name at its caller's module or class; a
    # renamed or deleted name fails here with AttributeError
    _, layers, spans, _ = perfbench
    watched = [(trainer, "mtl_loss"), (trainer, "sample_chunk_len"),
               (trainer, "forward"), (model, "encode_features"),
               (streamer.ModelScorer, "__call__"),
               (streamer.ModelDecoder, "__call__"), (autodiff, "backward")]
    originals = [getattr(owner, attr) for owner, attr in watched]
    rec = spans.Recorder()
    try:
        layers.install(rec)
        assert rec.installed
        for (owner, attr), orig in zip(watched, originals):
            assert getattr(owner, attr) is not orig, attr
    finally:
        rec.uninstall()
    for (owner, attr), orig in zip(watched, originals):
        assert getattr(owner, attr) is orig, attr


def traced_model_stream(perfbench, beam=None):
    """A stream of loud and quiet frames through a small model's scorer and
    decoder, pushed a frame at a time with perfbench's layer hooks on; the
    streamer and the recorder."""
    _, layers, spans, _ = perfbench
    rng = np.random.default_rng(0)
    net = model.ModelParams.init(["a", "b", "c"],
                                 model.ModelDims(vocab_size=3), seed=0)
    amp = np.repeat(rng.choice([0.01, 0.3], size=12), 8)
    frames = rng.normal(size=(len(amp), 320)) * amp[:, None]
    scores = model.vad_score_frames(FrameSequence(frames), net).data
    cfg = streamer.StreamerConfig(
        vad_threshold=float(np.median(scores)), min_speech_frames=2,
        min_silence_frames=3, max_chunk_frames=6, splice_frames=2)
    rec = spans.Recorder()
    try:
        layers.install(rec)
        s = streamer.Streamer(cfg, streamer.ModelScorer(net),
                              streamer.ModelDecoder(net, beam))
        for fr in frames:
            s.push_frame(fr)
        s.finalize()
    finally:
        rec.uninstall()
    return s, rec


def test_decoder_hook_counts_decoded_frames(perfbench, monkeypatch):
    # the ModelDecoder hook reads the window at positional argument 1 and
    # span_len at 3: on a traced model-scored stream its counts equal the
    # rows each decoded window ran the network on and the spans' frames
    windows = []
    forward = streamer.forward

    def spy(Z, m, layout=None, span=None):
        windows.append(len(Z))
        return forward(Z, m, layout, span)

    monkeypatch.setattr(streamer, "forward", spy)
    s, rec = traced_model_stream(perfbench)
    assert len(windows) == len(s.events) > 1
    assert rec.by_name()["streamer.ModelDecoder"][0] == len(s.events)
    assert rec.counts["window_frames"] == sum(windows)
    assert rec.counts["span_frames"] == sum(
        ev.end - ev.start for ev in s.events)


def test_beam_hook_counts_decoded_frames(perfbench, monkeypatch):
    # the beam_search hook wraps the name the streamer calls and reads the
    # grid at positional argument 0: on a traced model-scored stream its
    # frames are the spans' frames, and the LM calls it counts are the
    # NgramLM.score calls a spy sees
    lm = decode.train_ngram([("a", "b", "c"), ("c", "a"), ("b", "b")], 3)
    scored = []
    score = decode.NgramLM.score

    def spy(self, history, token):
        scored.append(token)
        return score(self, history, token)

    monkeypatch.setattr(decode.NgramLM, "score", spy)
    s, rec = traced_model_stream(perfbench, decode.BeamConfig(beam_size=4,
                                                              lm=lm))
    assert len(s.events) > 1 and scored
    assert rec.by_name()["decode.beam_search"][0] == len(s.events)
    assert rec.counts["beam_frames"] == sum(
        ev.end - ev.start for ev in s.events)
    assert rec.counts["lm_scores"] == len(scored)


def test_stream_checks_pass_on_a_model_scored_stream(perfbench):
    # the benchmark's checks of a stream: a second pass repeats the first
    # pass's events and boundaries; the first pass's events pass
    # validate_events, their boundaries equal run_offline_reference's, and
    # its quality, from segments_to_mask over the events, is score_events'
    fixture, _, _, workloads = perfbench
    dev = gen_synthetic_corpus(CorpusSpec(utterance_count=3, seed=8))
    samples, ref_mask, ref_tokens = trainer.build_dev_stream(dev, seed=1)
    inp = workloads.StreamInputs(
        fixture.load_fixture(), frame_stream(SampleBuffer(samples)).frames,
        ref_mask, ref_tokens, streamer.StreamerConfig(max_chunk_frames=50),
        None, 0.0)
    clock = workloads.RefClock()
    passes = [workloads.stream_pass(inp, i, clock) for i in range(2)]
    for p in passes:
        workloads.check_stream_pass(inp, p, passes[0])
    events = passes[0].streamer.events
    assert {ev.cause for ev in events} >= {streamer.FORCED,
                                           streamer.END_OF_UTT}
    err, vad = score_events(ref_tokens, ref_mask, events)
    assert workloads.stream_quality(inp, passes[1]) == {"cer": err.rate,
                                                        "deter": vad.deter}
    hyp_mask = np.zeros(len(ref_mask), dtype=bool)
    for ev in events:
        hyp_mask[ev.start:ev.end] = True
    assert vad == vad_metrics(ref_mask, hyp_mask)


def test_training_hook_counts_planned_chunks(perfbench, monkeypatch):
    # the plan_chunks hook reads each layout's chunks, their windows and
    # total_T: on a traced epoch its counts equal those of the layouts the
    # trainer planned. The encoder hook wraps vadasr.model.encode_features,
    # and the forward hook reads the model at positional argument 1: every
    # frame is encoded once through the wrapped name, and each utterance's
    # forward attends twice. The losses.ctc_loss span is one call per step
    # (its per-layer time is a step's), and run.py reconciles one
    # autodiff.backward per utterance minus skips: the epoch runs two steps,
    # and one utterance's transcript is far longer than its audio
    _, layers, spans, _ = perfbench
    layouts = []
    plan = trainer.plan_chunks

    def spy(*args):
        layouts.append(plan(*args))
        return layouts[-1]

    monkeypatch.setattr(trainer, "plan_chunks", spy)
    corpus = gen_synthetic_corpus(CorpusSpec(utterance_count=4, seed=3))
    corpus[2] = Utterance(audio=corpus[2].audio, transcript=("a",) * 500,
                          speech_mask=corpus[2].speech_mask, id="long")
    net = model.ModelParams.init(default_vocab(5), seed=0)
    rec = spans.Recorder()
    try:
        layers.install(rec)
        _, report = trainer.train_stage2_mtl(net, corpus, trainer.TrainConfig(
            stage="mtl", epochs=1, batch_size=2, chunk_min_s=0.5,
            chunk_max_s=0.5))
    finally:
        rec.uninstall()
    chunks = [ch for layout in layouts for ch in layout.chunks]
    assert len(layouts) == len(corpus) and len(chunks) > len(corpus)
    assert rec.counts["chunks"] == len(chunks)
    assert rec.counts["chunk_window_frames"] == sum(
        w1 - w0 for w0, w1 in (ch.window for ch in chunks))
    assert rec.counts["chunk_body_frames"] == sum(
        b1 - b0 for b0, b1 in (ch.body for ch in chunks))
    assert rec.counts["encoded_frames"] == sum(
        len(frame_stream(u.audio)) for u in corpus)
    assert rec.counts["attention_evals"] == 2 * len(corpus)
    calls = {name: row[0] for name, row in rec.by_name().items()}
    assert report.skipped_infeasible == 1
    assert calls["losses.ctc_loss"] == 2
    assert calls["autodiff.backward"] == len(corpus) - 1


@pytest.fixture
def blas_env_probe():
    """Sets the BLAS thread variables, one of them unset, before the
    ``perfbench`` fixture runs, and checks after its teardown that each
    reads as it was set."""
    probe = dict(zip(BLAS_THREAD_VARS, ("3", None, "2")))
    with pytest.MonkeyPatch.context() as mp:
        for name, value in probe.items():
            if value is None:
                mp.delenv(name, raising=False)
            else:
                mp.setenv(name, value)
        yield
        after = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    assert after == probe


def test_perfbench_restores_blas_env(blas_env_probe, perfbench):
    # the probe is set up before ``perfbench`` and torn down after it
    assert [os.environ[name] for name in BLAS_THREAD_VARS] == ["1"] * 3


def test_fixture_sidecar_bytes(perfbench, tmp_path):
    fixture = perfbench[0]
    fixture.load_fixture().save(tmp_path / "m.ckpt")
    assert (tmp_path / "m.ckpt.json").read_bytes() == (
        b'{"vocab": ["a", "b", "c", "d", "e"], "dims": {"vocab_size": 5, '
        b'"d_model": 32, "n_heads": 2, "conv1_channels": 16, "ffn_dim": 64, '
        b'"vad_kernel_width": 5}}')


def _vadasr_name(module: str, name: str):
    """``name`` as ``from module import name`` finds it, or None."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ImportError:
        return None


def test_perfbench_package_names_resolve():
    # perfbench imports some names inside functions (the fixture's training
    # recipe, run's environment report), which no other test runs; every
    # ``from vadasr... import`` name, and every attribute read off an
    # imported vadasr module, must exist
    checked, missing = set(), []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        modules = {}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "vadasr"):
                for alias in node.names:
                    found = _vadasr_name(node.module, alias.name)
                    checked.add((node.module, alias.name))
                    if found is None:
                        missing.append(f"{path.name}: {node.module}."
                                       f"{alias.name}")
                    elif isinstance(found, type(sys)):
                        modules[alias.asname or alias.name] = found
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                mod = modules[node.value.id]
                checked.add((mod.__name__, node.attr))
                if not hasattr(mod, node.attr):
                    missing.append(f"{path.name}: {mod.__name__}.{node.attr}")
    assert not missing
    assert {("vadasr.trainer", "train_stage1_asr"),
            ("vadasr.trainer", "build_dev_stream")} <= checked
