"""Subcommand smoke tests, config-file precedence, posterior-file format,
and exit codes."""

import dataclasses
import json
import re
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import vadasr.autodiff as ad
from vadasr.audio import (MAX_STREAM_S, CorpusSpec, SampleBuffer,
                          default_vocab, gen_synthetic_corpus, write_corpus,
                          write_mask, write_wav)
from vadasr.cli import _STREAM, _streamer_config, load_external_posteriors, main
from vadasr.decode import train_ngram
from vadasr.errors import FormatError
from vadasr.model import ModelParams, PosteriorGrid
from vadasr.trainer import TrainReport

from oracles import save_posteriors


def run_cli(*args):
    return main(list(args))


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    utts = gen_synthetic_corpus(CorpusSpec(utterance_count=4, seed=13))
    manifest = write_corpus(root, utts, default_vocab(5))
    return root, manifest, utts


@pytest.fixture(scope="module")
def model_ckpt(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "m.ckpt"
    ModelParams.init(default_vocab(5), seed=2).save(path)
    return path


# Each builder writes one malformed input under ``tmp`` and returns the
# command line that reads it.

def _manifest_line(tmp, corpus_dir, **fields):
    root, manifest, _ = corpus_dir
    rec = json.loads(manifest.read_text().splitlines()[0])
    rec["wav_path"] = str(root / rec["wav_path"])
    rec["mask_path"] = str(root / rec["mask_path"])
    rec.update(fields)
    rec = {k: v for k, v in rec.items() if v is not None}
    path = tmp / "manifest.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    return ["train", "--corpus", str(path), "--out", str(tmp / "o.ckpt")]


def _no_mask_path(tmp, corpus_dir, model_ckpt):
    return _manifest_line(tmp, corpus_dir, mask_path=None)


def _short_mask(tmp, corpus_dir, model_ckpt):
    (tmp / "short.mask").write_bytes(b"VMSK\x01")
    return _manifest_line(tmp, corpus_dir, mask_path=str(tmp / "short.mask"))


def _bad_vocab_file(tmp, corpus_dir, model_ckpt):
    argv = _manifest_line(tmp, corpus_dir)
    (tmp / "vocab.json").write_text("{bad")
    return argv


def _sub_frame_manifest(tmp, corpus_dir):
    # 319 samples: no whole 20 ms frame, so a 0-entry mask matches them
    write_wav(tmp / "short.wav", SampleBuffer(np.zeros(319)))
    write_mask(tmp / "short.mask", np.zeros(0, dtype=bool))
    return _manifest_line(tmp, corpus_dir, wav_path=str(tmp / "short.wav"),
                          mask_path=str(tmp / "short.mask"))


def _sub_frame_train_corpus(tmp, corpus_dir, model_ckpt):
    return _sub_frame_manifest(tmp, corpus_dir) + ["--epochs", "1"]


def _sub_frame_dev_manifest(tmp, corpus_dir, model_ckpt):
    _sub_frame_manifest(tmp, corpus_dir)
    return ["train", "--corpus", str(corpus_dir[1]), "--epochs", "1",
            "--dev-manifest", str(tmp / "manifest.jsonl"),
            "--out", str(tmp / "o.ckpt")]


def _empty_train_corpus(tmp, corpus_dir, model_ckpt):
    # a vocab.json beside the manifest is all a model needs to be built
    (tmp / "manifest.jsonl").write_text("\n")
    (tmp / "vocab.json").write_text(json.dumps({"vocab": default_vocab(5)}))
    return ["train", "--corpus", str(tmp / "manifest.jsonl"), "--epochs", "1",
            "--out", str(tmp / "o.ckpt")]


def _empty_dev_manifest(tmp, corpus_dir, model_ckpt):
    (tmp / "manifest.jsonl").write_text("")
    return ["train", "--corpus", str(corpus_dir[1]), "--epochs", "1",
            "--dev-manifest", str(tmp / "manifest.jsonl"),
            "--out", str(tmp / "o.ckpt")]


def _train_flags(*flags):
    # a None flag value stands for the test checkpoint
    def build(tmp, corpus_dir, model_ckpt):
        return ["train", "--corpus", str(corpus_dir[1]), "--epochs", "1",
                "--out", str(tmp / "o.ckpt"),
                *(str(model_ckpt) if f is None else f for f in flags)]
    return build


def _string_for_int(tmp, corpus_dir, model_ckpt):
    (tmp / "cfg.json").write_text(json.dumps({"beam_size": "20"}))
    return ["decode-posteriors", "--posteriors", str(tmp / "p.bin"),
            "--config", str(tmp / "cfg.json")]


def _vad_weight_for_vad_stage(tmp, corpus_dir, model_ckpt):
    # only stage mtl has a joint loss to weight
    (tmp / "cfg.json").write_text(json.dumps({"stage": "vad",
                                              "vad_weight": 3.0}))
    return ["train", "--corpus", str(corpus_dir[1]),
            "--out", str(tmp / "o.ckpt"), "--config", str(tmp / "cfg.json")]


def _checkpoint_sidecar_not_json(tmp, corpus_dir, model_ckpt):
    (tmp / "m.ckpt").write_bytes(model_ckpt.read_bytes())
    (tmp / "m.ckpt.json").write_text("{bad")
    return ["segment", "--model", str(tmp / "m.ckpt"),
            "--wav", str(tmp / "x.wav")]


def _checkpoint_dims(**dims):
    def build(tmp, corpus_dir, model_ckpt):
        (tmp / "m.ckpt").write_bytes(model_ckpt.read_bytes())
        meta = json.loads(Path(str(model_ckpt) + ".json").read_text())
        meta["dims"].update(dims)
        (tmp / "m.ckpt.json").write_text(json.dumps(meta))
        return ["segment", "--model", str(tmp / "m.ckpt"),
                "--wav", str(tmp / "x.wav")]
    return build


def _checkpoint_vocab(vocab):
    # a real WAV, so a checkpoint read as valid goes on to decode and print
    def build(tmp, corpus_dir, model_ckpt):
        (tmp / "m.ckpt").write_bytes(model_ckpt.read_bytes())
        meta = json.loads(Path(str(model_ckpt) + ".json").read_text())
        meta["vocab"] = vocab
        (tmp / "m.ckpt.json").write_text(json.dumps(meta))
        return ["transcribe", "--greedy", "--model", str(tmp / "m.ckpt"),
                "--wav", str(corpus_dir[0] / "utt0000.wav")]
    return build


def _vocab_file(vocab):
    def build(tmp, corpus_dir, model_ckpt):
        argv = _manifest_line(tmp, corpus_dir)
        (tmp / "vocab.json").write_text(json.dumps({"vocab": vocab}))
        return argv
    return build


def _checkpoint(blob):
    def build(tmp, corpus_dir, model_ckpt):
        (tmp / "m.ckpt").write_bytes(blob)
        (tmp / "m.ckpt.json").write_text(
            Path(str(model_ckpt) + ".json").read_text())
        return ["segment", "--model", str(tmp / "m.ckpt"),
                "--wav", str(tmp / "x.wav")]
    return build


def _nan_weight_checkpoint(tmp, corpus_dir, model_ckpt):
    model = ModelParams.load(model_ckpt)
    model.params["asr_w"].data[0, 0] = np.nan
    model.save(tmp / "m.ckpt")
    return ["transcribe", "--model", str(tmp / "m.ckpt"),
            "--wav", str(corpus_dir[0] / "utt0000.wav")]


def _wav(corrupt):
    def build(tmp, corpus_dir, model_ckpt):
        wav = corpus_dir[0] / "utt0000.wav"
        (tmp / "x.wav").write_bytes(corrupt(wav.read_bytes()))
        return ["segment", "--model", str(model_ckpt),
                "--wav", str(tmp / "x.wav")]
    return build


def _posteriors(tmp, blob=None, sidecar=None, lm=None):
    path = tmp / "p.bin"
    save_posteriors(path, PosteriorGrid(
        log_probs=ad.Tensor(np.log(np.full((3, 3), 1 / 3))),
        vocab=["a", "b"]))
    if blob is not None:
        path.write_bytes(blob)
    if sidecar is not None:
        Path(str(path) + ".json").write_text(sidecar)
    argv = ["decode-posteriors", "--posteriors", str(path)]
    if lm is not None:
        (tmp / "lm.json").write_bytes(lm)
        argv += ["--lm-path", str(tmp / "lm.json")]
    return argv


def _blank_index(value):
    return lambda tmp, *_: [*_posteriors(
        tmp, sidecar='{"vocab": ["a", "b"], "blank_index": %s}' % value),
        "--greedy"]


def _lm_for_transcribe(lm):
    def build(tmp, corpus_dir, model_ckpt):
        (tmp / "lm.json").write_text(json.dumps(lm))
        return ["transcribe", "--model", str(model_ckpt), "--wav",
                str(corpus_dir[0] / "utt0000.wav"), "--lm-path",
                str(tmp / "lm.json")]
    return build


_LM_COUNTS = {tok: 2 for tok in default_vocab(5)}


def _nan_row_posteriors(tmp, *_):
    argv = _posteriors(tmp)
    lp = np.log(np.full((3, 3), 1 / 3))
    lp[1] = np.nan
    save_posteriors(tmp / "p.bin", PosteriorGrid(
        log_probs=ad.Tensor(lp), vocab=["a", "b"]))
    return argv


def _event_line(line):
    def build(tmp, corpus_dir, model_ckpt):
        (tmp / "ev.jsonl").write_text(line + "\n")
        return ["score", "--events", "--ref", str(tmp / "ev.jsonl"),
                "--hyp", str(tmp / "ev.jsonl")]
    return build


_EVENT = {"start_s": 0.0, "end_s": 1.0, "cause": "end-of-utterance"}

MALFORMED_INPUTS = [
    ("manifest-no-mask-path", _no_mask_path, 2),
    ("mask-5-bytes", _short_mask, 2),
    ("vocab-file-not-json", _bad_vocab_file, 2),
    ("train-corpus-sub-frame-utterance", _sub_frame_train_corpus, 2),
    ("dev-manifest-sub-frame-utterance", _sub_frame_dev_manifest, 2),
    ("train-corpus-empty-manifest", _empty_train_corpus, 2),
    ("dev-manifest-empty", _empty_dev_manifest, 2),
    ("config-string-for-int", _string_for_int, 1),
    ("config-vad-weight-for-vad-stage", _vad_weight_for_vad_stage, 1),
    # numpy's generators take no negative seed
    ("train-asr-negative-seed", _train_flags("--stage", "asr", "--seed", "-1"),
     1),
    ("train-vad-negative-seed", _train_flags("--stage", "vad", "--seed", "-1"),
     1),
    ("train-mtl-init-negative-seed", _train_flags(
        "--stage", "mtl", "--init", None, "--seed", "-2"), 1),
    ("gen-corpus-negative-seed",
     lambda tmp, *_: ["gen-corpus", "--out", str(tmp / "c"), "--seed", "-1"],
     1),
    ("checkpoint-sidecar-not-json", _checkpoint_sidecar_not_json, 2),
    # the shape check reads no more than the checkpoint holds, so a huge
    # d_model fails as cheaply as a small one
    ("checkpoint-sidecar-huge-d-model", _checkpoint_dims(d_model=100_000), 2),
    ("checkpoint-sidecar-zero-heads", _checkpoint_dims(n_heads=0), 2),
    ("checkpoint-4-bytes", _checkpoint(b"TNSR"), 2),
    ("checkpoint-name-not-utf8",
     _checkpoint(b"TNSR" + struct.pack("<IH", 1, 1) + b"\xff"), 2),
    ("checkpoint-dims-overflow-int64",
     _checkpoint(b"TNSR" + struct.pack("<IH", 1, 1) + b"a"
                 + struct.pack("<B3I", 3, 2 ** 24, 2 ** 28, 2701131776)), 2),
    ("checkpoint-nan-weight", _nan_weight_checkpoint, 2),
    ("wav-odd-data-length", _wav(lambda b: b[:-1]), 2),
    ("wav-chunk-past-end", _wav(lambda b: b[:32] + b[33:]), 2),
    ("posterior-sidecar-not-json",
     lambda tmp, *_: _posteriors(tmp, sidecar="{bad"), 2),
    ("posterior-4-bytes", lambda tmp, *_: _posteriors(tmp, blob=b"VAP1"), 2),
    ("posterior-nan-row", _nan_row_posteriors, 2),
    ("event-text-not-string",
     _event_line(json.dumps({**_EVENT, "text": 5})), 2),
    ("event-line-not-object", _event_line("[1]"), 2),
    ("event-end-nan",
     _event_line(json.dumps({**_EVENT, "text": "a", "end_s": float("nan")})),
     2),
    ("event-end-infinity",
     _event_line(json.dumps({**_EVENT, "text": "a", "end_s": float("inf")})),
     2),
    ("event-start-negative",
     _event_line(json.dumps({**_EVENT, "text": "a", "start_s": -0.5})), 2),
    ("event-end-before-start",
     _event_line(json.dumps({**_EVENT, "text": "a", "start_s": 2.0})), 2),
    # event times are JSON numbers: not bools, not strings
    ("event-start-bool",
     _event_line(json.dumps({**_EVENT, "text": "a", "start_s": True})), 2),
    ("event-end-string",
     _event_line(json.dumps({**_EVENT, "text": "a", "end_s": "0.5"})), 2),
    ("event-end-int-past-float",
     _event_line(json.dumps({**_EVENT, "text": "a"}).replace(
         '"end_s": 1.0', '"end_s": 1' + "0" * 400)), 2),
    # a cause is one of the three the streamer emits
    ("event-cause-number",
     _event_line(json.dumps({**_EVENT, "text": "a", "cause": 5})), 2),
    ("event-cause-unknown",
     _event_line(json.dumps({**_EVENT, "text": "a", "cause": "timeout"})), 2),
    ("lm-counts-not-object",
     lambda tmp, *_: _posteriors(tmp, lm=b'{"order":2,"counts":[1]}'), 2),
    ("lm-not-utf8", lambda tmp, *_: _posteriors(tmp, lm=b'{"\xff'), 2),
    # a vocabulary is a JSON list of distinct, non-empty strings without
    # whitespace
    ("checkpoint-sidecar-numeric-vocab", _checkpoint_vocab([1, 2, 3, 4, 5]),
     2),
    ("checkpoint-sidecar-string-vocab", _checkpoint_vocab("abcde"), 2),
    ("posterior-sidecar-numeric-vocab", lambda tmp, *_: _posteriors(
        tmp, sidecar='{"vocab": [1, 2], "blank_index": 2}'), 2),
    ("posterior-sidecar-string-vocab", lambda tmp, *_: _posteriors(
        tmp, sidecar='{"vocab": "ab", "blank_index": 2}'), 2),
    # blank_index is a JSON int
    ("posterior-sidecar-fractional-blank-index", _blank_index("2.9"), 2),
    ("posterior-sidecar-float-blank-index", _blank_index("2.0"), 2),
    ("posterior-sidecar-string-blank-index", _blank_index('"2"'), 2),
    # the blank is the grid's last column: only the loader checks the
    # sidecar's blank_index, since a grid derives its own
    ("posterior-sidecar-blank-not-last", _blank_index("0"), 2),
    ("vocab-file-string", _vocab_file("abcde"), 2),
    ("vocab-file-repeated-token", _vocab_file([*default_vocab(5), "a"]), 2),
    ("vocab-file-empty-token", _vocab_file([*default_vocab(5), ""]), 2),
    ("vocab-file-token-with-space", _vocab_file([*default_vocab(5), "f g"]),
     2),
    # an LM file's order is an int >= 1 and each count a positive int
    ("lm-order-zero", _lm_for_transcribe({"order": 0, "counts": _LM_COUNTS}),
     2),
    ("lm-negative-count", _lm_for_transcribe(
        {"order": 2, "counts": {**_LM_COUNTS, "a b": -3}}), 2),
    ("lm-fractional-count", _lm_for_transcribe(
        {"order": 1, "counts": {**_LM_COUNTS, "a": 1.5}}), 2),
    # scoring would pad each history to order - 1 tokens
    ("lm-order-past-longest-gram",
     _lm_for_transcribe({"order": 10 ** 15, "counts": _LM_COUNTS}), 2),
]


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli("gen-corpus", "--frobnicate") == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert run_cli("gen-corpus") == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, capsys):
        assert run_cli("decode-posteriors",
                       "--posteriors", "/nonexistent/p.bin") == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "build, code", [case[1:] for case in MALFORMED_INPUTS],
        ids=[case[0] for case in MALFORMED_INPUTS])
    def test_malformed_input(self, build, code, tmp_path, corpus_dir,
                             model_ckpt, capsys):
        assert run_cli(*build(tmp_path, corpus_dir, model_ckpt)) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "o.ckpt").exists()

    @pytest.mark.parametrize("build", [_sub_frame_train_corpus,
                                       _sub_frame_dev_manifest],
                             ids=["train-corpus", "dev-manifest"])
    def test_sub_frame_utterance_named_before_training(
            self, build, tmp_path, corpus_dir, model_ckpt, capsys):
        # the corpus reader names the manifest line; training never starts
        assert run_cli(*build(tmp_path, corpus_dir, model_ckpt)) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {tmp_path / 'manifest.jsonl'}:1: ")

    @pytest.mark.parametrize("build", [_empty_train_corpus,
                                       _empty_dev_manifest],
                             ids=["train-corpus", "dev-manifest"])
    def test_empty_manifest_named_before_training(
            self, build, tmp_path, corpus_dir, model_ckpt, capsys):
        assert run_cli(*build(tmp_path, corpus_dir, model_ckpt)) == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'manifest.jsonl'}: no utterance in the "
            f"manifest\n")

    @pytest.mark.parametrize("flags", [
        ["train", "--epochs", "0"], ["train", "--epochs", "-2"],
        ["train", "--lr", "0"], ["train", "--lr", "-0.001"],
        ["train", "--lr", "nan"],
        ["transcribe", "--lm-weight", "nan"],
        ["transcribe", "--word-score", "inf"],
        ["transcribe", "--beam-size", "0"],
        ["decode-posteriors", "--lm-weight=-inf"],
        ["train", "--splice-s", "nan"], ["train", "--splice-s", "-1"],
        ["train", "--stage", "mtl", "--vad-weight", "-1"],
        ["train", "--stage", "mtl", "--vad-weight", "nan"],
        ["train", "--stage", "asr", "--vad-weight", "3"],
        ["train", "--chunk-min-s", "-1"],
        ["train", "--chunk-min-s", "2", "--chunk-max-s", "1"],
        # finite, but inf frames
        ["train", "--stage", "mtl", "--chunk-max-s", "1.7e308"],
        ["train", "--splice-s", "1.7e308"],
        # the VAD-only stage trains a fresh model
        ["train", "--stage", "vad", "--init", "/nonexistent/x.ckpt"],
        ["segment", "--max-chunk-s", "nan"],
        ["segment", "--max-chunk-s", "0.02"],
        ["segment", "--min-silence-s", "-5"],
        ["segment", "--min-speech-s", "0.001"],
        ["segment", "--splice-s=-inf"],
        ["segment", "--splice-s", "1.7e308"],  # finite, but inf frames
        ["segment", "--vad-threshold", "2"],
        ["train", "--epochs", "1", "--lm-out", "lm.json", "--lm-order", "0"],
        # past the longest transcript + 2: a MemoryError after training
        ["train", "--epochs", "1", "--lm-out", "lm.json",
         "--lm-order", "1000000000000000"],
        ["gen-corpus", "--count", "0"],
        ["gen-corpus", "--vocab-size", "1"],
        ["gen-corpus", "--noise", "-1"],
        ["gen-corpus", "--noise", "nan"],
        ["gen-corpus", "--tone-max-s", "inf"],
        ["gen-corpus", "--tone-min-s", "nan"],
        # an utterance that could not fit in one 16-bit WAV
        ["gen-corpus", "--gap-max-s", "1e300"],
        ["gen-corpus", "--gap-max-s", "1.7e308"],
        ["gen-corpus", "--symbols-max", "100000000000"],
    ], ids=" ".join)
    def test_bad_value_is_usage_error(self, flags, tmp_path, corpus_dir,
                                      model_ckpt, capsys, monkeypatch):
        # each value is rejected before any training, decoding or corpus
        # generation starts
        monkeypatch.chdir(tmp_path)
        root, manifest, _ = corpus_dir
        command, *values = flags
        inputs = {
            "gen-corpus": ["--out", str(tmp_path / "c")],
            "train": ["--corpus", str(manifest),
                      "--out", str(tmp_path / "o.ckpt")],
            "transcribe": ["--model", str(model_ckpt),
                           "--wav", str(root / "utt0000.wav")],
            "segment": ["--model", str(model_ckpt),
                        "--wav", str(root / "utt0000.wav")],
            "decode-posteriors": _posteriors(tmp_path)[1:],
        }[command]
        assert run_cli(command, *inputs, *values) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "o.ckpt").exists()
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("rate", [8000, 16001])
    def test_wav_not_16khz(self, rate, tmp_path, model_ckpt, capsys):
        write_wav(tmp_path / "x.wav",
                  SampleBuffer(np.zeros(rate), sample_rate_hz=rate))
        assert run_cli("segment", "--model", str(model_ckpt),
                       "--wav", str(tmp_path / "x.wav")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{rate} Hz" in err

    def test_corpus_file_named_in_error(self, tmp_path, capsys):
        # a WAV at another rate, or a mask of the wrong length, on the
        # manifest's second line: the error names the line and the file
        utts = gen_synthetic_corpus(CorpusSpec(utterance_count=2, seed=13))
        manifest = write_corpus(tmp_path, utts, default_vocab(5))
        wav, mask = tmp_path / "utt0001.wav", tmp_path / "utt0001.mask"
        write_wav(wav, SampleBuffer(utts[1].audio.samples,
                                    sample_rate_hz=8000))
        argv = ["train", "--corpus", str(manifest),
                "--out", str(tmp_path / "o.ckpt")]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{manifest}:2: {wav}:" in err and "8000 Hz" in err
        write_corpus(tmp_path, utts, default_vocab(5))
        write_mask(mask, np.ones(3, dtype=bool))
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{manifest}:2: {mask}:" in err
        assert not (tmp_path / "o.ckpt").exists()

    def test_stream_flags_in_frames(self):
        defaults = {key: default for key, (_, default) in _STREAM.items()}
        cfg = _streamer_config(defaults)
        assert (cfg.min_speech_frames, cfg.min_silence_frames,
                cfg.max_chunk_frames, cfg.splice_frames) == (5, 30, 150, 32)
        assert _streamer_config({**defaults,
                                 "splice_s": 0.0}).splice_frames == 0

    def test_success_is_zero(self, tmp_path, capsys):
        assert run_cli("gen-corpus", "--out", str(tmp_path / "c"),
                       "--count", "2") == 0
        capsys.readouterr()


class TestGenCorpus:
    def test_writes_manifest_and_files(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert run_cli("gen-corpus", "--out", str(out), "--count", "3",
                       "--seed", "5") == 0
        capsys.readouterr()
        assert (out / "manifest.jsonl").exists()
        assert (out / "vocab.json").exists()
        assert len(list(out.glob("*.wav"))) == 3

    def test_seed_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("gen-corpus", "--out", str(a), "--count", "2", "--seed", "9")
        run_cli("gen-corpus", "--out", str(b), "--count", "2", "--seed", "9")
        capsys.readouterr()
        wa = sorted(a.glob("*.wav"))[0].read_bytes()
        wb = sorted(b.glob("*.wav"))[0].read_bytes()
        assert wa == wb


class TestConfigFile:
    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"count": 5, "seed": 3}))
        out = tmp_path / "c"
        assert run_cli("gen-corpus", "--out", str(out), "--config", str(cfg),
                       "--count", "2") == 0
        capsys.readouterr()
        assert len(list(out.glob("*.wav"))) == 2  # flag beat config

    def test_config_overrides_default(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"count": 3}))
        out = tmp_path / "c"
        assert run_cli("gen-corpus", "--out", str(out),
                       "--config", str(cfg)) == 0
        capsys.readouterr()
        assert len(list(out.glob("*.wav"))) == 3

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no_such_option": 1}))
        assert run_cli("gen-corpus", "--out", str(tmp_path / "c"),
                       "--config", str(cfg)) == 1
        assert "no_such_option" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, code", [
        ({"count": 1, "noise": 0}, 0),  # an int stands for a float
        ({"count": 1, "noise": None}, 0),  # null leaves the default
        ({"count": True}, 1),
        ({"count": 1.0}, 1),
    ])
    def test_value_must_have_flag_type(self, cfg, code, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("gen-corpus", "--out", str(tmp_path / "c"),
                       "--config", str(path)) == code
        capsys.readouterr()


    @pytest.mark.parametrize("cfg", [{"greedy": True}, {"beam_size": 20}])
    def test_segment_takes_transcribe_config(self, cfg, tmp_path, corpus_dir,
                                             model_ckpt, capsys):
        # segment has no beam flags but shares transcribe's config keys
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("segment", "--model", str(model_ckpt),
                       "--wav", str(corpus_dir[0] / "utt0000.wav"),
                       "--out", str(tmp_path / "ev.jsonl"),
                       "--config", str(path)) == 0
        capsys.readouterr()


class TestPosteriorFormat:
    def make_grid(self, rng, T=6, V=2):
        logits = rng.normal(size=(T, V + 1))
        logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        return PosteriorGrid(log_probs=ad.Tensor(logp),
                             vocab=[chr(ord("a") + i) for i in range(V)])

    def test_round_trip(self, rng, tmp_path):
        grid = self.make_grid(rng)
        path = tmp_path / "p.bin"
        save_posteriors(path, grid)
        back = load_external_posteriors(path)
        assert np.array_equal(back.array, grid.array)
        assert back.vocab == grid.vocab
        assert back.blank_index == grid.blank_index

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "p.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            load_external_posteriors(path)

    def test_truncated(self, rng, tmp_path):
        grid = self.make_grid(rng)
        path = tmp_path / "p.bin"
        save_posteriors(path, grid)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="bytes"):
            load_external_posteriors(path)

    def test_unnormalized_rows_rejected(self, rng, tmp_path):
        grid = self.make_grid(rng)
        path = tmp_path / "p.bin"
        save_posteriors(path, grid)
        blob = bytearray(path.read_bytes())
        bad = np.frombuffer(blob[12:], dtype="<f8").copy()
        bad += 0.5  # rows no longer sum to 1
        blob[12:] = bad.tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="normalized"):
            load_external_posteriors(path)

    def test_missing_sidecar(self, rng, tmp_path):
        grid = self.make_grid(rng)
        path = tmp_path / "p.bin"
        save_posteriors(path, grid)
        (tmp_path / "p.bin.json").unlink()
        with pytest.raises(FormatError, match="sidecar"):
            load_external_posteriors(path)

    def test_decode_command(self, rng, tmp_path, capsys):
        # peaked grid decodes to a known sequence
        logp = np.log(np.array([
            [0.9, 0.05, 0.05],
            [0.05, 0.05, 0.9],
            [0.05, 0.9, 0.05],
        ]))
        grid = PosteriorGrid(log_probs=ad.Tensor(logp), vocab=["a", "b"])
        path = tmp_path / "p.bin"
        save_posteriors(path, grid)
        assert run_cli("decode-posteriors", "--posteriors", str(path),
                       "--greedy") == 0
        assert capsys.readouterr().out.strip() == "a b"
        assert run_cli("decode-posteriors", "--posteriors", str(path),
                       "--beam-size", "4", "--lm-weight", "0",
                       "--word-score", "0") == 0
        assert capsys.readouterr().out.strip() == "a b"


class TestStreamCommands:
    def test_segment_and_transcribe(self, corpus_dir, model_ckpt, tmp_path,
                                    capsys):
        root, manifest, utts = corpus_dir
        wav = sorted(root.glob("*.wav"))[0]
        out = tmp_path / "events.jsonl"
        assert run_cli("segment", "--model", str(model_ckpt), "--wav",
                       str(wav), "--out", str(out), "--validate") == 0
        capsys.readouterr()
        assert out.exists()
        out2 = tmp_path / "tr.jsonl"
        assert run_cli("transcribe", "--model", str(model_ckpt), "--wav",
                       str(wav), "--out", str(out2), "--greedy",
                       "--max-chunk-s", "1.0") == 0
        capsys.readouterr()
        assert out2.exists()


class TestScore:
    def test_identical_transcripts_zero(self, tmp_path, capsys):
        ref = tmp_path / "ref.txt"
        hyp = tmp_path / "hyp.txt"
        ref.write_text("a b c\nd e\n")
        hyp.write_text("a b c\nd e\n")
        assert run_cli("score", "--ref", str(ref), "--hyp", str(hyp)) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["cer"] == 0.0

    def test_mismatch_counted(self, tmp_path, capsys):
        ref = tmp_path / "ref.txt"
        hyp = tmp_path / "hyp.txt"
        ref.write_text("a b c d\n")
        hyp.write_text("a x c\n")
        run_cli("score", "--ref", str(ref), "--hyp", str(hyp))
        rep = json.loads(capsys.readouterr().out)
        assert rep["cer"] == pytest.approx(0.5)  # 1 sub + 1 del over 4

    def test_line_count_mismatch(self, tmp_path, capsys):
        ref = tmp_path / "ref.txt"
        hyp = tmp_path / "hyp.txt"
        ref.write_text("a\nb\n")
        hyp.write_text("a\n")
        assert run_cli("score", "--ref", str(ref), "--hyp", str(hyp)) == 2
        capsys.readouterr()

    def test_events_mode_identity(self, tmp_path, capsys):
        from vadasr.streamer import END_OF_UTT, SegmentEvent, write_events

        events = [SegmentEvent(0, 25, ("a", "b"), END_OF_UTT),
                  SegmentEvent(50, 75, ("c",), END_OF_UTT)]
        ref = tmp_path / "ref.jsonl"
        hyp = tmp_path / "hyp.jsonl"
        write_events(ref, events)
        write_events(hyp, events)
        assert run_cli("score", "--ref", str(ref), "--hyp", str(hyp),
                       "--events") == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["cer"] == 0.0 and rep["deter"] == 0.0

    def test_events_mode_reference_without_text(self, corpus_dir, model_ckpt,
                                                tmp_path, capsys):
        # segment writes events without text: DetER is defined, CER is not
        from vadasr.audio import FRAME_DURATION_S
        from vadasr.metrics import segments_to_mask, vad_metrics
        from vadasr.streamer import read_events

        root, _, _ = corpus_dir
        ref = tmp_path / "seg.jsonl"
        assert run_cli("segment", "--model", str(model_ckpt), "--wav",
                       str(sorted(root.glob("*.wav"))[0]), "--out",
                       str(ref)) == 0
        ref_ev = read_events(ref)
        assert ref_ev and not any(ev.text for ev in ref_ev)
        hyp = tmp_path / "hyp.jsonl"
        hyp.write_text(json.dumps({**_EVENT, "text": "a b"}) + "\n")
        capsys.readouterr()
        assert run_cli("score", "--events", "--ref", str(ref),
                       "--hyp", str(hyp)) == 0
        n = max(ev.end for ev in ref_ev + read_events(hyp))
        vr = vad_metrics(*(segments_to_mask(read_events(p), n,
                                            FRAME_DURATION_S)
                           for p in (ref, hyp)))
        assert vr.deter > 0
        assert json.loads(capsys.readouterr().out) == {
            "deter": vr.deter, "fa": vr.fa, "miss": vr.miss, "cer": None,
            "sub": None, "del": None, "ins": None, "n_utts": 1}
        # a transcript reference without text still has no error rate
        (tmp_path / "ref.txt").write_text("\n")
        (tmp_path / "hyp.txt").write_text("a\n")
        assert run_cli("score", "--ref", str(tmp_path / "ref.txt"),
                       "--hyp", str(tmp_path / "hyp.txt")) == 2
        assert "reference is empty" in capsys.readouterr().err


    @pytest.mark.parametrize("end_s", [1e300, 1e9])
    def test_event_past_longest_stream(self, end_s, tmp_path, capsys,
                                       monkeypatch):
        # rejected as data, naming the line, before any mask is sized from
        # the time
        import vadasr.cli as cli
        import vadasr.metrics as metrics

        def no_mask(*args):
            raise AssertionError("a mask was allocated")

        for module in (cli, metrics):
            monkeypatch.setattr(module, "segments_to_mask", no_mask)
        ev = tmp_path / "ev.jsonl"
        ev.write_text(json.dumps({**_EVENT, "text": "a", "end_s": end_s})
                      + "\n")
        assert run_cli("score", "--events", "--ref", str(ev),
                       "--hyp", str(ev)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ev}:1: ") and err.count("\n") == 1
        assert str(end_s) in err

    def test_event_end_between_frames(self, tmp_path, capsys):
        # 1.01 s rounds to frame 50, as the mask's length does
        ev = tmp_path / "ev.jsonl"
        ev.write_text(json.dumps({**_EVENT, "text": "a", "end_s": 1.01})
                      + "\n")
        assert run_cli("score", "--events", "--ref", str(ev),
                       "--hyp", str(ev)) == 0
        assert json.loads(capsys.readouterr().out)["deter"] == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_times_between_frames_score_as_their_seconds(self, seed,
                                                         tmp_path, capsys):
        # the JSON of scoring raw seconds: both masks from the times as
        # written, over frames up to the last end rounded
        from vadasr.audio import FRAME_DURATION_S, to_frames
        from vadasr.metrics import (corpus_error_rate, segments_to_mask,
                                    vad_metrics)
        from vadasr.streamer import CAUSES

        rng = np.random.default_rng(seed)
        recs = {}
        for side in ("ref", "hyp"):
            # to the ms, so some times fall on half a frame
            times = np.round(np.sort(rng.uniform(0, 4, 2 * rng.integers(
                1, 6))), 3).tolist()
            recs[side] = [{"start_s": a, "end_s": b,
                           "text": " ".join(rng.choice(list("abcde"),
                                                       rng.integers(1, 4))),
                           "cause": str(rng.choice(CAUSES))}
                          for a, b in zip(times[::2], times[1::2])]
            (tmp_path / f"{side}.jsonl").write_text(
                "".join(json.dumps(r) + "\n" for r in recs[side]))
        n = max(1, to_frames(max(r["end_s"] for r in recs["ref"]
                                 + recs["hyp"])))
        vr = vad_metrics(*(segments_to_mask(
            [SimpleNamespace(**r) for r in recs[side]], n, FRAME_DURATION_S)
            for side in ("ref", "hyp")))
        err = corpus_error_rate([tuple(
            [t for r in recs[side] for t in r["text"].split()]
            for side in ("ref", "hyp"))])
        assert run_cli("score", "--events",
                       "--ref", str(tmp_path / "ref.jsonl"),
                       "--hyp", str(tmp_path / "hyp.jsonl")) == 0
        assert capsys.readouterr().out == json.dumps(
            {"deter": vr.deter, "fa": vr.fa, "miss": vr.miss, "cer": err.rate,
             "sub": err.sub, "del": err.del_, "ins": err.ins,
             "n_utts": 1}) + "\n"

    def test_event_at_longest_stream(self, tmp_path, capsys):
        ev = tmp_path / "ev.jsonl"
        ev.write_text(json.dumps({**_EVENT, "text": "a",
                                  "end_s": MAX_STREAM_S}) + "\n")
        assert run_cli("score", "--events", "--ref", str(ev),
                       "--hyp", str(ev)) == 0
        assert json.loads(capsys.readouterr().out)["deter"] == 0.0


class TestTrainCommand:
    def test_vad_stage_smoke(self, corpus_dir, tmp_path, capsys):
        root, manifest, utts = corpus_dir
        ckpt = tmp_path / "vad.ckpt"
        report = tmp_path / "report.json"
        assert run_cli("train", "--corpus", str(manifest), "--stage", "vad",
                       "--out", str(ckpt), "--epochs", "1",
                       "--report", str(report)) == 0
        capsys.readouterr()
        assert ckpt.exists() and report.exists()
        rep = json.loads(report.read_text())
        assert "ce_curve" in rep

    def test_asr_stage_with_lm(self, corpus_dir, tmp_path, capsys):
        root, manifest, utts = corpus_dir
        ckpt = tmp_path / "asr.ckpt"
        lm = tmp_path / "lm.json"
        assert run_cli("train", "--corpus", str(manifest), "--stage", "asr",
                       "--out", str(ckpt), "--epochs", "1",
                       "--lm-out", str(lm)) == 0
        capsys.readouterr()
        assert ckpt.exists() and lm.exists()
        back = ModelParams.load(ckpt)
        assert back.vocab == default_vocab(5)

    def test_mtl_stage_default_vad_weight(self, corpus_dir, tmp_path, capsys,
                                          monkeypatch):
        # stage mtl weights BCE by 2.0 when no vad_weight is given, silently
        import vadasr.cli as cli

        configs = []

        def recording_train(model, corpus, config, dev=None):
            configs.append(config)
            return model, TrainReport()

        monkeypatch.setattr(cli, "train", recording_train)
        _, manifest, _ = corpus_dir
        assert run_cli("train", "--corpus", str(manifest), "--stage", "mtl",
                       "--out", str(tmp_path / "m.ckpt")) == 0
        assert capsys.readouterr().err == ""
        assert [c.vad_weight for c in configs] == [2.0]

    def test_bad_stage(self, corpus_dir, tmp_path, capsys):
        root, manifest, utts = corpus_dir
        assert run_cli("train", "--corpus", str(manifest), "--stage", "xxl",
                       "--out", str(tmp_path / "m.ckpt")) == 1
        capsys.readouterr()


# ---------------------------------------------------------------------------
# what each subcommand builds from its flags, its config file and defaults

_STREAM_FLAGS = ("--vad-threshold --min-speech-s --min-silence-s "
                 "--max-chunk-s --splice-s")
_BEAM_FLAGS = "--beam-size --lm-weight --word-score --lm-path --greedy"
HELP_FLAGS = {
    "gen-corpus": "--out --vocab-size --count --seed --symbols-min "
                  "--symbols-max --tone-min-s --tone-max-s --gap-min-s "
                  "--gap-max-s --noise",
    "train": "--corpus --dev-manifest --stage --out --init --epochs --lr "
             "--batch-size --seed --vad-weight --chunk-min-s --chunk-max-s "
             "--splice-s --report --lm-out --lm-order",
    "transcribe": f"--model --wav --out --validate {_STREAM_FLAGS} "
                  f"{_BEAM_FLAGS}",
    "segment": f"--model --wav --out --validate {_STREAM_FLAGS}",
    "score": "--ref --hyp --events",
    "decode-posteriors": f"--posteriors {_BEAM_FLAGS}",
}

DEFAULT_SPEC = {"vocab_size": 5, "utterance_count": 200,
                "symbols_per_utterance": (2, 4),
                "tone_duration_s": (0.10, 0.24),
                "gap_duration_s": (0.12, 0.40), "noise_amplitude": 0.005,
                "seed": 7}
DEFAULT_TRAIN = {"batch_size": 4, "chunk_min_s": 0.5, "chunk_max_s": 3.0,
                 "splice_s": 0.5, "vad_weight": 2.0, "seed": 0}
DEFAULT_STREAMER = {"vad_threshold": 0.45, "min_speech_frames": 5,
                    "min_silence_frames": 30, "max_chunk_frames": 150,
                    "splice_frames": 32}
DEFAULT_BEAM = (20, 0.46, 0.52, None)


class TestBuiltConfigs:
    """Pins the config objects each subcommand hands on, against literal
    values, with only the required flags given and with a config file that
    sets every key."""

    @pytest.fixture
    def built(self, monkeypatch, model_ckpt):
        import vadasr.cli as cli

        record = {}

        def corpus(spec):
            record["spec"] = dataclasses.asdict(spec)
            return []

        def train(model, corpus, config, dev=None):
            record.update(train=dataclasses.asdict(config), model=model,
                          dev=dev)
            return model, TrainReport()

        def ngram(transcripts, order):
            record["lm_order"] = order
            return train_ngram(transcripts, order=order)

        def stream(model, frames, config, beam=None, decode=True):
            record.update(streamer=dataclasses.asdict(config), decode=decode,
                          beam=beam)
            return SimpleNamespace(events=[])

        def beam_search(grid, beam):
            record["beam"] = beam
            return [SimpleNamespace(tokens=())]

        for name, fake in [("gen_synthetic_corpus", corpus),
                           ("train", train),
                           ("train_ngram", ngram), ("run_stream", stream),
                           ("beam_search", beam_search)]:
            monkeypatch.setattr(cli, name, fake)
        return record

    @staticmethod
    def beam_fields(beam):
        return (beam.beam_size, beam.lm_weight, beam.word_score,
                beam.lm and beam.lm.order)

    @pytest.mark.parametrize("command", sorted(HELP_FLAGS))
    def test_help_lists_the_flags(self, command, capsys):
        with pytest.raises(SystemExit):
            run_cli(command, "--help")
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert flags == {*HELP_FLAGS[command].split(), "--help", "--config"}

    def test_required_flags_only(self, built, corpus_dir, model_ckpt,
                                 tmp_path, capsys):
        root, manifest, _ = corpus_dir
        wav = str(root / "utt0000.wav")
        assert run_cli("gen-corpus", "--out", str(tmp_path / "c")) == 0
        assert built["spec"] == DEFAULT_SPEC
        for stage, full, epochs, lr in [("asr", "asr_only", 24, 5e-3),
                                        ("mtl", "mtl", 8, 2e-3),
                                        ("vad", "vad_only", 8, 5e-3)]:
            assert run_cli("train", "--corpus", str(manifest), "--out",
                           str(tmp_path / "m.ckpt"), "--stage", stage) == 0
            assert built["train"] == {**DEFAULT_TRAIN, "stage": full,
                                      "epochs": epochs, "learning_rate": lr}
            assert built["dev"] is None
        assert run_cli("train", "--corpus", str(manifest), "--out",
                       str(tmp_path / "m.ckpt"), "--lm-out",
                       str(tmp_path / "lm.json")) == 0
        assert built["lm_order"] == 4
        assert built["train"]["stage"] == "asr_only"
        for command, decode in [("transcribe", True), ("segment", False)]:
            built.clear()
            assert run_cli(command, "--model", str(model_ckpt),
                           "--wav", wav) == 0
            assert built["streamer"] == DEFAULT_STREAMER
            assert built["decode"] is decode
            assert (self.beam_fields(built["beam"]) if decode
                    else built["beam"]) == (DEFAULT_BEAM if decode else None)
        built.clear()
        assert run_cli(*_posteriors(tmp_path)) == 0
        assert self.beam_fields(built["beam"]) == DEFAULT_BEAM
        capsys.readouterr()

    @pytest.mark.parametrize("stage", ["asr", "mtl", "vad"])
    def test_fresh_model_from_seed(self, built, corpus_dir, tmp_path, stage,
                                   capsys):
        # without --init every stage starts from the --seed initial model
        _, manifest, _ = corpus_dir
        assert run_cli("train", "--corpus", str(manifest), "--out",
                       str(tmp_path / "m.ckpt"), "--stage", stage,
                       "--seed", "3") == 0
        fresh = ModelParams.init(default_vocab(5), seed=3)
        assert built["model"].params.keys() == fresh.params.keys()
        for name, t in fresh.params.items():
            assert np.array_equal(built["model"].params[name].data, t.data)
        capsys.readouterr()

    def test_config_file_sets_every_key(self, built, corpus_dir, model_ckpt,
                                        tmp_path, capsys):
        root, manifest, _ = corpus_dir
        lm = tmp_path / "lm.json"
        train_ngram([("a", "b")], order=2).save(lm)
        path = tmp_path / "cfg.json"

        def run(command, **cfg):
            path.write_text(json.dumps(cfg))
            return run_cli(command, "--config", str(path))

        assert run("gen-corpus", out=str(tmp_path / "c"), vocab_size=6,
                   count=3, seed=11, symbols_min=1, symbols_max=5,
                   tone_min_s=0.08, tone_max_s=0.3, gap_min_s=0.1,
                   gap_max_s=0.5, noise=0.01) == 0
        assert built["spec"] == {
            "vocab_size": 6, "utterance_count": 3,
            "symbols_per_utterance": (1, 5), "tone_duration_s": (0.08, 0.3),
            "gap_duration_s": (0.1, 0.5), "noise_amplitude": 0.01,
            "seed": 11}
        assert (tmp_path / "c" / "manifest.jsonl").exists()

        assert run("train", corpus=str(manifest), dev_manifest=str(manifest),
                   stage="mtl", out=str(tmp_path / "m.ckpt"),
                   init=str(model_ckpt), epochs=3, lr=1e-3, batch_size=2,
                   seed=5, vad_weight=1.5, chunk_min_s=0.4, chunk_max_s=2.0,
                   splice_s=0.3, report=str(tmp_path / "r.json"),
                   lm_out=str(tmp_path / "lm2.json"), lm_order=3) == 0
        assert built["train"] == {
            "stage": "mtl", "learning_rate": 1e-3, "epochs": 3,
            "batch_size": 2, "chunk_min_s": 0.4, "chunk_max_s": 2.0,
            "splice_s": 0.3, "vad_weight": 1.5, "seed": 5}
        assert len(built["dev"]) == 4 and built["lm_order"] == 3
        assert (tmp_path / "r.json").exists()
        assert (tmp_path / "m.ckpt").exists()
        assert (tmp_path / "lm2.json").exists()

        stream_keys = dict(
            model=str(model_ckpt), wav=str(root / "utt0000.wav"),
            out=str(tmp_path / "ev.jsonl"), validate=True, vad_threshold=0.6,
            min_speech_s=0.2, min_silence_s=0.4, max_chunk_s=2.0,
            splice_s=0.3)
        beam_keys = dict(beam_size=8, lm_weight=0.3, word_score=0.7,
                         lm_path=str(lm), greedy=False)
        streamer = {"vad_threshold": 0.6, "min_speech_frames": 10,
                    "min_silence_frames": 20, "max_chunk_frames": 100,
                    "splice_frames": 15}
        for command, decode in [("transcribe", True), ("segment", False)]:
            built.clear()
            assert run(command, **stream_keys, **beam_keys) == 0
            assert built["streamer"] == streamer
            assert built["decode"] is decode
            assert (self.beam_fields(built["beam"]) if decode
                    else built["beam"]) == ((8, 0.3, 0.7, 2) if decode
                                            else None)
            assert (tmp_path / "ev.jsonl").exists()
        built.clear()
        posteriors = _posteriors(tmp_path)[2]
        assert run("decode-posteriors", posteriors=posteriors,
                   **beam_keys) == 0
        assert self.beam_fields(built["beam"]) == (8, 0.3, 0.7, 2)
        capsys.readouterr()

    @pytest.mark.parametrize("command, flags, cfg", [
        ("gen-corpus", ["--count", "2"], {"count": "3"}),
        ("gen-corpus", ["--noise", "0.1"], {"noise": True}),
        ("train", ["--epochs", "2"], {"epochs": 2.5}),
        ("transcribe", ["--greedy"], {"greedy": 1}),
        ("decode-posteriors", ["--lm-path", "lm.json"], {"lm_path": 3}),
    ])
    def test_config_type_checked_under_flag(self, command, flags, cfg, built,
                                            corpus_dir, model_ckpt, tmp_path,
                                            capsys):
        root, manifest, _ = corpus_dir
        inputs = {
            "gen-corpus": ["--out", str(tmp_path / "c")],
            "train": ["--corpus", str(manifest),
                      "--out", str(tmp_path / "o.ckpt")],
            "transcribe": ["--model", str(model_ckpt),
                           "--wav", str(root / "utt0000.wav")],
            "decode-posteriors": _posteriors(tmp_path)[1:],
        }[command]
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert run_cli(command, *inputs, *flags,
                       "--config", str(tmp_path / "cfg.json")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert next(iter(cfg)) in err
        assert built == {}
        assert not (tmp_path / "c").exists()
        assert not (tmp_path / "o.ckpt").exists()
