"""Command-line entry point.

Subcommands: gen-corpus, train, transcribe, segment, score,
decode-posteriors. Flag values win over config-file values, which win over
defaults. Exit codes: 0 ok, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import struct
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .audio import (
    FRAME_DURATION_S,
    CorpusSpec,
    default_vocab,
    frame_stream,
    gen_synthetic_corpus,
    parse_vocab,
    read_corpus,
    read_wav,
    to_frames,
    write_corpus,
)
from .decode import BeamConfig, NgramLM, beam_search, greedy_decode, train_ngram
from .errors import (
    DataError,
    FormatError,
    InvalidSpecError,
    NumericError,
    UsageError,
    VadAsrError,
)
from .metrics import corpus_error_rate, segments_to_mask, vad_metrics
from .model import ModelParams, PosteriorGrid
from .streamer import (
    StreamerConfig,
    read_events,
    run_stream,
    validate_events,
    write_events,
)
from .trainer import TrainConfig, train_stage1_asr, train_stage2_mtl, train_vad_stl_baseline

_POST_MAGIC = b"VAP1"


# ---------------------------------------------------------------------------
# external posterior interchange format


def save_posteriors(path, grid: PosteriorGrid) -> None:
    """magic VAP1, u32 T, u32 K, then T*K little-endian f64 log-probs."""
    arr = np.ascontiguousarray(grid.array, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_POST_MAGIC)
        fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes())
    Path(str(path) + ".json").write_text(json.dumps(
        {"vocab": grid.vocab, "blank_index": grid.blank_index}))


def load_external_posteriors(path) -> PosteriorGrid:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _POST_MAGIC:
        raise FormatError(f"{path}: bad posterior magic {blob[:4]!r}")
    if len(blob) < 12:
        raise FormatError(f"{path}: posterior header truncated at "
                          f"{len(blob)} bytes")
    T, K = struct.unpack_from("<II", blob, 4)
    expected = 12 + 8 * T * K
    if len(blob) != expected:
        raise FormatError(f"{path}: expected {expected} bytes for a "
                          f"{T}x{K} grid, got {len(blob)}")
    arr = np.frombuffer(blob, dtype="<f8", offset=12).reshape(T, K).copy()
    sidecar_path = Path(str(path) + ".json")
    if not sidecar_path.exists():
        raise FormatError(f"missing posterior sidecar {sidecar_path}")
    try:
        sidecar = json.loads(sidecar_path.read_text())
        vocab = parse_vocab(sidecar["vocab"], sidecar_path)
        blank = int(sidecar["blank_index"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{sidecar_path}: bad posterior sidecar: "
                          f"{type(exc).__name__}: {exc}") from exc
    if K != len(vocab) + 1 or blank != len(vocab):
        raise FormatError(f"{path}: sidecar vocab inconsistent with K={K}")
    rowsums = np.exp(arr).sum(axis=1)
    if not np.all(np.abs(rowsums - 1.0) <= 1e-3):  # a NaN row fails too
        worst = float(np.abs(rowsums - 1.0).max())
        raise FormatError(f"{path}: rows not normalized (max dev {worst:.2e})")
    return PosteriorGrid(log_probs=arr, vocab=vocab,
                         blank_index=blank)


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class _ConfigFile(argparse.Action):
    """``--config FILE``: a flat JSON object keyed by flag names without
    dashes. A value must have the type its flag parses to (an int stands for
    a float); null leaves the default. Keys with no flag here are left to
    ``_merge_config``."""

    def __call__(self, parser, namespace, path, option_string=None):
        try:
            cfg = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read config {path}: {exc}")
        if not isinstance(cfg, dict):
            raise DataError(f"config {path} must be a JSON object")
        kinds = {a.dest: a.type or (str if a.const is None else type(a.const))
                 for a in parser._actions}
        for key, value in cfg.items():
            kind = kinds.get(key)
            if (value is None or kind is None or type(value) is kind
                    or (kind is float and type(value) is int)):
                continue
            raise UsageError(f"config key {key!r} must be {kind.__name__}, "
                             f"got {type(value).__name__} {value!r}")
        setattr(namespace, self.dest,
                {k: v for k, v in cfg.items() if v is not None})


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """flag > config file > default."""
    provided = {k: v for k, v in vars(args).items()
                if k not in ("func", "config") and v is not None}
    file_cfg = args.config or {}
    unknown = set(file_cfg) - set(defaults)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    return {**defaults, **file_cfg, **provided}


def _streamer_config(opts: dict) -> StreamerConfig:
    try:
        return StreamerConfig(
            vad_threshold=opts["vad_threshold"],
            min_speech_frames=to_frames(opts["min_speech_s"]),
            min_silence_frames=to_frames(opts["min_silence_s"]),
            max_chunk_frames=to_frames(opts["max_chunk_s"]),
            splice_frames=to_frames(opts["splice_s"]),
        )
    except InvalidSpecError as exc:  # the values came from flags or config
        raise UsageError(str(exc)) from exc


def _beam_config(opts: dict) -> BeamConfig | None:
    if opts.get("greedy"):
        return None
    lm = NgramLM.load(opts["lm_path"]) if opts.get("lm_path") else None
    return BeamConfig(beam_size=opts["beam_size"], lm_weight=opts["lm_weight"],
                      word_score=opts["word_score"], lm=lm)


_STREAM_DEFAULTS = {
    "vad_threshold": 0.45, "min_speech_s": 0.1, "min_silence_s": 0.6,
    "max_chunk_s": 3.0, "splice_s": 0.64,
}
_BEAM_DEFAULTS = {
    "beam_size": 20, "lm_weight": 0.46, "word_score": 0.52, "lm_path": None,
    "greedy": False,
}


def _add_stream_flags(p):
    p.add_argument("--vad-threshold", dest="vad_threshold", type=float)
    p.add_argument("--min-speech-s", dest="min_speech_s", type=float)
    p.add_argument("--min-silence-s", dest="min_silence_s", type=float)
    p.add_argument("--max-chunk-s", dest="max_chunk_s", type=float)
    p.add_argument("--splice-s", dest="splice_s", type=float)


def _add_beam_flags(p):
    p.add_argument("--beam-size", dest="beam_size", type=int)
    p.add_argument("--lm-weight", dest="lm_weight", type=float)
    p.add_argument("--word-score", dest="word_score", type=float)
    p.add_argument("--lm-path", dest="lm_path")
    p.add_argument("--greedy", dest="greedy", action="store_const", const=True)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_corpus(args):
    defaults = {
        "out": None, "vocab_size": 5, "count": 200, "seed": 7,
        "symbols_min": 2, "symbols_max": 4, "tone_min_s": 0.10,
        "tone_max_s": 0.24, "gap_min_s": 0.12, "gap_max_s": 0.40,
        "noise": 0.005,
    }
    o = _merge_config(args, defaults)
    if not o["out"]:
        raise UsageError("--out is required")
    spec = CorpusSpec(
        vocab_size=o["vocab_size"], utterance_count=o["count"],
        symbols_per_utterance=(o["symbols_min"], o["symbols_max"]),
        tone_duration_s=(o["tone_min_s"], o["tone_max_s"]),
        gap_duration_s=(o["gap_min_s"], o["gap_max_s"]),
        noise_amplitude=o["noise"], seed=o["seed"])
    utts = gen_synthetic_corpus(spec)
    manifest = write_corpus(o["out"], utts, default_vocab(spec.vocab_size))
    print(f"wrote {len(utts)} utterances to {manifest}")
    return 0


def _cmd_train(args):
    defaults = {
        "corpus": None, "dev_manifest": None, "stage": "asr", "out": None,
        "init": None, "epochs": None, "lr": None, "batch_size": 4,
        "seed": 0, "vad_weight": None, "chunk_min_s": 0.5, "chunk_max_s": 3.0,
        "splice_s": 0.5, "report": None, "lm_out": None, "lm_order": 4,
    }
    o = _merge_config(args, defaults)
    if not o["corpus"] or not o["out"]:
        raise UsageError("--corpus and --out are required")
    stage_map = {"asr": "asr_only", "mtl": "mtl", "vad": "vad_only"}
    if o["stage"] not in stage_map:
        raise UsageError(f"unknown stage {o['stage']!r}")
    stage = stage_map[o["stage"]]
    if stage != "mtl" and o["vad_weight"] is not None:
        raise UsageError(f"vad_weight applies only to --stage mtl, not "
                         f"--stage {o['stage']}")
    # Per-stage recipes: the ASR stage needs many optimizer steps at a high
    # peak rate to escape the blank-heavy plateau; fine-tuning stages need
    # less.
    stage_epochs = {"asr_only": 24, "mtl": 8, "vad_only": 8}
    stage_lr = {"asr_only": 5e-3, "mtl": 2e-3, "vad_only": 5e-3}
    epochs = stage_epochs[stage] if o["epochs"] is None else o["epochs"]
    lr = stage_lr[stage] if o["lr"] is None else o["lr"]
    try:
        config = TrainConfig(stage=stage, learning_rate=lr, epochs=epochs,
                             batch_size=o["batch_size"], seed=o["seed"],
                             vad_weight=(2.0 if o["vad_weight"] is None
                                         else o["vad_weight"]),
                             chunk_min_s=o["chunk_min_s"],
                             chunk_max_s=o["chunk_max_s"],
                             splice_s=o["splice_s"])
    except DataError as exc:  # every value here came from a flag or config
        raise UsageError(str(exc)) from exc
    corpus, vocab = read_corpus(o["corpus"])
    dev = read_corpus(o["dev_manifest"])[0] if o["dev_manifest"] else None
    if stage == "vad_only":
        model, report = train_vad_stl_baseline(corpus, config, vocab,
                                               dev_corpus=dev)
    else:
        if o["init"]:
            model = ModelParams.load(o["init"])
        else:
            model = ModelParams.init(vocab, seed=o["seed"])
        if stage == "asr_only":
            model, report = train_stage1_asr(model, corpus, config, dev)
        else:
            model, report = train_stage2_mtl(model, corpus, config, dev)
    model.save(o["out"])
    if o["lm_out"]:
        train_ngram([u.transcript for u in corpus],
                    order=o["lm_order"]).save(o["lm_out"])
    report_json = json.dumps(asdict(report), indent=2)
    if o["report"]:
        Path(o["report"]).write_text(report_json)
    else:
        print(report_json)
    return 0


def _cmd_stream(args):
    """``transcribe`` decodes each event; ``segment`` finds boundaries only."""
    with_decoder = args.command == "transcribe"
    defaults = {**_STREAM_DEFAULTS, **_BEAM_DEFAULTS,
                "model": None, "wav": None, "out": None, "validate": False}
    o = _merge_config(args, defaults)
    if not o["model"] or not o["wav"]:
        raise UsageError("--model and --wav are required")
    cfg = _streamer_config(o)
    model = ModelParams.load(o["model"])
    frames = frame_stream(read_wav(o["wav"]))
    beam = _beam_config(o) if with_decoder else None
    streamer = run_stream(model, frames, cfg, beam, decode=with_decoder)
    if o["validate"]:
        validate_events(streamer.events, cfg)
    if o["out"]:
        write_events(o["out"], streamer.events)
    else:
        for ev in streamer.events:
            print(json.dumps(ev.as_dict()))
    return 0


def _read_transcript_lines(path) -> list[tuple[str, ...]]:
    with open(path) as fh:
        return [tuple(line.split()) for line in fh]


def _cmd_score(args):
    defaults = {"ref": None, "hyp": None, "events": False}
    o = _merge_config(args, defaults)
    if not o["ref"] or not o["hyp"]:
        raise UsageError("--ref and --hyp are required")
    report: dict = {"deter": None, "fa": None, "miss": None}
    if o["events"]:
        ref_ev = read_events(o["ref"])
        hyp_ev = read_events(o["hyp"])
        ref_tokens = [t for ev in ref_ev for t in ev.text]
        hyp_tokens = [t for ev in hyp_ev for t in ev.text]
        horizon = max((ev.end_s for ev in ref_ev + hyp_ev), default=0.0)
        n = max(1, to_frames(horizon))
        vr = vad_metrics(segments_to_mask(ref_ev, n, FRAME_DURATION_S),
                         segments_to_mask(hyp_ev, n, FRAME_DURATION_S))
        report.update({"deter": vr.deter, "fa": vr.fa, "miss": vr.miss})
        pairs = [(ref_tokens, hyp_tokens)]
    else:
        refs = _read_transcript_lines(o["ref"])
        hyps = _read_transcript_lines(o["hyp"])
        if len(refs) != len(hyps):
            raise DataError(f"ref has {len(refs)} lines, hyp has {len(hyps)}")
        pairs = list(zip(refs, hyps))
    err = corpus_error_rate(pairs)
    report.update({"cer": err.rate, "sub": err.sub, "del": err.del_,
                   "ins": err.ins, "n_utts": len(pairs)})
    print(json.dumps(report))
    return 0


def _cmd_decode_posteriors(args):
    defaults = {**_BEAM_DEFAULTS, "posteriors": None}
    o = _merge_config(args, defaults)
    if not o["posteriors"]:
        raise UsageError("--posteriors is required")
    grid = load_external_posteriors(o["posteriors"])
    beam = _beam_config(o)
    tokens = (greedy_decode(grid) if beam is None
              else beam_search(grid, beam)[0].tokens)
    print(" ".join(tokens))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="vadasr",
                     description="streaming VAD + CTC ASR at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate a synthetic corpus")
    p.add_argument("--out")
    p.add_argument("--vocab-size", dest="vocab_size", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--symbols-min", dest="symbols_min", type=int)
    p.add_argument("--symbols-max", dest="symbols_max", type=int)
    p.add_argument("--tone-min-s", dest="tone_min_s", type=float)
    p.add_argument("--tone-max-s", dest="tone_max_s", type=float)
    p.add_argument("--gap-min-s", dest="gap_min_s", type=float)
    p.add_argument("--gap-max-s", dest="gap_max_s", type=float)
    p.add_argument("--noise", type=float)
    p.set_defaults(func=_cmd_gen_corpus)

    p = sub.add_parser("train", help="train a model stage")
    p.add_argument("--corpus")
    p.add_argument("--dev-manifest", dest="dev_manifest")
    p.add_argument("--stage", choices=("asr", "mtl", "vad"))
    p.add_argument("--out")
    p.add_argument("--init")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--vad-weight", dest="vad_weight", type=float)
    p.add_argument("--chunk-min-s", dest="chunk_min_s", type=float)
    p.add_argument("--chunk-max-s", dest="chunk_max_s", type=float)
    p.add_argument("--splice-s", dest="splice_s", type=float)
    p.add_argument("--report")
    p.add_argument("--lm-out", dest="lm_out")
    p.add_argument("--lm-order", dest="lm_order", type=int)
    p.set_defaults(func=_cmd_train)

    for name, help_text in (
            ("transcribe", "stream a WAV and decode events"),
            ("segment", "stream a WAV, boundaries only")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--model")
        p.add_argument("--wav")
        p.add_argument("--out")
        p.add_argument("--validate", action="store_const", const=True)
        _add_stream_flags(p)
        if name == "transcribe":
            _add_beam_flags(p)
        p.set_defaults(func=_cmd_stream)

    p = sub.add_parser("score", help="score hypotheses against references")
    p.add_argument("--ref")
    p.add_argument("--hyp")
    p.add_argument("--events", action="store_const", const=True,
                   help="inputs are event JSONL files, not transcript lines")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("decode-posteriors",
                       help="beam search over an external posterior file")
    p.add_argument("--posteriors")
    _add_beam_flags(p)
    p.set_defaults(func=_cmd_decode_posteriors)

    for p_ in sub.choices.values():
        p_.add_argument("--config", action=_ConfigFile,
                        help="JSON config file (flat, flag names without "
                             "dashes)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (VadAsrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8 text: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
