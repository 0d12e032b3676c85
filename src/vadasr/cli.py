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
from .metrics import (corpus_error_rate, score_events, segments_to_mask,
                      vad_metrics)
from .model import ModelParams, PosteriorGrid
from .streamer import (
    StreamerConfig,
    read_events,
    run_stream,
    validate_events,
    write_events,
)
from .trainer import TrainConfig, train

_POST_MAGIC = b"VAP1"


# ---------------------------------------------------------------------------
# external posterior interchange format


def load_external_posteriors(path) -> PosteriorGrid:
    """magic VAP1, u32 T, u32 K, then T*K little-endian f64 log-probs, with
    ``vocab`` and ``blank_index`` in a JSON sidecar at ``path + ".json"``."""
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
        blank = sidecar["blank_index"]
        if type(blank) is not int:
            raise TypeError(f"blank_index must be a JSON int, got {blank!r}")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{sidecar_path}: bad posterior sidecar: "
                          f"{type(exc).__name__}: {exc}") from exc
    if K != len(vocab) + 1 or blank != len(vocab):
        raise FormatError(f"{path}: sidecar vocab inconsistent with K={K}")
    rowsums = np.exp(arr).sum(axis=1)
    if not np.all(np.abs(rowsums - 1.0) <= 1e-3):  # a NaN row fails too
        worst = float(np.abs(rowsums - 1.0).max())
        raise FormatError(f"{path}: rows not normalized (max dev {worst:.2e})")
    return PosteriorGrid(log_probs=arr, vocab=vocab)


# ---------------------------------------------------------------------------
# options: one table per subcommand
#
# Each table maps a key to its type and default. The key's flag is
# ``--key-with-dashes``, a ``bool`` key is a flag that takes no value, and a
# ``_REQUIRED`` key must come from its flag or the config file. A default
# that a package dataclass holds is read from it.

_REQUIRED = object()
# each streamer setting ``X_frames`` is the flag ``--X-s`` in seconds
_SPANS = ("min_speech", "min_silence", "max_chunk", "splice")

_GEN_CORPUS = {
    "out": (str, _REQUIRED), "vocab_size": (int, CorpusSpec.vocab_size),
    "count": (int, CorpusSpec.utterance_count), "seed": (int, CorpusSpec.seed),
    "symbols_min": (int, CorpusSpec.symbols_per_utterance[0]),
    "symbols_max": (int, CorpusSpec.symbols_per_utterance[1]),
    "tone_min_s": (float, CorpusSpec.tone_duration_s[0]),
    "tone_max_s": (float, CorpusSpec.tone_duration_s[1]),
    "gap_min_s": (float, CorpusSpec.gap_duration_s[0]),
    "gap_max_s": (float, CorpusSpec.gap_duration_s[1]),
    "noise": (float, CorpusSpec.noise_amplitude),
}
_TRAIN = {
    "corpus": (str, _REQUIRED), "dev_manifest": (str, None),
    "stage": (str, "asr"), "out": (str, _REQUIRED), "init": (str, None),
    # None: the stage's recipe (epochs, lr) or TrainConfig's (vad_weight)
    "epochs": (int, None), "lr": (float, None), "vad_weight": (float, None),
    "batch_size": (int, TrainConfig.batch_size),
    "seed": (int, TrainConfig.seed),
    "chunk_min_s": (float, TrainConfig.chunk_min_s),
    "chunk_max_s": (float, TrainConfig.chunk_max_s),
    "splice_s": (float, TrainConfig.splice_s),
    "report": (str, None), "lm_out": (str, None), "lm_order": (int, 4),
}
_STREAM = {
    "model": (str, _REQUIRED), "wav": (str, _REQUIRED), "out": (str, None),
    "validate": (bool, False),
    "vad_threshold": (float, StreamerConfig.vad_threshold),
    **{f"{span}_s": (float, getattr(StreamerConfig, f"{span}_frames")
                     * FRAME_DURATION_S) for span in _SPANS},
}
_BEAM = {
    "beam_size": (int, BeamConfig.beam_size),
    "lm_weight": (float, BeamConfig.lm_weight),
    "word_score": (float, BeamConfig.word_score),
    "lm_path": (str, None), "greedy": (bool, False),
}
_SCORE = {"ref": (str, _REQUIRED), "hyp": (str, _REQUIRED),
          "events": (bool, False)}
# Per-stage recipes, by --stage: the stage, its epochs and its peak learning
# rate. The ASR stage needs many optimizer steps at a high peak rate to
# escape the blank-heavy plateau; fine-tuning stages need less.
_STAGES = {"asr": ("asr_only", 24, 5e-3), "mtl": ("mtl", 8, 2e-3),
           "vad": ("vad_only", 8, 5e-3)}


def _resolve(args: argparse.Namespace) -> dict:
    """Each option's value: its flag over ``--config FILE`` over its default.
    The file is a flat JSON object keyed like the table; each value must
    have its option's type (an int stands for a float), and null leaves the
    default."""
    cfg = {}
    if args.config is not None:
        try:
            cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read config {args.config}: {exc}")
        if not isinstance(cfg, dict):
            raise DataError(f"config {args.config} must be a JSON object")
    unknown = set(cfg) - set(args.options)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    values = {}
    for key, (kind, default) in args.options.items():
        value = cfg.get(key)
        if not (value is None or type(value) is kind
                or (kind is float and type(value) is int)):
            raise UsageError(f"config key {key!r} must be {kind.__name__}, "
                             f"got {type(value).__name__} {value!r}")
        flag = getattr(args, key, None)  # segment has no beam flags
        values[key] = (flag if flag is not None
                       else default if value is None else value)
    for key, (_, default) in args.options.items():
        if default is _REQUIRED and values[key] in (_REQUIRED, ""):
            raise UsageError(f"--{key.replace('_', '-')} is required")
    return values


def _streamer_config(opts: dict) -> StreamerConfig:
    try:
        return StreamerConfig(
            vad_threshold=opts["vad_threshold"],
            **{f"{span}_frames": to_frames(opts[f"{span}_s"])
               for span in _SPANS})
    except InvalidSpecError as exc:  # the values came from flags or config
        raise UsageError(str(exc)) from exc


def _beam_config(opts: dict) -> BeamConfig | None:
    if opts["greedy"]:
        return None
    lm = NgramLM.load(opts["lm_path"]) if opts["lm_path"] else None
    return BeamConfig(beam_size=opts["beam_size"], lm_weight=opts["lm_weight"],
                      word_score=opts["word_score"], lm=lm)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_corpus(o):
    try:
        spec = CorpusSpec(
            vocab_size=o["vocab_size"], utterance_count=o["count"],
            symbols_per_utterance=(o["symbols_min"], o["symbols_max"]),
            tone_duration_s=(o["tone_min_s"], o["tone_max_s"]),
            gap_duration_s=(o["gap_min_s"], o["gap_max_s"]),
            noise_amplitude=o["noise"], seed=o["seed"])
    except InvalidSpecError as exc:  # the values came from flags or config
        raise UsageError(str(exc)) from exc
    utts = gen_synthetic_corpus(spec)
    manifest = write_corpus(o["out"], utts, default_vocab(spec.vocab_size))
    print(f"wrote {len(utts)} utterances to {manifest}")
    return 0


def _cmd_train(o):
    if o["stage"] not in _STAGES:
        raise UsageError(f"unknown stage {o['stage']!r}")
    stage, epochs, lr = _STAGES[o["stage"]]
    if stage != "mtl" and o["vad_weight"] is not None:
        raise UsageError(f"vad_weight applies only to --stage mtl, not "
                         f"--stage {o['stage']}")
    if stage == "vad_only" and o["init"]:
        raise UsageError("init applies only to --stage asr and mtl: "
                         "--stage vad trains a fresh model")
    if o["lm_order"] < 1:
        raise UsageError(f"lm_order must be >= 1, got {o['lm_order']}")
    try:
        config = TrainConfig(
            stage=stage, epochs=epochs if o["epochs"] is None else o["epochs"],
            learning_rate=lr if o["lr"] is None else o["lr"],
            **{key: o[key] for key in ("batch_size", "seed", "vad_weight",
                                       "chunk_min_s", "chunk_max_s",
                                       "splice_s") if o[key] is not None})
    except DataError as exc:  # every value here came from a flag or config
        raise UsageError(str(exc)) from exc
    corpus, vocab = read_corpus(o["corpus"])
    # a gram longer than [BOS] + transcript + [EOS] only adds [BOS] padding
    bound = max(len(u.transcript) for u in corpus) + 2
    if o["lm_out"] and o["lm_order"] > bound:
        raise UsageError(f"lm_order {o['lm_order']} is above the corpus's "
                         f"longest transcript + 2, {bound}")
    dev = read_corpus(o["dev_manifest"])[0] if o["dev_manifest"] else None
    model = (ModelParams.load(o["init"]) if o["init"]
             else ModelParams.init(vocab, seed=o["seed"]))
    model, report = train(model, corpus, config, dev)
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


def _cmd_stream(o, decode):
    """``transcribe`` decodes each event; ``segment`` finds boundaries only."""
    cfg = _streamer_config(o)
    model = ModelParams.load(o["model"])
    frames = frame_stream(read_wav(o["wav"]))
    beam = _beam_config(o) if decode else None
    streamer = run_stream(model, frames, cfg, beam, decode=decode)
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


def _cmd_score(o):
    report: dict = {"deter": None, "fa": None, "miss": None}
    if o["events"]:
        ref_ev, hyp_ev = read_events(o["ref"]), read_events(o["hyp"])
        n = max([1] + [ev.end for ev in ref_ev + hyp_ev])
        ref_tokens = [t for ev in ref_ev for t in ev.text]
        ref_mask = segments_to_mask(ref_ev, n, FRAME_DURATION_S)
        if ref_tokens:
            err, vr = score_events(ref_tokens, ref_mask, hyp_ev)
        else:  # no text, as `segment` writes: DetER only
            err, vr = None, vad_metrics(ref_mask, segments_to_mask(
                hyp_ev, n, FRAME_DURATION_S))
        report.update({"deter": vr.deter, "fa": vr.fa, "miss": vr.miss})
        n_utts = 1
    else:
        refs, hyps = map(_read_transcript_lines, (o["ref"], o["hyp"]))
        if len(refs) != len(hyps):
            raise DataError(f"ref has {len(refs)} lines, hyp has {len(hyps)}")
        err = corpus_error_rate(zip(refs, hyps))
        n_utts = len(refs)
    rates = (err.rate, err.sub, err.del_, err.ins) if err else (None,) * 4
    report.update(zip(("cer", "sub", "del", "ins"), rates), n_utts=n_utts)
    print(json.dumps(report))
    return 0


def _cmd_decode_posteriors(o):
    grid = load_external_posteriors(o["posteriors"])
    beam = _beam_config(o)
    tokens = (greedy_decode(grid) if beam is None
              else beam_search(grid, beam)[0].tokens)
    print(" ".join(tokens))
    return 0


# ---------------------------------------------------------------------------


_COMMANDS = {  # name: (help, handler, options)
    "gen-corpus": ("generate a synthetic corpus", _cmd_gen_corpus,
                   _GEN_CORPUS),
    "train": ("train a model stage", _cmd_train, _TRAIN),
    "transcribe": ("stream a WAV and decode events",
                   lambda o: _cmd_stream(o, decode=True), {**_STREAM, **_BEAM}),
    # segment takes transcribe's beam keys, from a config file only
    "segment": ("stream a WAV, boundaries only",
                lambda o: _cmd_stream(o, decode=False), {**_STREAM, **_BEAM}),
    "score": ("score hypotheses against references (with --events, the "
              "inputs are event JSONL files, not transcript lines)",
              _cmd_score, _SCORE),
    "decode-posteriors": ("beam search over an external posterior file",
                          _cmd_decode_posteriors,
                          {"posteriors": (str, _REQUIRED), **_BEAM}),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="vadasr",
                     description="streaming VAD + CTC ASR at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, handler, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=text, description=text)
        for key, (kind, _) in options.items():
            if name == "segment" and key in _BEAM:
                continue
            flag = "--" + key.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, action="store_const", const=True)
            else:
                p.add_argument(flag, type=kind)
        p.add_argument("--config", help="JSON config file (flat, flag names "
                                        "without dashes)")
        p.set_defaults(func=handler, options=options)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(_resolve(args))
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
