"""Spans around the calls into each layer, and the per-layer metrics.

The layers are the package's modules. ``install`` wraps each public function
at the name its caller looks up, so the package itself is unchanged:

- model: ``encode_features``, ``vad_forward``, ``context_forward``,
  ``cross_task_attend`` and ``asr_head`` in ``vadasr.model``, and
  ``forward`` as ``vadasr.streamer`` and ``vadasr.trainer`` see it;
- streamer: ``Streamer.push_frame`` and ``finalize`` (the stream roots),
  ``ModelScorer.__call__`` and ``ModelDecoder.__call__``;
- decode: ``greedy_decode`` and ``beam_search`` as the streamer sees them;
  calls of ``NgramLM.score`` are counted without a span, because a span on
  each of its many calls would inflate beam search's time;
- trainer: ``train_stage2_mtl`` (the training root), ``clip_gradients``
  and ``Adam.step``;
- audio, chunking, losses, autodiff: ``frame_stream``, ``plan_chunks``,
  ``sample_chunk_len``, ``ctc_loss``, ``bce_loss``, ``mtl_loss`` as the
  trainer sees them, and ``vadasr.autodiff.backward``.

Request ids are the index of the event a frame contributes to (streams) and
the utterance index in the corpus (training). A metric of a layer that a
workload does not run reads 0.
"""

from __future__ import annotations

from vadasr import autodiff, decode, model, streamer, trainer

from spans import Recorder

LAYERS = ("audio", "autodiff", "model", "losses", "chunking", "streamer",
          "decode", "trainer")


def install(rec: Recorder, corpus=()) -> None:
    c = rec.counts

    def add(key, n):
        c[key] += n

    rec.wrap(model, "encode_features", "model.encode_features",
             after=lambda a, out: add("encoded_frames", len(a[0])))
    for fn in ("vad_forward", "context_forward", "cross_task_attend",
               "asr_head"):
        rec.wrap(model, fn, f"model.{fn}")

    def event_request(a):
        rec.request_id = len(a[0].events)

    def decoded(a, out):
        add("window_frames", len(a[1]))
        add("span_frames", a[3])

    rec.wrap(streamer.Streamer, "push_frame", "streamer.push_frame",
             before=event_request)
    rec.wrap(streamer.Streamer, "finalize", "streamer.finalize",
             before=event_request)
    rec.wrap(streamer.ModelScorer, "__call__", "streamer.ModelScorer")
    rec.wrap(streamer.ModelDecoder, "__call__", "streamer.ModelDecoder",
             after=decoded)
    def forward_starts(a):
        c["_attention_evals_before"] = a[1].attention_evals

    def forward_ends(a, out):
        add("attention_evals",
            a[1].attention_evals - c["_attention_evals_before"])

    rec.wrap(streamer, "forward", "model.forward", before=forward_starts,
             after=forward_ends)
    rec.wrap(streamer, "greedy_decode", "decode.greedy_decode",
             after=lambda a, out: add("greedy_frames", len(a[0])))
    rec.wrap(streamer, "beam_search", "decode.beam_search",
             after=lambda a, out: add("beam_frames", len(a[0])))
    rec.count_calls(decode.NgramLM, "score", "lm_scores")

    index = {id(u.audio): i for i, u in enumerate(corpus)}

    def utterance_request(a):
        rec.request_id = index.get(id(a[0]), -1)

    def planned(a, layout):
        add("chunks", len(layout.chunks))
        add("chunk_window_frames",
            sum(ch.window[1] - ch.window[0] for ch in layout.chunks))
        add("chunk_body_frames", layout.total_T)

    rec.wrap(trainer, "train_stage2_mtl", "trainer.train_stage2_mtl")
    rec.wrap(trainer, "frame_stream", "audio.frame_stream",
             before=utterance_request)
    rec.wrap(trainer, "plan_chunks", "chunking.plan_chunks", after=planned)
    rec.wrap(trainer, "sample_chunk_len", "chunking.sample_chunk_len")
    rec.wrap(trainer, "forward", "model.forward", before=forward_starts,
             after=forward_ends)
    for fn in ("ctc_loss", "bce_loss", "mtl_loss"):
        rec.wrap(trainer, fn, f"losses.{fn}")
    rec.wrap(autodiff, "backward", "autodiff.backward",
             before=lambda a: add("tape_nodes", len(a[0])))
    rec.wrap(trainer, "clip_gradients", "trainer.clip_gradients")
    rec.wrap(trainer.Adam, "step", "trainer.Adam.step")


def metrics(rec: Recorder, *, wall_s: float, input_frames: int,
            utterances: int, steps: int, skips: int, gen_s: float,
            forced: int, end_of_utterance: int,
            overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced part of a run, name -> (value, unit).

    ``input_frames`` are the frames pushed (streams) or trained (training);
    ``utterances`` and ``steps`` are zero for streams."""
    spans = rec.by_name()
    c = rec.counts

    def per(x, n):
        return x / n if n else 0.0

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def mean(name, scale):
        return per(total(name), calls(name)) * scale

    n_push, _, push_self = spans.get("streamer.push_frame", (0, 0.0, 0.0))
    _, _, loop_self = spans.get("trainer.train_stage2_mtl", (0, 0.0, 0.0))
    by_layer = rec.self_by_layer()
    out = {
        "streamer.ModelScorer.us_per_frame":
            (mean("streamer.ModelScorer", 1e6), "us"),
        "streamer.push_frame.self_us": (per(push_self, n_push) * 1e6, "us"),
        "streamer.ModelDecoder.ms_per_event":
            (mean("streamer.ModelDecoder", 1e3), "ms"),
        "streamer.window_frames_per_span_frame":
            (per(c["window_frames"], c["span_frames"]), "ratio"),
        "streamer.events.forced": (forced, "count"),
        "streamer.events.end_of_utterance": (end_of_utterance, "count"),
        "decode.beam_search.us_per_frame":
            (per(total("decode.beam_search"), c["beam_frames"]) * 1e6, "us"),
        "decode.NgramLM.score.calls_per_frame":
            (per(c["lm_scores"], c["beam_frames"]), "ratio"),
        "decode.greedy_decode.us_per_frame":
            (per(total("decode.greedy_decode"), c["greedy_frames"]) * 1e6,
             "us"),
        "model.encode_features.frames_per_input_frame":
            (per(c["encoded_frames"], input_frames), "ratio"),
        "model.encode_features.us_per_call":
            (mean("model.encode_features", 1e6), "us"),
        "model.vad_forward.us_per_call": (mean("model.vad_forward", 1e6), "us"),
        "model.context_forward.ms_per_call":
            (mean("model.context_forward", 1e3), "ms"),
        "model.cross_task_attend.ms_per_call":
            (mean("model.cross_task_attend", 1e3), "ms"),
        "model.asr_head.ms_per_call": (mean("model.asr_head", 1e3), "ms"),
        "model.attention_evals_per_utt":
            (per(c["attention_evals"], calls("model.forward")), "ratio"),
        "autodiff.backward.ms_per_call":
            (mean("autodiff.backward", 1e3), "ms"),
        "autodiff.tape_nodes_per_utt":
            (per(c["tape_nodes"], calls("autodiff.backward")), "ratio"),
        "losses.ctc_loss.ms_per_call": (mean("losses.ctc_loss", 1e3), "ms"),
        "losses.bce_loss.ms_per_call": (mean("losses.bce_loss", 1e3), "ms"),
        "losses.infeasible_skips": (skips, "count"),
        "chunking.plan_chunks.chunks_per_utt":
            (per(c["chunks"], calls("chunking.plan_chunks")), "ratio"),
        "chunking.window_frames_per_body_frame":
            (per(c["chunk_window_frames"], c["chunk_body_frames"]), "ratio"),
        "trainer.Adam.step.ms_per_call": (mean("trainer.Adam.step", 1e3), "ms"),
        "trainer.clip_gradients.ms_per_call":
            (mean("trainer.clip_gradients", 1e3), "ms"),
        "trainer.loop.self_ms_per_step": (per(loop_self, steps) * 1e3, "ms"),
        "audio.frame_stream.calls_per_utt":
            (per(calls("audio.frame_stream"), utterances), "ratio"),
        "audio.gen_synthetic_corpus.s": (gen_s, "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
        "trace.root_coverage_pct":
            (per(rec.root_seconds(), wall_s) * 100, "%"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_pct"] = (per(by_layer.get(layer, 0.0), wall_s)
                                    * 100, "%")
    return out
