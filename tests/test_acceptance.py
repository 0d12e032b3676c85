"""End-to-end acceptance checks.

Each test prints exactly one ``[ACCEPTANCE n] PASS/FAIL`` line (run with
``pytest -s`` to see them on passing runs) and then asserts the same
condition, so a red test and a FAIL line always agree.

The trained-model criteria (6-9) share one module-scoped training run:
stage 1 (ASR only) then stage 2 (joint fine-tuning with chunked attention)
on the default synthetic corpus, plus a VAD-only baseline for the
multi-task comparison.
"""

import math
import time

import numpy as np
import pytest

import vadasr.autodiff as ad
from vadasr.audio import (
    CorpusSpec,
    FrameSequence,
    default_vocab,
    frame_stream,
    gen_synthetic_corpus,
)
from vadasr.chunking import plan_chunks
from vadasr.losses import bce_loss, ctc_loss, mtl_loss
from vadasr.metrics import (corpus_error_rate, error_report_from_counts,
                            vad_metrics)
from vadasr.model import (
    FRAME_SAMPLES,
    ModelDims,
    ModelParams,
    PosteriorGrid,
    cross_task_attend,
    encode_features,
    forward,
)
from vadasr.streamer import (
    FORCED,
    Streamer,
    StreamerConfig,
    run_offline_reference,
)
from vadasr.trainer import (
    TrainConfig,
    evaluate,
    train_stage1_asr,
    train_stage2_mtl,
    train_vad_stl_baseline,
)

from oracles import (ExternalScores, ctc_loss_bruteforce, finite_diff_check,
                     mul, stitch_outputs, sum_all)


def report(n: int, ok: bool, detail: str) -> None:
    print(f"\n[ACCEPTANCE {n}] {'PASS' if ok else 'FAIL'} — {detail}")


def random_grid(rng, T, V):
    logits = rng.normal(size=(T, V + 1))
    logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return PosteriorGrid(log_probs=ad.Tensor(logp),
                         vocab=[chr(ord("a") + i) for i in range(V)])


# ---------------------------------------------------------------------------
# 1. CTC loss versus a brute-force path enumeration


def test_criterion_1_ctc_oracle():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    done = 0
    while done < 500:
        T = int(rng.integers(1, 7))
        V = int(rng.integers(1, 4))
        L = int(rng.integers(0, 4))
        grid = random_grid(rng, T, V)
        target = tuple(grid.vocab[i] for i in rng.integers(0, V, size=L))
        node = ctc_loss([grid], [target])[0]
        if node is None:  # too few frames for the target
            continue
        loss = float(node.data)
        worst = max(worst, abs(loss - ctc_loss_bruteforce(grid, target)))
        done += 1
    # uniform grid, T=2, one label: three of four alignments hit the label
    uni = PosteriorGrid(log_probs=ad.Tensor(np.full((2, 2), math.log(0.5))),
                        vocab=["a"])
    hand_err = abs(float(ctc_loss([uni], [("a",)])[0].data)
                   - (-math.log(0.75)))
    dt = time.time() - t0
    ok = worst <= 1e-9 and hand_err <= 1e-12 and dt < 10.0
    report(1, ok, f"brute-force CTC on 500 instances: max |Δ|={worst:.2e} "
                  f"(tol 1e-9), hand value |Δ|={hand_err:.2e} (tol 1e-12), "
                  f"{dt:.1f}s (budget 10s)")
    assert worst <= 1e-9
    assert hand_err <= 1e-12
    assert dt < 10.0


# ---------------------------------------------------------------------------
# 2. Analytic gradients versus central finite differences


def test_criterion_2_gradient_checks():
    rng = np.random.default_rng(202)
    t0 = time.time()
    tol = 1e-4
    worst = {"ctc": 0.0, "bce": 0.0, "xattn": 0.0, "mtl": 0.0}

    for _ in range(20):
        grid = random_grid(rng, int(rng.integers(4, 7)), int(rng.integers(2, 4)))
        target = tuple(rng.choice(grid.vocab, size=2))

        def f_ctc(params):
            g = PosteriorGrid(log_probs=params[0], vocab=grid.vocab)
            return ctc_loss([g], [target])[0]

        worst["ctc"] = max(worst["ctc"],
                           finite_diff_check(f_ctc, [grid.log_probs]))

    for _ in range(20):
        p = ad.Tensor(rng.uniform(0.05, 0.95, size=int(rng.integers(3, 10))))
        y = rng.random(p.shape[0]) > 0.5
        worst["bce"] = max(worst["bce"], finite_diff_check(
            lambda params: bce_loss(params[0], y), [p]))

    dims = ModelDims(vocab_size=2, d_model=4, n_heads=2, conv1_channels=2,
                     ffn_dim=4, vad_kernel_width=3)
    for i in range(20):
        model = ModelParams.init(["a", "b"], dims, seed=300 + i)
        T = int(rng.integers(2, 5))
        C = ad.Tensor(rng.normal(size=(T, 4)))
        H = ad.Tensor(rng.normal(size=(T, 4)))
        w = rng.normal(size=(T, 4))

        def f_xattn(params):
            return sum_all(mul(cross_task_attend(params[0], params[1],
                                                 model), w))

        tensors = [C, H, model.params["xattn_wq"], model.params["xattn_wv"]]
        worst["xattn"] = max(worst["xattn"],
                             finite_diff_check(f_xattn, tensors))

    names = ["enc2_k", "vad_k", "ctx_wq", "xattn_wv", "asr_w", "vad_fc_w"]
    for i in range(20):
        model = ModelParams.init(["a", "b"], dims, seed=400 + i)
        T = int(rng.integers(3, 5))
        frames = FrameSequence(rng.normal(0.0, 0.1, size=(T, FRAME_SAMPLES)))
        target = tuple(rng.choice(["a", "b"], size=1))
        mask = rng.random(T) > 0.5
        picked = [model.params[n] for n in rng.choice(names, 2, replace=False)]

        def f_mtl(params):
            grid, probs = forward(encode_features(frames, model), model)
            ctc = ctc_loss([grid], [target])[0]
            ce = bce_loss(probs, mask)
            return mtl_loss(ctc, ce, vad_weight=1.5)

        worst["mtl"] = max(worst["mtl"], finite_diff_check(f_mtl, picked))

    dt = time.time() - t0
    ok = all(v <= tol for v in worst.values()) and dt < 60.0
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    report(2, ok, f"finite-difference max rel err over 20 configs each: "
                  f"{detail} (tol 1e-4), {dt:.1f}s (budget 60s)")
    for k, v in worst.items():
        assert v <= tol, k
    assert dt < 60.0


# ---------------------------------------------------------------------------
# 3. Online state machine versus the offline reference


def test_criterion_3_streamer_equivalence():
    rng = np.random.default_rng(303)
    t0 = time.time()
    mismatches = 0
    invariant_failures = 0
    for _ in range(1000):
        n = int(rng.integers(1, 2001))
        scores = rng.random(n)
        cfg = StreamerConfig(
            vad_threshold=float(rng.uniform(0.3, 0.7)),
            min_speech_frames=int(rng.integers(1, 5)),
            min_silence_frames=int(rng.integers(1, 8)),
            max_chunk_frames=int(rng.integers(5, 60)),
            splice_frames=int(rng.integers(0, 4)))
        streamer = Streamer(cfg, ExternalScores(scores))
        frame = np.zeros(4)
        for _ in range(n):
            streamer.push_frame(frame)
        streamer.finalize()
        online = [(ev.start, ev.end, ev.cause) for ev in streamer.events]
        offline = run_offline_reference(scores, cfg)
        if online != offline:
            mismatches += 1
            continue
        prev_end = 0
        prev_cause = None
        for start, end, cause in online:
            if not (prev_end <= start < end <= n):
                invariant_failures += 1
            # a bridged silence run (< min_silence frames) can land inside a
            # forced span, so the capacity bound carries that slack
            if not (cfg.min_speech_frames <= end - start
                    <= cfg.max_chunk_frames + cfg.min_silence_frames - 1):
                invariant_failures += 1
            # a span that opens a new utterance (i.e. does not continue a
            # forced flush) begins on a speech frame
            if prev_cause != FORCED and scores[start] < cfg.vad_threshold:
                invariant_failures += 1
            prev_end = end
            prev_cause = cause
    dt = time.time() - t0
    ok = mismatches == 0 and invariant_failures == 0 and dt < 30.0
    report(3, ok, f"online == offline on 1000 random streams (len ≤ 2000), "
                  f"exact: {mismatches} mismatches, "
                  f"{invariant_failures} invariant failures, "
                  f"{dt:.1f}s (budget 30s)")
    assert mismatches == 0
    assert invariant_failures == 0
    assert dt < 30.0


# ---------------------------------------------------------------------------
# 4. Metric identities and published-table cross-checks


def _edit_distance_quadratic(ref, hyp):
    """Plain Levenshtein DP, distance only — independent of edit_counts'
    backtrace."""
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        cur = [i]
        for j, h in enumerate(hyp, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (r != h)))
        prev = cur
    return prev[-1]


def test_criterion_4_metric_identities():
    rng = np.random.default_rng(404)
    deter_ok = ter_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 200))
        ref = rng.random(n) > 0.5
        hyp = rng.random(n) > 0.5
        rep = vad_metrics(ref, hyp)
        if rep.deter != rep.fa + rep.miss:
            deter_ok = False
    vocab = ["a", "b", "c"]
    for _ in range(1000):
        ref = list(rng.choice(vocab, size=int(rng.integers(1, 15))))
        hyp = list(rng.choice(vocab, size=int(rng.integers(0, 15))))
        rep = corpus_error_rate([(ref, hyp)])
        if rep.n_sub + rep.n_del + rep.n_ins != _edit_distance_quadratic(ref,
                                                                         hyp):
            ter_ok = False
        if rep.rate != rep.sub + rep.del_ + rep.ins:
            ter_ok = False

    # published decompositions, reconstructed from integer counts per 1000
    def detection_row(n_fa, n_miss, total=1000):
        ref = np.r_[np.ones(n_miss + 500, bool),
                    np.zeros(total - n_miss - 500, bool)]
        hyp = np.r_[np.ones(500, bool), np.zeros(n_miss, bool),
                    np.ones(n_fa, bool),
                    np.zeros(total - 500 - n_miss - n_fa, bool)]
        rep = vad_metrics(ref, hyp)
        return (rep.deter == rep.fa + rep.miss
                and abs(rep.fa - n_fa / total) < 1e-12
                and abs(rep.miss - n_miss / total) < 1e-12
                and abs(rep.deter - (n_fa + n_miss) / total) < 1e-12)

    row_a = detection_row(47, 186)   # 4.7 + 18.6 = 23.3
    row_b = detection_row(53, 125)   # 5.3 + 12.5 = 17.8
    ter = error_report_from_counts(134, 52, 18, 1000)
    row_c = (ter.rate == ter.sub + ter.del_ + ter.ins
             and abs(ter.sub - 0.134) < 1e-12
             and abs(ter.del_ - 0.052) < 1e-12
             and abs(ter.ins - 0.018) < 1e-12
             and abs(ter.rate - 0.204) < 1e-12)  # 13.4 + 5.2 + 1.8 = 20.4

    ok = deter_ok and ter_ok and row_a and row_b and row_c
    report(4, ok, f"detection rate == fa+miss exact on 1000 pairs ({deter_ok}), "
                  f"token error rate matches DP oracle on 1000 pairs ({ter_ok}), "
                  f"decomposition rows 4.7+18.6=23.3 / 5.3+12.5=17.8 / "
                  f"13.4+5.2+1.8=20.4 within 1e-12 "
                  f"({row_a and row_b and row_c})")
    assert deter_ok and ter_ok and row_a and row_b and row_c


# ---------------------------------------------------------------------------
# 5. Chunked attention identity and stitched coverage


def test_criterion_5_chunking_identity():
    rng = np.random.default_rng(505)
    model = ModelParams.init(default_vocab(3), seed=5)
    frames = FrameSequence(rng.normal(0.0, 0.1, size=(12, FRAME_SAMPLES)))
    Z = encode_features(frames, model)
    plain = forward(Z, model)[0].array
    single = forward(Z, model, layout=plan_chunks(12, 12))[0].array
    max_diff = float(np.max(np.abs(plain - single)))

    coverage_failures = 0
    for _ in range(200):
        T = int(rng.integers(1, 400))
        body = int(rng.integers(1, 60))
        left = int(rng.integers(0, 20))
        right = int(rng.integers(0, 20))
        layout = plan_chunks(T, body, left, right)
        # stitching per-chunk "outputs" that carry absolute indices must
        # reconstruct 0..T-1 exactly
        outs = [np.arange(c.body[0], c.body[1], dtype=float)
                for c in layout.chunks]
        stitched = stitch_outputs(outs, layout)
        if not np.array_equal(stitched, np.arange(T, dtype=float)):
            coverage_failures += 1

    ok = max_diff <= 1e-9 and coverage_failures == 0
    report(5, ok, f"single all-covering chunk vs unchunked: max |Δ|="
                  f"{max_diff:.2e} (tol 1e-9); stitched coverage exact on "
                  f"200 random layouts ({coverage_failures} failures)")
    assert max_diff <= 1e-9
    assert coverage_failures == 0


# ---------------------------------------------------------------------------
# 6-9. Trained-model criteria (one shared training run)


@pytest.fixture(scope="module")
def trained():
    train = gen_synthetic_corpus(CorpusSpec(utterance_count=200, seed=7))
    dev = gen_synthetic_corpus(CorpusSpec(utterance_count=50, seed=8))
    t0 = time.time()
    init = ModelParams.init(default_vocab(5), seed=7)
    stage1, _ = train_stage1_asr(
        init, train, TrainConfig(stage="asr_only", epochs=24,
                                 learning_rate=5e-3, batch_size=4, seed=7))
    mtl, _ = train_stage2_mtl(
        stage1, train, TrainConfig(stage="mtl", epochs=8, learning_rate=2e-3,
                                   batch_size=4, seed=8, vad_weight=2.0))
    train_s = time.time() - t0
    stl, _ = train_vad_stl_baseline(
        train, TrainConfig(stage="vad_only", epochs=4, learning_rate=5e-3,
                           batch_size=4, seed=9), default_vocab(5))
    seg = evaluate(mtl, dev, mode="segmented")
    stl_vad = vad_metrics(*_mask_pair(stl, dev))
    return {"dev": dev, "mtl": mtl, "stl": stl, "train_s": train_s,
            "segmented": seg, "stl_vad": stl_vad}


def _mask_pair(model, corpus):
    from vadasr.model import vad_score_frames

    refs, hyps = [], []
    for utt in corpus:
        frames = frame_stream(utt.audio)
        probs = vad_score_frames(frames, model).data
        refs.append(utt.speech_mask[:len(probs)])
        hyps.append(probs >= 0.5)
    return np.concatenate(refs), np.concatenate(hyps)


@pytest.fixture(scope="module")
def stream_cers(trained):
    out = {}
    for l_asr in (0.64, 1.0, 3.0, 5.0):
        rep = evaluate(trained["mtl"], trained["dev"], mode="streaming",
                       l_asr_s=l_asr)
        out[l_asr] = rep["cer"]
    return out


def test_criterion_6_desk_scale_end_to_end(trained):
    cer = trained["segmented"]["cer"]
    deter = trained["segmented"]["deter"]
    train_s = trained["train_s"]
    ok = train_s < 600 and cer < 0.15 and deter < 0.10
    report(6, ok, f"stage-1 + stage-2 training {train_s:.0f}s (budget 600s); "
                  f"dev greedy CER={cer:.3f} (< 0.15); "
                  f"dev VAD error={deter:.4f} (< 0.10)")
    assert train_s < 600
    assert cer < 0.15
    assert deter < 0.10


def test_criterion_7_capacity_trend(stream_cers):
    caps = sorted(stream_cers)
    cers = [stream_cers[c] for c in caps]
    # non-increasing with ASR chunk capacity, within a 1pp noise band
    ok = all(cers[i + 1] <= cers[i] + 0.01 for i in range(len(cers) - 1))
    pairs = ", ".join(f"{c}s→{stream_cers[c]:.3f}" for c in caps)
    report(7, ok, f"streaming CER vs chunk capacity: {pairs} "
                  f"(non-increasing within 1pp)")
    assert ok


def test_criterion_8_mtl_vad_not_worse(trained):
    mtl_deter = trained["segmented"]["deter"]
    stl_deter = trained["stl_vad"].deter
    ok = mtl_deter <= stl_deter + 0.01
    report(8, ok, f"joint-model VAD error {mtl_deter:.4f} vs single-task "
                  f"baseline {stl_deter:.4f} (allowed +1pp)")
    assert ok


def test_criterion_9_streaming_close_to_segmented(trained, stream_cers):
    stream = stream_cers[3.0]
    seg = trained["segmented"]["cer"]
    ok = stream <= seg + 0.03
    report(9, ok, f"streaming CER {stream:.3f} vs segmented {seg:.3f} "
                  f"(allowed +3pp absolute)")
    assert ok
