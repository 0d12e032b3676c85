"""Acceptance criteria 6-9 over rounding-level redraws of the acceptance
recipe.

A draw is the recipe of ``tests/test_acceptance.py``'s ``trained`` fixture
with every initial parameter multiplied by ``1 + 1e-14 * N(0, 1)``, drawn by
``np.random.default_rng(draw)`` over the parameters in ``param_layout``
order. Draw 0 is unperturbed: it is the model Tier-1 checks. A change that
rounds differently reports draws 0-5 before and after (see the README's
"Rounding changes" section); no threshold, seed or dev-set size moves.

Run from the repository root (pytest does not collect this file):

    PYTHONPATH=src python tests/draws.py 0 1 2 3 4 5

Each draw trains for about 25 s on one core and prints one line with
criteria 6-9 as the acceptance tests compute them, and whether each passes.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from vadasr.audio import CorpusSpec, default_vocab, gen_synthetic_corpus
from vadasr.metrics import vad_metrics
from vadasr.model import ModelParams
from vadasr.trainer import (TrainConfig, evaluate, train_stage1_asr,
                            train_stage2_mtl, train_vad_stl_baseline)

from test_acceptance import _mask_pair

PERTURBATION = 1e-14
CAPACITIES = (0.64, 1.0, 3.0, 5.0)


def initial_model(draw: int) -> ModelParams:
    """The recipe's initial model, redrawn at rounding level unless
    ``draw`` is 0."""
    model = ModelParams.init(default_vocab(5), seed=7)
    if draw:
        rng = np.random.default_rng(draw)
        for t in model.params.values():
            t.data = t.data * (1.0 + PERTURBATION * rng.normal(size=t.shape))
    return model


def run_draw(draw: int) -> dict:
    """Criteria 6-9's values for one draw, trained as the ``trained``
    fixture trains and evaluated as criteria 6-9 evaluate."""
    train = gen_synthetic_corpus(CorpusSpec(utterance_count=200, seed=7))
    dev = gen_synthetic_corpus(CorpusSpec(utterance_count=50, seed=8))
    t0 = time.time()
    stage1, _ = train_stage1_asr(
        initial_model(draw), train,
        TrainConfig(stage="asr_only", epochs=24, learning_rate=5e-3,
                    batch_size=4, seed=7))
    mtl, _ = train_stage2_mtl(
        stage1, train, TrainConfig(stage="mtl", epochs=8, learning_rate=2e-3,
                                   batch_size=4, seed=8, vad_weight=2.0))
    train_s = time.time() - t0
    stl, _ = train_vad_stl_baseline(
        train, TrainConfig(stage="vad_only", epochs=4, learning_rate=5e-3,
                           batch_size=4, seed=9), default_vocab(5))
    seg = evaluate(mtl, dev, mode="segmented")
    stl_deter = vad_metrics(*_mask_pair(stl, dev)).deter
    stream = {c: evaluate(mtl, dev, mode="streaming", l_asr_s=c)["cer"]
              for c in CAPACITIES}
    cers = [stream[c] for c in CAPACITIES]
    return {
        "train_s": train_s, "cer": seg["cer"], "deter": seg["deter"],
        "stream": stream, "stl_deter": stl_deter,
        "pass": {
            6: train_s < 600 and seg["cer"] < 0.15 and seg["deter"] < 0.10,
            7: all(b <= a + 0.01 for a, b in zip(cers, cers[1:])),
            8: seg["deter"] <= stl_deter + 0.01,
            9: stream[3.0] <= seg["cer"] + 0.03,
        },
    }


def row(draw: int, r: dict) -> str:
    """One markdown table row: draw, criteria 6-9, and the failing ones."""
    failed = [str(n) for n, ok in r["pass"].items() if not ok]
    return (f"| {draw} | {r['cer']:.3f}, {r['deter']:.4f} | "
            + "/".join(f"{r['stream'][c]:.3f}" for c in CAPACITIES)
            + f" | {r['deter']:.4f} vs {r['stl_deter']:.4f} | "
            f"{r['stream'][3.0]:.3f} vs {r['cer']:.3f} | "
            + (f"FAIL {', '.join(failed)}" if failed else "pass") + " |")


def main(argv: list[str]) -> int:
    draws = [int(a) for a in argv] or list(range(6))
    print("| draw | 6: segmented CER, VAD | 7: CER at "
          + "/".join(f"{c}" for c in CAPACITIES)
          + " s | 8: MTL vs STL VAD | 9: streaming vs segmented | 6-9 |")
    print("|---|---|---|---|---|---|")
    failures = 0
    for draw in draws:
        r = run_draw(draw)
        failures += not all(r["pass"].values())
        print(row(draw, r), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
