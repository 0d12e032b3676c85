"""Trained-model fixture for the benchmark.

The fixture is the acceptance recipe's joint model: stage 1 (ASR only) for
24 epochs with trainer seed 7, then stage 2 (joint VAD + CTC, chunked
attention) for 8 epochs with trainer seed 8, both on the 200-utterance
seed-7 corpus, starting from ``ModelParams.init(seed=7)``.

It is stored as an uncompressed ``.npz`` of float64 arrays plus one JSON
string for vocabulary and dimensions, so it depends on numpy alone and not
on the package's own checkpoint format. ``content_sha256`` hashes the
parameters canonically (sorted names, shapes, little-endian bytes) and the
metadata; the benchmark refuses to run when it differs from ``FIXTURE_SHA256``.

Regenerate it (about 80 s on one core) from the repository root with

    python3 perfbench/fixture.py

which retrains, writes ``perfbench/fixture_mtl.npz`` and reports whether
the new content hash equals the pinned one. Never retrain it to flatter a
result: a different hash means a different benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

# One BLAS thread: multi-threaded reductions may change the trained bits.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

FIXTURE_PATH = Path(__file__).resolve().parent / "fixture_mtl.npz"
FIXTURE_SHA256 = ("c3dcb10efaec8e702c5a32cf89c7976d"
                  "5bfeacf8778dc32ba853c7ea8ee6484d")
_META_KEY = "__meta__"

TRAIN_CORPUS_SEED = 7
VOCAB_SIZE = 5


class FixtureError(RuntimeError):
    """The stored fixture is missing or does not match its pinned hash."""


def content_sha256(meta: dict, arrays: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(meta, sort_keys=True).encode())
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name], dtype="<f8")
        h.update(name.encode())
        h.update(json.dumps(list(a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _model_meta(model) -> dict:
    d = model.dims
    return {"vocab": list(model.vocab),
            "dims": {"vocab_size": d.vocab_size, "d_model": d.d_model,
                     "n_heads": d.n_heads, "conv1_channels": d.conv1_channels,
                     "ffn_dim": d.ffn_dim,
                     "vad_kernel_width": d.vad_kernel_width}}


def save_fixture(model, path=FIXTURE_PATH) -> str:
    meta = _model_meta(model)
    arrays = {k: np.asarray(t.data, dtype="<f8")
              for k, t in model.params.items()}
    np.savez(path, **arrays, **{_META_KEY: np.array(json.dumps(meta))})
    return content_sha256(meta, arrays)


def load_fixture(path=FIXTURE_PATH, expected_sha256=FIXTURE_SHA256):
    """Load the fixture as a ``ModelParams``; raise ``FixtureError`` when the
    file is missing or its content hash is not the pinned one."""
    from vadasr import autodiff as ad
    from vadasr.model import ModelDims, ModelParams

    try:
        with np.load(path, allow_pickle=False) as z:
            meta = json.loads(str(z[_META_KEY]))
            arrays = {k: z[k] for k in z.files if k != _META_KEY}
    except (OSError, KeyError, ValueError) as exc:
        raise FixtureError(f"cannot read fixture {path}: {exc}") from exc
    digest = content_sha256(meta, arrays)
    if digest != expected_sha256:
        raise FixtureError(f"fixture {path} has content hash {digest}, "
                           f"expected {expected_sha256}")
    params = {k: ad.Tensor(np.array(a, dtype=np.float64), name=k)
              for k, a in arrays.items()}
    return ModelParams(meta["vocab"], ModelDims(**meta["dims"]), params)


def train_fixture():
    from vadasr.audio import CorpusSpec, default_vocab, gen_synthetic_corpus
    from vadasr.model import ModelParams
    from vadasr.trainer import TrainConfig, train_stage1_asr, train_stage2_mtl

    train = gen_synthetic_corpus(CorpusSpec(utterance_count=200,
                                            seed=TRAIN_CORPUS_SEED))
    init = ModelParams.init(default_vocab(VOCAB_SIZE), seed=7)
    stage1, _ = train_stage1_asr(
        init, train, TrainConfig(stage="asr_only", epochs=24,
                                 learning_rate=5e-3, batch_size=4, seed=7))
    mtl, _ = train_stage2_mtl(
        stage1, train, TrainConfig(stage="mtl", epochs=8, learning_rate=2e-3,
                                   batch_size=4, seed=8, vad_weight=2.0))
    return mtl


def main() -> int:
    ap = argparse.ArgumentParser(description="Retrain the benchmark fixture.")
    ap.add_argument("--out", type=Path, default=FIXTURE_PATH)
    args = ap.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    digest = save_fixture(train_fixture(), args.out)
    print(f"wrote {args.out}; content sha256 {digest}")
    if digest != FIXTURE_SHA256:
        print(f"differs from the pinned {FIXTURE_SHA256}", file=sys.stderr)
        return 1
    print("matches the pinned hash")
    return 0


if __name__ == "__main__":
    sys.exit(main())
