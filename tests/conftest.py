import sys
from pathlib import Path

import numpy as np
import pytest

import vadasr.autodiff as ad
from vadasr.model import PosteriorGrid


def random_grid(rng, T, vocab_size) -> PosteriorGrid:
    """Random normalized posterior grid over vocab + blank."""
    vocab = [chr(ord("a") + i) for i in range(vocab_size)]
    logits = rng.normal(size=(T, vocab_size + 1))
    logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return PosteriorGrid(log_probs=ad.Tensor(logp), vocab=vocab)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# importing perfbench's ``fixture`` sets each of these to 1
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's ``fixture``, ``layers``, ``spans`` and ``workloads``
    modules, imported from its directory and forgotten afterwards, with the
    BLAS thread variables as they were before."""
    # setenv records each variable's value, or that it was unset, for undo
    # (a delenv of an unset variable records nothing)
    for name in BLAS_THREAD_VARS:
        monkeypatch.setenv(name, "1")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import fixture
    import layers
    import spans
    import workloads
    yield fixture, layers, spans, workloads
    for name, module in list(sys.modules.items()):
        if Path(getattr(module, "__file__", None) or "/").parent == PERFBENCH:
            del sys.modules[name]
