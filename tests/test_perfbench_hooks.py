"""What the benchmark in ``perfbench/`` relies on in the package: the names
its layer hooks wrap, and the checkpoint sidecar of its fixture model."""

import sys
from pathlib import Path

import pytest

from vadasr import autodiff, model, streamer, trainer

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's ``fixture``, ``layers``, ``spans`` and ``workloads``
    modules, imported from its directory and forgotten afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import fixture
    import layers
    import spans
    import workloads
    yield fixture, layers, spans, workloads
    for name, module in list(sys.modules.items()):
        if Path(getattr(module, "__file__", None) or "/").parent == PERFBENCH:
            del sys.modules[name]


def test_layer_hooks_install_and_uninstall(perfbench):
    # install wraps every hooked name at its caller's module or class; a
    # renamed or deleted name fails here with AttributeError
    _, layers, spans, _ = perfbench
    watched = [(trainer, "mtl_loss"), (trainer, "sample_chunk_len"),
               (trainer, "forward"), (model, "encode_features"),
               (streamer.ModelScorer, "__call__"), (autodiff, "backward")]
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


def test_fixture_sidecar_bytes(perfbench, tmp_path):
    fixture = perfbench[0]
    fixture.load_fixture().save(tmp_path / "m.ckpt")
    assert (tmp_path / "m.ckpt.json").read_bytes() == (
        b'{"vocab": ["a", "b", "c", "d", "e"], "dims": {"vocab_size": 5, '
        b'"d_model": 32, "n_heads": 2, "conv1_channels": 16, "ffn_dim": 64, '
        b'"vad_kernel_width": 5}}')
