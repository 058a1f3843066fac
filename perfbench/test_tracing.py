"""The traced run must time fabnet without changing it.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import sys

import numpy as np
import pytest

import fabnet
import fabnet.cli  # noqa: F401  (every fabnet module the benchmark loads)
import tracing
from fabnet.model import ConvBlockSpec, ModelConfig
from fabnet.training import SplitData, TrainConfig


def _snapshot():
    mods = {name: dict(vars(m)) for name, m in sys.modules.items()
            if m is not None and (name == "fabnet" or name.startswith("fabnet."))}
    mods["Tape"] = dict(vars(fabnet.tensor.Tape))
    return mods


def _traced_training(tracer):
    """One tiny training run, looked up the way the CLI looks it up."""
    cfg = ModelConfig(input_size=(8, 8), blocks=(ConvBlockSpec(4), ConvBlockSpec(8)),
                      fab_ratio=4, head_hidden=4, num_classes=3)
    rng = np.random.default_rng(0)
    data = SplitData(rng.uniform(size=(6, 8, 8, 3)), np.arange(6) % 3,
                     rng.uniform(size=(3, 8, 8, 3)), np.arange(3))
    span = tracer.begin_op()
    try:
        model = fabnet.training.build_model(cfg, 0)
        fabnet.training.train(model, data, TrainConfig(batch_size=3, max_epochs=2))
    finally:
        tracer.close(span)


def test_traced_run_restores_every_rebound_attribute():
    before = _snapshot()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer):
            assert fabnet.model.conv2d is not before["fabnet.model"]["conv2d"]
            assert fabnet.cli.load_checkpoint is not before["fabnet.cli"]["load_checkpoint"]
            _traced_training(tracer)
            raise RuntimeError("leave the block by an exception")
    after = _snapshot()
    assert after.keys() == before.keys()
    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys(), owner
        changed = [a for a, v in attrs.items() if after[owner][a] is not v]
        assert not changed, (owner, changed)
    assert not tracer.absent


def test_missing_hook_target_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + (
        ("fabnet.model", "no_such_function", "model.no_such_function"),
        ("fabnet.no_such_module", "conv2d", "gone.conv2d")))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        _traced_training(tracer)
    assert tracer.absent == ["fabnet.model.no_such_function",
                             "fabnet.no_such_module.conv2d"]
    metrics, top5 = tracing.layer_metrics(tracer)
    assert metrics["model.conv2d.b0.fwd_ms"] > 0


def test_layer_metrics_of_a_training_run():
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        _traced_training(tracer)
    m, top5 = tracing.layer_metrics(tracer)
    for name in ("model.conv2d.b0.fwd_ms", "model.conv2d.b1.bwd_ms",
                 "model.conv2d.b1.gflop_s", "tensor.backward.self_ms",
                 "attention.fab_forward.bwd_ms", "training.adam_step.ms"):
        assert m[name] > 0, name
    assert m["model.conv2d.b2.fwd_ms"] == 0
    # 2 epochs x 2 batches, plus a validation sweep per epoch on the dead tape.
    assert m["tensor.relu.calls"] == 4 * 4 + 2 * 4
    assert 0 < m["tensor.nodes_swept"] < m["tensor.nodes_recorded"]
    assert m["tensor.node_use_ratio"] == m["tensor.nodes_swept"] / m["tensor.nodes_recorded"]
    assert len(top5) == 5
