"""Float32 leaves keep float32 through every op, rule, Adam step and checkpoint.

The dtype is a property of the leaves: the tape's seed, every forward op
and every backward rule follow it. Float32 bytes depend on the BLAS
kernel (sgemm kernels differ between CPUs), so float32 results are
compared with a float64 run of the same widened values under bounds
stated from float32's eps, never byte for byte.
"""

import itertools

import numpy as np
import pytest

from fabnet import verify
from fabnet.model import (Model, ModelConfig, build_model, load_checkpoint,
                          maxpool2x2, model_forward, save_checkpoint,
                          trainable_parameters)
from fabnet.tensor import Tape, Tensor, backward, sum_all
from fabnet.training import AdamState, adam_step, softmax_cross_entropy
from oracles import maxpool2x2_oracle

EPS32 = float(np.finfo(np.float32).eps)
# New bounds, set from float32's eps before any float32 run was compared.
# Rounding errors of an n-term float32 sum grow like sqrt(n) * eps. The
# widest forward reduction is b2's 3*3*32 = 288-term column (sqrt ~ 17),
# and the widest backward one is b0's weight gradient over 16*32*32 pixels
# (sqrt = 128); each bound is about twice that.
LOGIT_BOUND = 32 * EPS32      # of the largest |logit|
GRAD_BOUND = 256 * EPS32      # of each gradient's largest |entry|

# verify.CHECKS rows that check a composite rather than one op.
COMPOSITE_ROWS = ("attention_block", "model_loss")
OP_ROWS = [name for name, _ in verify.CHECKS if name not in COMPOSITE_ROWS]


def cast(m: Model, dtype) -> Model:
    """``m`` with every parameter converted to ``dtype``."""
    return Model(m.config, m.class_names,
                 {name: Tensor(t.data.astype(dtype)) for name, t in m.params.items()},
                 m.trainable)


def guard_rules(tape: Tape, dtype) -> None:
    """Make every rule on ``tape`` assert that it keeps ``dtype``.

    Rules run in reverse order, so the first failing assertion names the
    op whose rule upcast, or the seed if the sweep started in another dtype.
    """
    def checked(node):
        def rule(g):
            assert g.dtype == dtype, f"backward seeds {node.op} with {g.dtype}"
            pgs = node.backward(g)
            for pg in pgs:
                assert pg is None or pg.dtype == dtype, \
                    f"{node.op}'s rule turns {dtype} into {pg.dtype}"
            return pgs
        return rule

    tape.nodes[:] = [node if node.backward is None
                     else node._replace(backward=checked(node))
                     for node in tape.nodes]


def train_step(m: Model, x: np.ndarray, labels, dtype):
    """Logits, gradients by name and the Adam state after one step."""
    tape = Tape()
    watched = m.watch_trainable(tape)
    logits = model_forward(watched, Tensor(x))
    loss = softmax_cross_entropy(logits, labels)
    guard_rules(tape, dtype)
    grad_map = backward(tape, loss)
    trainable = trainable_parameters(watched)
    grads = {name: grad_map[t.node_id].data for name, t in trainable}
    state = adam_step(trainable, grads, AdamState(), 1e-4)
    return logits.data, grads, state


def test_float32_model_step_stays_float32_and_tracks_float64():
    m32 = cast(build_model(ModelConfig(), seed=0), np.float32)
    m64 = cast(m32, np.float64)
    rng = np.random.default_rng(0)
    x32 = rng.uniform(0.0, 1.0, size=(16, 32, 32, 3)).astype(np.float32)
    labels = rng.integers(0, 5, size=16)

    logits32, grads32, state = train_step(m32, x32, labels, np.float32)
    logits64, grads64, _ = train_step(m64, x32.astype(np.float64), labels,
                                      np.float64)

    assert logits32.dtype == np.float32
    assert len(grads32) == 14
    for name, g in grads32.items():
        assert g.dtype == np.float32, name
        assert state.m[name].dtype == state.v[name].dtype == np.float32, name
        assert m32.params[name].data.dtype == np.float32, name

    logit_err = np.abs(logits32 - logits64).max() / np.abs(logits64).max()
    grad_errs = {name: np.abs(grads32[name] - g).max() / np.abs(g).max()
                 for name, g in grads64.items()}
    print(f"logits: {logit_err:.2e}; worst gradient: "
          f"{max(grad_errs.values()):.2e} of max")
    assert logit_err <= LOGIT_BOUND
    for name, err in grad_errs.items():
        assert err <= GRAD_BOUND, f"{name}: {err:.2e} of its max"


def op_row(name: str, monkeypatch):
    """The op and operands of the per-op ``verify.CHECKS`` row ``name``.

    The rows hand ``verify._legs`` the op and its operands; a stand-in
    returns them instead of the legs. The softmax cross-entropy row yields
    its one leg, a function of the logits, directly.
    """
    monkeypatch.setattr(verify, "_legs", lambda op, *operands: [(op, operands)])
    builder = dict(verify.CHECKS)[name]
    ((op, operands),) = builder(np.random.default_rng(0))
    return op, operands if isinstance(operands, tuple) else (operands,)


@pytest.mark.parametrize("name", OP_ROWS)
def test_op_keeps_float32(name, monkeypatch):
    op, operands = op_row(name, monkeypatch)
    tape = Tape()
    leaves = [Tensor(t.data.astype(np.float32)) for t in operands]
    for leaf in leaves:
        tape.watch(leaf)
    out = op(*leaves)
    if name == "sum_all":   # the row sums an identity op
        out = sum_all(out)
    assert out.data.dtype == np.float32, f"{name}'s forward gives {out.data.dtype}"
    g = np.random.default_rng(1).uniform(-1.0, 1.0, out.shape).astype(np.float32)
    pgs = tape.nodes[out.node_id].backward(g)
    assert len(pgs) == len(leaves)
    for i, pg in enumerate(pgs):
        assert pg.dtype == np.float32, \
            f"{name}'s rule gives operand {i} a {pg.dtype} gradient"


def test_maxpool_float32_rule_matches_loop_oracle_on_ties():
    # Every window over {0, 1, 2}, post-ReLU values with ties at every
    # combination of window positions, as in the float64 oracle test.
    windows = np.array(list(itertools.product([0.0, 1.0, 2.0], repeat=4)))
    rng = np.random.default_rng(21)
    channels = np.stack([windows, windows[rng.permutation(len(windows))]],
                        axis=-1)
    x = (channels.reshape(9, 9, 2, 2, 2).transpose(0, 2, 1, 3, 4)
         .reshape(1, 18, 18, 2).astype(np.float32))
    g = rng.uniform(-1, 1, size=(1, 9, 9, 2)).astype(np.float32)
    _, want = maxpool2x2_oracle(x, g)
    tape = Tape()
    leaf = Tensor(x)
    tape.watch(leaf)
    out = maxpool2x2(leaf)
    (got,) = tape.nodes[out.node_id].backward(g)
    assert got.dtype == want.dtype == np.float32
    assert got.tobytes() == want.tobytes()


def test_float32_checkpoint_is_its_float64_widening(tmp_path):
    m32 = cast(build_model(ModelConfig(), seed=3), np.float32)
    wide = cast(m32, np.float64)
    save_checkpoint(m32, tmp_path / "f32.fabn")
    save_checkpoint(wide, tmp_path / "f64.fabn")
    assert (tmp_path / "f32.fabn").read_bytes() == (tmp_path / "f64.fabn").read_bytes()
    loaded = load_checkpoint(tmp_path / "f32.fabn")
    assert list(loaded.params) == list(wide.params)
    for name, t in wide.params.items():
        assert loaded.params[name].data.dtype == np.float64
        assert loaded.params[name].data.tobytes() == t.data.tobytes()
