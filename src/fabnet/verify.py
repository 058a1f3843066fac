"""Complex-step verification of every backward rule.

A check yields one ``(f, x)`` pair per input leg, and ``grad_check``
compares the reverse-mode gradient of the scalar ``f`` at ``x`` against
the complex-step derivative. The per-op checks are rows of one table over
one helper, ``_legs``, which puts a leaf in each operand's place in turn;
the attention block goes through the same helper, and softmax
cross-entropy and the whole model, which need labels and a parameter
swap, have checks of their own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import fab_forward, fab_init
from .model import ConvBlockSpec, Model, ModelConfig, build_model, conv2d, maxpool2x2, model_forward
from .tensor import Tensor, dense, ew_add, ew_mul, grad_check, mean_spatial, relu, sigmoid, sum_all
from .training import softmax_cross_entropy

DEFAULT_TOLERANCE = 1e-5


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_error: float

    @property
    def passed(self) -> bool:
        return self.max_error < DEFAULT_TOLERANCE


def _uniform(rng, shape, scale: float = 1.0) -> Tensor:
    return Tensor(rng.uniform(-2.0, 2.0, size=shape) * scale)


def _distinct(rng, shape) -> Tensor:
    # Distinct values, for argmax-based ops: on an exact real tie the
    # complex maximum picks the stepped entry, not the first one.
    count = int(np.prod(shape))
    return Tensor((rng.permutation(count).reshape(shape) * (4.0 / count)) - 2.0)


def _legs(op, *operands):
    """Yield ``(f, operands[i])`` for each operand of ``op`` in turn.

    ``f(leaf)`` is ``sum_all(op(...))`` with ``leaf`` in operand ``i``'s
    place and the other operands as given.
    """
    for i, operand in enumerate(operands):
        def f(leaf, i=i):
            return sum_all(op(*operands[:i], leaf, *operands[i + 1:]))
        yield f, operand


def _check_softmax_cross_entropy(rng):
    logits = _uniform(rng, (4, 1, 1, 5))
    labels = rng.integers(0, 5, size=4)
    yield lambda leaf: softmax_cross_entropy(leaf, labels), logits


def _check_attention_block(rng):
    x = _uniform(rng, (2, 4, 4, 8))
    p = fab_init(8, 4, rng)
    yield from _legs(lambda x, *w: fab_forward(x, dict(zip(p, w))),
                     x, *p.values())


def _model_for_check(seed: int):
    cfg = ModelConfig(
        input_size=(6, 6),
        blocks=(ConvBlockSpec(4, pool=True), ConvBlockSpec(6, pool=False)),
        use_fab=True, fab_ratio=3, head_hidden=6, num_classes=3,
    )
    return build_model(cfg, seed)


def _check_model_loss(rng):
    seed = int(rng.integers(0, 2 ** 31))
    model = _model_for_check(seed)
    x = Tensor(rng.uniform(0.0, 1.0, size=(2, 6, 6, 3)))
    labels = np.array([0, 1])

    def wrt_input(leaf):
        return softmax_cross_entropy(model_forward(model, leaf), labels)

    yield wrt_input, x
    for name in model.params:
        def wrt_param(leaf, _name=name):
            swapped = Model(model.config, model.class_names,
                            {**model.params, _name: leaf}, model.trainable)
            return softmax_cross_entropy(model_forward(swapped, x), labels)
        yield wrt_param, model.params[name]


_SHAPE = (2, 3, 3, 4)

# (name, builder): builder(rng) yields the check's (f, x) legs. Operands
# are drawn left to right, so each row consumes its rng in a fixed order.
CHECKS = (
    ("ew_add", lambda rng: _legs(ew_add, _uniform(rng, _SHAPE), _uniform(rng, _SHAPE))),
    ("ew_mul", lambda rng: _legs(ew_mul, _uniform(rng, _SHAPE), _uniform(rng, _SHAPE))),
    ("ew_mul_gate", lambda rng: _legs(
        ew_mul, _uniform(rng, _SHAPE), _uniform(rng, (2, 1, 1, 4)))),
    ("mean_spatial", lambda rng: _legs(mean_spatial, _uniform(rng, (2, 4, 4, 3)))),
    ("dense", lambda rng: _legs(
        dense, _uniform(rng, (3, 1, 1, 5)), _uniform(rng, (1, 1, 4, 5)),
        _uniform(rng, (1, 1, 1, 4)))),
    ("relu", lambda rng: _legs(relu, _uniform(rng, _SHAPE))),
    ("sigmoid", lambda rng: _legs(sigmoid, _uniform(rng, _SHAPE))),
    ("sum_all", lambda rng: _legs(lambda x: x, _uniform(rng, _SHAPE))),
    ("conv2d", lambda rng: _legs(
        conv2d, _uniform(rng, (2, 6, 6, 3)), _uniform(rng, (3, 3, 3, 4), scale=0.5),
        _uniform(rng, (1, 1, 1, 4)))),
    ("maxpool2x2", lambda rng: _legs(maxpool2x2, _distinct(rng, (2, 4, 4, 3)))),
    ("softmax_cross_entropy", _check_softmax_cross_entropy),
    ("attention_block", _check_attention_block),
    ("model_loss", _check_model_loss),
)


def run_suite(seed: int = 0) -> list:
    """Run every check over five consecutive seeds from ``seed``.

    Returns one CheckResult per op, holding the max relative error seen.
    """
    results = []
    for name, builder in CHECKS:
        worst = 0.0
        for s in range(seed, seed + 5):
            rng = np.random.default_rng([s, len(results)])
            for f, x in builder(rng):
                worst = max(worst, grad_check(f, x))
        results.append(CheckResult(name=name, max_error=worst))
    return results
