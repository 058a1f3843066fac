"""Finite-difference verification of every backward rule.

A check yields one ``(f, x)`` pair per input leg, and ``grad_check``
compares the reverse-mode gradient of the scalar ``f`` at ``x`` against
central differences. The per-op checks are rows of one table over one
helper, ``_legs``, which puts a leaf in each operand's place in turn;
the attention block goes through the same helper, and softmax
cross-entropy and the whole model, which need labels and a parameter
swap, have checks of their own. Inputs whose forward pass sits near a
ReLU or max-pool decision boundary are redrawn, since finite differences
are meaningless across a kink; the margins are read from the real
forward (``fab_forward``'s activations, and ``model_forward``'s observer
for the whole model).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import fab_forward, fab_init
from .model import ConvBlockSpec, Model, ModelConfig, build_model, conv2d, maxpool2x2, model_forward
from .tensor import Tensor, dense, ew_add, ew_mul, grad_check, mean_spatial, relu, sigmoid, sum_all
from .training import softmax_cross_entropy

DEFAULT_TOLERANCE = 1e-5
DEFAULT_EPS = 1e-5


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance


def _uniform(rng, shape, scale: float = 1.0, away_from_zero: float = 0.0) -> Tensor:
    x = rng.uniform(-2.0, 2.0, size=shape)
    if away_from_zero:
        x[np.abs(x) < away_from_zero] += 0.5
    return Tensor(x * scale)


def _distinct(rng, shape) -> Tensor:
    # Distinct values with generous spacing, for argmax-based ops.
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
    # Redraw until no bottleneck pre-activation sits near the ReLU kink.
    for _ in range(64):
        x = _uniform(rng, (2, 4, 4, 8))
        p = fab_init(8, 4, rng)
        if np.abs(fab_forward(x, p).bottleneck.data).min() > 1e-3:
            break
    yield from _legs(lambda x, *w: fab_forward(x, dict(zip(p, w))).out,
                     x, *p.values())


def _model_for_check(seed: int):
    cfg = ModelConfig(
        input_size=(6, 6),
        blocks=(ConvBlockSpec(4, pool=True), ConvBlockSpec(6, pool=False)),
        use_fab=True, fab_ratio=3, head_hidden=6, num_classes=3,
    )
    return build_model(cfg, seed)


def _kink_margin(model, x: Tensor) -> float:
    """Distance of the model's forward pass on ``x`` from its nearest kink.

    That is the smallest |pre-activation| over every ReLU, and the
    smallest gap between the two largest values of every max-pool window
    whose maximum is positive (windows of ReLU zeros stay flat), read
    from ``model_forward``'s observer. Pooling blocks are measured in
    VGG's conv → ReLU → pool order (every conv output ``y``, windows of
    ``max(y, 0)``): ReLU is monotone, so that bounds the model's own
    margin from below and keeps the inputs ``model_loss`` draws.
    """
    pooling = {f"block{i}.conv": b.pool for i, b in enumerate(model.config.blocks)}
    margins = []

    def observe(name, value):
        if name == "fab":
            value = value.bottleneck
        margins.append(np.abs(value.data).min())
        if pooling.get(name):
            n, h, w, c = value.shape
            windows = np.sort(np.maximum(value.data, 0.0)
                              .reshape(n, h // 2, 2, w // 2, 2, c)
                              .transpose(0, 1, 3, 5, 2, 4)
                              .reshape(-1, 4), axis=1)
            live = windows[:, 3] > 0.0
            if live.any():
                margins.append((windows[live, 3] - windows[live, 2]).min())

    model_forward(model, x, observe)
    return min(margins)


def _check_model_loss(rng):
    seed = int(rng.integers(0, 2 ** 31))
    model = _model_for_check(seed)
    # Redraw until no ReLU or max-pool decision sits near its kink.
    for _ in range(64):
        x = Tensor(rng.uniform(0.0, 1.0, size=(2, 6, 6, 3)))
        if _kink_margin(model, x) >= 1e-3:
            break
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
    ("relu", lambda rng: _legs(relu, _uniform(rng, _SHAPE, away_from_zero=1e-3))),
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


def run_suite(seed: int = 0, n_seeds: int = 5, eps: float = DEFAULT_EPS,
              tolerance: float = DEFAULT_TOLERANCE) -> list:
    """Run every check over ``n_seeds`` consecutive seeds.

    Returns one CheckResult per op, holding the max relative error seen.
    """
    results = []
    for name, builder in CHECKS:
        worst = 0.0
        for s in range(seed, seed + n_seeds):
            rng = np.random.default_rng([s, len(results)])
            for f, x in builder(rng):
                worst = max(worst, grad_check(f, x, eps=eps))
        results.append(CheckResult(name=name, max_error=worst,
                                   tolerance=tolerance))
    return results
