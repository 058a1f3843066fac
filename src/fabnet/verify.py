"""Finite-difference verification of every backward rule.

Each check builds a scalar-valued function around one op (or around the
attention block / the whole model) and compares reverse-mode gradients
against central differences for every input leg. Inputs whose forward
pass sits near a ReLU or max-pool decision boundary are redrawn, since
finite differences are meaningless across a kink; the margins are read
from the real forward (``fab_forward``'s activations, and
``model_forward``'s observer for the whole model).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .attention import fab_forward, fab_init
from .model import ConvBlockSpec, ModelConfig, build_model, conv2d, maxpool2x2, model_forward
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


def _uniform(rng, shape, away_from_zero: float = 0.0) -> np.ndarray:
    x = rng.uniform(-2.0, 2.0, size=shape)
    if away_from_zero:
        x[np.abs(x) < away_from_zero] += 0.5
    return x


def _distinct(rng, shape) -> np.ndarray:
    # Distinct values with generous spacing, for argmax-based ops.
    count = int(np.prod(shape))
    return (rng.permutation(count).reshape(shape) * (4.0 / count)) - 2.0


def _t(data) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float64))


def _check_ew_add(rng):
    a = _t(_uniform(rng, (2, 3, 3, 4)))
    b = _t(_uniform(rng, (2, 3, 3, 4)))
    yield lambda leaf: sum_all(ew_add(leaf, b)), a
    yield lambda leaf: sum_all(ew_add(a, leaf)), b


def _check_ew_mul(rng):
    a = _t(_uniform(rng, (2, 3, 3, 4)))
    b = _t(_uniform(rng, (2, 3, 3, 4)))
    yield lambda leaf: sum_all(ew_mul(leaf, b)), a
    yield lambda leaf: sum_all(ew_mul(a, leaf)), b


def _check_ew_mul_gate(rng):
    a = _t(_uniform(rng, (2, 3, 3, 4)))
    gate = _t(_uniform(rng, (2, 1, 1, 4)))
    yield lambda leaf: sum_all(ew_mul(leaf, gate)), a
    yield lambda leaf: sum_all(ew_mul(a, leaf)), gate


def _check_mean_spatial(rng):
    x = _t(_uniform(rng, (2, 4, 4, 3)))
    yield lambda leaf: sum_all(mean_spatial(leaf)), x


def _check_dense(rng):
    x = _t(_uniform(rng, (3, 1, 1, 5)))
    w = _t(_uniform(rng, (1, 1, 4, 5)))
    b = _t(_uniform(rng, (1, 1, 1, 4)))
    yield lambda leaf: sum_all(dense(leaf, w, b)), x
    yield lambda leaf: sum_all(dense(x, leaf, b)), w
    yield lambda leaf: sum_all(dense(x, w, leaf)), b


def _check_relu(rng):
    x = _t(_uniform(rng, (2, 3, 3, 4), away_from_zero=1e-3))
    yield lambda leaf: sum_all(relu(leaf)), x


def _check_sigmoid(rng):
    x = _t(_uniform(rng, (2, 3, 3, 4)))
    yield lambda leaf: sum_all(sigmoid(leaf)), x


def _check_sum_all(rng):
    x = _t(_uniform(rng, (2, 3, 3, 4)))
    yield lambda leaf: sum_all(leaf), x


def _check_conv2d(rng):
    x = _t(_uniform(rng, (2, 6, 6, 3)))
    w = _t(_uniform(rng, (3, 3, 3, 4)) * 0.5)
    b = _t(_uniform(rng, (1, 1, 1, 4)))
    yield lambda leaf: sum_all(conv2d(leaf, w, b)), x
    yield lambda leaf: sum_all(conv2d(x, leaf, b)), w
    yield lambda leaf: sum_all(conv2d(x, w, leaf)), b


def _check_maxpool2x2(rng):
    x = _t(_distinct(rng, (2, 4, 4, 3)))
    yield lambda leaf: sum_all(maxpool2x2(leaf)), x


def _check_softmax_cross_entropy(rng):
    logits = _t(_uniform(rng, (4, 1, 1, 5)))
    labels = rng.integers(0, 5, size=4)
    yield lambda leaf: softmax_cross_entropy(leaf, labels), logits


def _check_attention_block(rng):
    # Redraw until no bottleneck pre-activation sits near the ReLU kink.
    for _ in range(64):
        x = _t(_uniform(rng, (2, 4, 4, 8)))
        params = fab_init(8, 4, rng)
        pooled = fab_forward(x, params).pooled
        if np.abs(dense(pooled, params.w_reduce, params.b_reduce).data).min() > 1e-3:
            break

    def composite(leaf):
        return sum_all(fab_forward(leaf, params).out)

    yield composite, x
    for name in ("w_reduce", "b_reduce", "w_expand", "b_expand"):
        def wrt_param(leaf, _name=name):
            return sum_all(fab_forward(x, replace(params, **{_name: leaf})).out)
        yield wrt_param, getattr(params, name)


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
            p = model.fab_params()
            value = dense(value.pooled, p.w_reduce, p.b_reduce)
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
        x = _t(rng.uniform(0.0, 1.0, size=(2, 6, 6, 3)))
        if _kink_margin(model, x) >= 1e-3:
            break
    labels = np.array([0, 1])

    def wrt_input(leaf):
        return softmax_cross_entropy(model_forward(model, leaf), labels)

    yield wrt_input, x
    for name in model.params:
        def wrt_param(leaf, _name=name):
            original = model.params[_name]
            model.params[_name] = leaf
            try:
                return softmax_cross_entropy(model_forward(model, x), labels)
            finally:
                model.params[_name] = original
        yield wrt_param, model.params[name]


CHECKS = (
    ("ew_add", _check_ew_add),
    ("ew_mul", _check_ew_mul),
    ("ew_mul_gate", _check_ew_mul_gate),
    ("mean_spatial", _check_mean_spatial),
    ("dense", _check_dense),
    ("relu", _check_relu),
    ("sigmoid", _check_sigmoid),
    ("sum_all", _check_sum_all),
    ("conv2d", _check_conv2d),
    ("maxpool2x2", _check_maxpool2x2),
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
