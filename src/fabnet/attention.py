"""Channel-attention block with a residual skip connection.

The block squeezes each channel to its spatial mean, pushes the means
through a bottleneck dense layer (ReLU) and an expanding dense layer
(sigmoid) to produce a per-channel gate in (0, 1), scales the input by
the gate, and adds the input back. Output shape always equals input
shape, and the whole block is differentiable through the tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .tensor import Tensor, dense, ew_add, ew_mul, mean_spatial, relu, sigmoid


@dataclass(frozen=True)
class FabActivations:
    """Intermediate results of one block application."""

    pooled: Tensor     # (N, 1, 1, C) spatial means
    bottleneck: Tensor  # (N, 1, 1, C/ratio) bottleneck pre-activation
    reduced: Tensor    # (N, 1, 1, C/ratio) after bottleneck + ReLU
    gate: Tensor       # (N, 1, 1, C) sigmoid output, strictly in (0, 1)
    out: Tensor        # (N, H, W, C) input scaled by gate, plus input


@dataclass(frozen=True)
class GateStats:
    """Per-channel min/mean/max of the gate over the batch."""

    minimum: np.ndarray
    mean: np.ndarray
    maximum: np.ndarray


def he_uniform(rng: np.random.Generator, fan_in: int, size) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=size)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   size) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=size)


def fab_init(channels: int, ratio: int, rng: np.random.Generator) -> dict:
    """Draw fresh block weights; deterministic for a given generator state.

    Returns the model's ``fab.*`` entries in its parameter order: the
    bottleneck weight (1, 1, C/ratio, C) is He-uniform (it feeds a ReLU),
    the expanding weight (1, 1, C, C/ratio) Glorot-uniform, and both
    biases start at zero.
    """
    if ratio < 1 or channels % ratio != 0:
        raise ConfigError(f"ratio {ratio} must divide channel count {channels}")
    mid = channels // ratio
    w_reduce = he_uniform(rng, channels, (1, 1, mid, channels))
    w_expand = glorot_uniform(rng, mid, channels, (1, 1, channels, mid))
    return {"fab.reduce.weight": Tensor(w_reduce),
            "fab.reduce.bias": Tensor(np.zeros((1, 1, 1, mid))),
            "fab.expand.weight": Tensor(w_expand),
            "fab.expand.bias": Tensor(np.zeros((1, 1, 1, channels)))}


def fab_gate(x: Tensor, params: dict) -> tuple:
    """(pooled, bottleneck, reduced, gate) of the block over (N,H,W,C) input.

    gate = sigmoid(W2 . relu(W1 . spatial_mean(x) + b1) + b2), with the
    weights read from ``params``'s ``fab.*`` entries (a model's ``params``
    will do; other entries are ignored).
    """
    pooled = mean_spatial(x)
    bottleneck = dense(pooled, params["fab.reduce.weight"],
                       params["fab.reduce.bias"])
    reduced = relu(bottleneck)
    gate = sigmoid(dense(reduced, params["fab.expand.weight"],
                         params["fab.expand.bias"]))
    return pooled, bottleneck, reduced, gate


def fab_apply(x: Tensor, gate: Tensor) -> Tensor:
    """x * gate + x for (N,H,W,C) ``x`` and its (N,1,1,C) ``gate``."""
    return ew_add(ew_mul(x, gate), x)


def fab_forward(x: Tensor, params: dict) -> FabActivations:
    """Apply the attention block to (N,H,W,C) input.

    out = x + sigmoid(W2 . relu(W1 . spatial_mean(x) + b1) + b2) * x:
    ``fab_gate``, then ``fab_apply``.
    """
    pooled, bottleneck, reduced, gate = fab_gate(x, params)
    return FabActivations(pooled=pooled, bottleneck=bottleneck, reduced=reduced,
                          gate=gate, out=fab_apply(x, gate))


def fab_gate_stats(acts: FabActivations) -> GateStats:
    """Summarize the gate per channel across the batch."""
    g = acts.gate.data.reshape(acts.gate.shape[0], -1)
    return GateStats(minimum=g.min(axis=0), mean=g.mean(axis=0),
                     maximum=g.max(axis=0))
