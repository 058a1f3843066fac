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


def fab_gate(x: Tensor, params: dict) -> Tensor:
    """The block's (N,1,1,C) gate over (N,H,W,C) input, strictly in (0, 1).

    gate = sigmoid(W2 . relu(W1 . spatial_mean(x) + b1) + b2), with the
    weights read from ``params``'s ``fab.*`` entries (a model's ``params``
    will do; other entries are ignored).
    """
    reduced = relu(dense(mean_spatial(x), params["fab.reduce.weight"],
                         params["fab.reduce.bias"]))
    return sigmoid(dense(reduced, params["fab.expand.weight"],
                         params["fab.expand.bias"]))


def fab_forward(x: Tensor, params: dict) -> Tensor:
    """Apply the attention block to (N,H,W,C) input: x * fab_gate(x) + x.

    The gate is one scalar per image and channel, so the block commutes
    with a spatial mean up to rounding: on the map's (N,1,1,C) channel
    means it gives the same gate and the means of its output on the map.
    """
    return ew_add(ew_mul(x, fab_gate(x, params)), x)


def fab_gate_stats(gate: Tensor) -> GateStats:
    """Summarize an (N,1,1,C) gate per channel across the batch."""
    g = gate.data.reshape(gate.shape[0], -1)
    return GateStats(minimum=g.min(axis=0), mean=g.mean(axis=0),
                     maximum=g.max(axis=0))
