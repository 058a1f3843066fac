"""Rank-4 NHWC tensors with a reverse-mode differentiation tape.

All arithmetic is 64-bit. Every forward operation either runs untracked
(pure numpy, no graph) or records one node on the tape of its tracked
operands, holding just enough state to produce exact gradients when
``backward`` replays the tape in reverse.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import GraphError, ShapeError


class Tensor:
    """A rank-4 float64 array, optionally tied to a tape node.

    ``data`` is row-major (batch, height, width, channel). Tensors are
    value-immutable once created; only the optimizer mutates parameter
    data, under exclusive ownership. ``tape``/``node_id`` tie a tensor to
    the tape that recorded it. A model's own parameters are never tied:
    ``Model.watch_trainable`` watches fresh leaves sharing their data.
    """

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, data: np.ndarray, tape: Optional["Tape"] = None,
                 node_id: Optional[int] = None):
        if data.ndim != 4:
            raise ShapeError(f"tensor data must be rank 4, got rank {data.ndim}")
        self.data = data
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def values(self) -> np.ndarray:
        """Flat row-major view of the element values."""
        return self.data.reshape(-1)

    @property
    def tracked(self) -> bool:
        return self.node_id is not None

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        track = f", node_id={self.node_id}" if self.tracked else ""
        return f"Tensor(shape={self.shape}{track})"


class _Node(NamedTuple):
    op: str
    parents: tuple
    backward: Optional[Callable]


class Tape:
    """Append-only record of one forward pass.

    Node ids are assigned in creation order, so every operand id is
    smaller than its consumer's id and a single reverse sweep visits
    each node exactly once. A tape is owned by one forward/backward
    pass: a training step watches fresh leaves over the parameters'
    arrays, so only the step's locals refer to its tape, and nothing
    recorded later lands on it.
    """

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list = []

    def record(self, op: str, parents: Sequence[Optional[int]],
               backward: Optional[Callable]) -> int:
        self.nodes.append(_Node(op, tuple(parents), backward))
        return len(self.nodes) - 1

    def watch(self, t: Tensor) -> None:
        """Register an existing tensor as a leaf of this tape."""
        t.tape = self
        t.node_id = self.record("leaf", (), None)


def tensor_new(shape, values, track: bool = False,
               tape: Optional[Tape] = None) -> Tensor:
    """Create a tensor from flat row-major values.

    With ``track=True`` the tensor is registered as a leaf on ``tape``
    and will receive a gradient from ``backward``.
    """
    shape = tuple(shape)
    if len(shape) != 4:
        raise ShapeError(f"shape must have 4 extents, got {shape}")
    if min(shape) < 1:
        raise ShapeError(f"all extents must be >= 1, got {shape}")
    data = np.asarray(values, dtype=np.float64).reshape(-1)
    if data.size != math.prod(shape):
        raise ShapeError(
            f"got {data.size} values for shape {shape} "
            f"({math.prod(shape)} elements)")
    if not np.all(np.isfinite(data)):
        raise ValueError("tensor values must be finite")
    out = Tensor(data.reshape(shape).copy())
    if track:
        if tape is None:
            raise GraphError("track=True requires a tape")
        tape.watch(out)
    return out


def _emit(op: str, operands: Sequence[Tensor], data: np.ndarray,
          backward: Optional[Callable]) -> Tensor:
    """Result of ``op``, on the tracked operands' one tape or untracked."""
    tape = None
    for t in operands:
        if t.tracked:
            if tape is None:
                tape = t.tape
            elif t.tape is not tape:
                raise GraphError(f"{op}: operands recorded on different tapes")
    if tape is None:
        return Tensor(data)
    nid = tape.record(op, tuple(t.node_id for t in operands), backward)
    return Tensor(data, tape, nid)


def ew_add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; gradients pass through unchanged to both operands."""
    if a.shape != b.shape:
        raise ShapeError(f"ew_add: shapes {a.shape} and {b.shape} differ")
    return _emit("ew_add", (a, b), a.data + b.data, lambda g: (g, g))


def ew_mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product.

    ``b`` may alternatively have shape (batch, 1, 1, channels), in which
    case it gates every spatial position of ``a`` and its gradient is
    the spatial sum of ``g * a``. No other broadcast is permitted.
    """
    gate = a.shape != b.shape
    if gate and b.shape != (a.shape[0], 1, 1, a.shape[3]):
        raise ShapeError(f"ew_mul: shapes {a.shape} and {b.shape} "
                         "are neither equal nor (batch,1,1,channels) gate-compatible")
    # The rule closes over the arrays, not the tensors: a tensor points
    # at its tape, and tape -> node -> rule -> tensor -> tape would be a
    # cycle that keeps every finished tape alive until the cyclic GC runs.
    ad, bd = a.data, b.data

    def back(g):
        gb = g * ad
        return (g * bd, gb.sum(axis=(1, 2), keepdims=True) if gate else gb)

    return _emit("ew_mul", (a, b), ad * bd, back)


def mean_spatial(x: Tensor) -> Tensor:
    """Per-channel mean over the spatial extent: (N,H,W,C) -> (N,1,1,C)."""
    _, h, w, _ = x.shape
    out = x.data.mean(axis=(1, 2), keepdims=True)
    shape = x.shape

    def back(g):
        return (np.broadcast_to(g / (h * w), shape).copy(),)

    return _emit("mean_spatial", (x,), out, back)


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map on flattened (N,1,1,Din) inputs.

    ``w`` holds a Dout x Din matrix as a (1,1,Dout,Din) tensor and ``b``
    a Dout vector as (1,1,1,Dout); the output is (N,1,1,Dout).
    """
    n, h, ww, din = x.data.shape
    if (h, ww) != (1, 1):
        raise ShapeError(f"dense: input spatial extent must be 1x1, got {x.data.shape}")
    wn, wh, dout, wc = w.data.shape
    if (wn, wh, wc) != (1, 1, din):
        raise ShapeError(f"dense: weight {w.data.shape} does not accept "
                         f"{din}-channel input")
    if b.data.shape != (1, 1, 1, dout):
        raise ShapeError(f"dense: bias {b.data.shape} does not match "
                         f"{dout} outputs")
    x2 = x.data.reshape(n, din)
    wm = w.data.reshape(dout, din)
    out = (x2 @ wm.T + b.data.reshape(dout)).reshape(n, 1, 1, dout)

    def back(g):
        g2 = g.reshape(n, dout)
        return ((g2 @ wm).reshape(n, 1, 1, din),
                (g2.T @ x2).reshape(1, 1, dout, din),
                g2.sum(axis=0).reshape(1, 1, 1, dout))

    return _emit("dense", (x, w, b), out, back)


def relu(x: Tensor) -> Tensor:
    """max(0, x); the subgradient at exactly 0 is 0."""
    mask = x.data > 0.0
    return _emit("relu", (x,), np.where(mask, x.data, 0.0),
                 lambda g: (g * mask,))


def sigmoid(x: Tensor) -> Tensor:
    """Logistic function in the sign-branched form, overflow-free.

    ``e = exp(-|d|)`` is ``exp(-d)`` where ``d >= 0`` and ``exp(d)``
    elsewhere, so ``1/(1+e)`` and ``e/(1+e)`` are the two branches' bytes.
    """
    d = x.data
    e = np.exp(-np.abs(d))
    s = 1.0 + e
    out = np.where(d >= 0.0, 1.0 / s, e / s)
    return _emit("sigmoid", (x,), out, lambda g: (g * out * (1.0 - out),))


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements as a (1,1,1,1) scalar tensor."""
    out = np.array(x.data.sum(), dtype=np.float64).reshape(1, 1, 1, 1)
    shape = x.shape

    def back(g):
        return (np.full(shape, g.reshape(-1)[0]),)

    return _emit("sum_all", (x,), out, back)


def backward(tape: Tape, loss: Tensor) -> dict:
    """Reverse-mode gradients of a scalar loss for every reached leaf.

    Seeds the loss gradient with 1 and sweeps the tape once in reverse
    id order, so repeated runs are bit-identical. Returns leaf node_id ->
    gradient tensor of the leaf's shape, for the leaves (the nodes
    ``Tape.watch`` records) that the loss depends on. A non-leaf node's
    gradient is freed as soon as its rule has consumed it, so the sweep
    holds only the gradients still owed to earlier nodes; the nodes and
    their rules stay on the tape and remain callable afterwards.
    """
    if not isinstance(loss, Tensor) or loss.tape is not tape or not loss.tracked:
        raise GraphError("loss tensor was not recorded on this tape")
    if loss.data.size != 1:
        raise ShapeError(f"loss must be scalar, got shape {loss.shape}")

    grads: dict = {loss.node_id: np.ones((1, 1, 1, 1))}
    for nid in range(loss.node_id, -1, -1):
        node = tape.nodes[nid]
        if node.backward is None or nid not in grads:
            continue
        pgs = node.backward(grads.pop(nid))
        for pid, pg in zip(node.parents, pgs):
            if pid is None or pg is None:
                continue
            prev = grads.get(pid)
            grads[pid] = pg if prev is None else prev + pg
    return {nid: Tensor(g) for nid, g in grads.items()}


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor,
               eps: float = 1e-5) -> float:
    """Compare reverse-mode gradients of ``f`` against central differences.

    ``f`` must map one leaf tensor to a scalar tensor computed from that
    leaf, and be deterministic. Returns the max over coordinates of
    ``|a - n| / max(1e-12, |a| + |n|)``.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    tape = Tape()
    leaf = tensor_new(x.shape, x.values, track=True, tape=tape)
    out = f(leaf)
    if not np.all(np.isfinite(out.data)):
        raise ValueError("grad_check: function produced a non-finite value")
    grads = backward(tape, out)
    aflat = grads[leaf.node_id].values

    base = x.values.copy()
    worst = 0.0
    for i in range(base.size):
        bumped = base.copy()
        bumped[i] = base[i] + eps
        fp = f(tensor_new(x.shape, bumped)).item()
        bumped[i] = base[i] - eps
        fm = f(tensor_new(x.shape, bumped)).item()
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError("grad_check: function produced a non-finite value")
        numeric = (fp - fm) / (2.0 * eps)
        err = abs(aflat[i] - numeric) / max(1e-12, abs(aflat[i]) + abs(numeric))
        if err > worst:
            worst = err
    return worst
