"""Rank-4 NHWC tensors with a reverse-mode differentiation tape.

``tensor_new`` makes float64 leaves. Every operation keeps its operands'
dtype (complex128 inside ``grad_check``), and a gradient takes the dtype
of what it differentiates, so float32 leaves backpropagate in float32.
Every forward operation either runs untracked (pure numpy, no graph) or
records one node on the tape of its tracked operands, holding just enough
state to produce exact gradients when ``backward`` replays the tape in
reverse.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import GraphError, ShapeError


class Tensor:
    """A rank-4 array, optionally tied to a tape node.

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
    """Record of one forward pass, swept once by ``backward``.

    Node ids are assigned in creation order, so every operand id is
    smaller than its consumer's id and a single reverse sweep visits
    each node exactly once, dropping each rule once it has run. A tape is
    owned by one forward/backward pass: a training step watches fresh
    leaves over the parameters' arrays, so only the step's locals refer
    to its tape, and nothing recorded later lands on it.
    """

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list = []

    def record(self, op: str, parents: Sequence[Optional[int]],
               backward: Optional[Callable]) -> int:
        self.nodes.append(_Node(op, tuple(parents), backward))
        return len(self.nodes) - 1

    def watch(self, t: Tensor) -> None:
        """Register an untracked tensor as a leaf of this tape."""
        if t.tracked:
            raise GraphError("watch: tensor is already tracked on a tape")
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
    mask = x.data.real > 0.0
    return _emit("relu", (x,), np.where(mask, x.data, 0.0),
                 lambda g: (g * mask,))


def sigmoid(x: Tensor) -> Tensor:
    """Logistic function in the sign-branched form, overflow-free.

    ``e`` is ``exp(-d)`` where ``d >= 0`` and ``exp(d)`` elsewhere, so
    ``1/(1+e)`` and ``e/(1+e)`` are the two branches' bytes. The branch
    reads the real part, so a complex ``d`` stays on one branch.
    """
    d = x.data
    pos = d.real >= 0.0
    e = np.exp(np.where(pos, -d, d))
    s = 1.0 + e
    out = np.where(pos, 1.0 / s, e / s)
    return _emit("sigmoid", (x,), out, lambda g: (g * out * (1.0 - out),))


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements as a (1,1,1,1) scalar tensor."""
    out = x.data.sum(keepdims=True)
    shape = x.shape

    def back(g):
        return (np.full(shape, g.reshape(-1)[0]),)

    return _emit("sum_all", (x,), out, back)


def _swept(g):
    raise GraphError("rule already run: a tape is swept once")


def backward(tape: Tape, loss: Tensor) -> dict:
    """Reverse-mode gradients of a scalar loss for every reached leaf.

    Seeds the loss gradient with a 1 of the loss's dtype and sweeps the
    tape once in reverse id order, so repeated runs are bit-identical.
    Returns leaf node_id -> gradient tensor of the leaf's shape, for the
    leaves (the nodes ``Tape.watch`` records) that the loss depends on. A
    non-leaf node's gradient is freed as soon as its rule has consumed it,
    and the rule itself, with the arrays it saved, as soon as it has run,
    so the sweep holds only what earlier nodes still need. A rule that has
    run is replaced by one that raises ``GraphError``: a tape is swept once.
    """
    if not isinstance(loss, Tensor) or loss.tape is not tape or not loss.tracked:
        raise GraphError("loss tensor was not recorded on this tape")
    if loss.data.size != 1:
        raise ShapeError(f"loss must be scalar, got shape {loss.shape}")

    grads: dict = {loss.node_id: np.ones_like(loss.data)}
    for nid in range(loss.node_id, -1, -1):
        node = tape.nodes[nid]
        if node.backward is None or nid not in grads:
            continue
        pgs = node.backward(grads.pop(nid))
        tape.nodes[nid] = node._replace(backward=_swept)
        for pid, pg in zip(node.parents, pgs):
            if pid is None or pg is None:
                continue
            prev = grads.get(pid)
            grads[pid] = pg if prev is None else prev + pg
    return {nid: Tensor(g) for nid, g in grads.items()}


_STEP = 1e-30   # complex step h: no difference is taken, so h can be tiny


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor) -> float:
    """Compare reverse-mode gradients of ``f`` against the complex step.

    The reference is ``Im f(x + i*h*e_k) / h`` per coordinate k (Squire &
    Trapp, SIAM Review 40(1), 1998): nothing cancels, and branches read
    the real part, so at a kink it is the active piece's derivative, as
    the tape's is. ``f`` must map one leaf tensor to a scalar tensor
    computed from that leaf, be deterministic and carry an imaginary part
    through its forward. Returns the max over coordinates of
    ``|a - n| / max(1e-12, |a| + |n|)``.
    """
    tape = Tape()
    leaf = tensor_new(x.shape, x.values, track=True, tape=tape)
    out = f(leaf)
    if not np.all(np.isfinite(out.data)):
        raise ValueError("grad_check: function produced a non-finite value")
    aflat = backward(tape, out)[leaf.node_id].values

    worst = 0.0
    for i in range(aflat.size):
        stepped = x.values.astype(np.complex128)
        stepped[i] += _STEP * 1j
        value = f(Tensor(stepped.reshape(x.shape))).data.reshape(-1)[0]
        if not np.isfinite(value):
            raise ValueError("grad_check: function produced a non-finite value")
        numeric = value.imag / _STEP
        err = abs(aflat[i] - numeric) / max(1e-12, abs(aflat[i]) + abs(numeric))
        if err > worst:
            worst = err
    return worst
