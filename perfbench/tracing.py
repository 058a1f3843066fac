"""Span tracing of fabnet from outside the package.

While a ``Tracer`` is installed, the public functions listed in ``HOOKS``
are rebound, under every name a ``fabnet`` module holds them by, to
wrappers that record one span per call. ``Tape.record`` is wrapped too:
it counts recorded nodes and wraps each backward rule so that its run
during ``backward`` becomes a span whose cause is the forward span that
recorded the node. Everything is restored when the tracer is removed.

Spans live in flat in-memory arrays (name, start, end, parent span, cause
span, CLI operation id) and are reduced to per-layer metrics at the end.
"""

from __future__ import annotations

import contextlib
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (module, attribute, span name). A target that no longer exists is
# reported as absent, so internals can be renamed without breaking the run.
HOOKS = (
    ("fabnet.model", "build_model", "model.build_model"),
    ("fabnet.model", "load_checkpoint", "model.load_checkpoint"),
    ("fabnet.model", "model_forward", "model.model_forward"),
    ("fabnet.model", "conv2d", "model.conv2d"),
    ("fabnet.model", "maxpool2x2", "model.maxpool2x2"),
    ("fabnet.tensor", "backward", "tensor.backward"),
    ("fabnet.tensor", "relu", "tensor.relu"),
    ("fabnet.tensor", "dense", "tensor.dense"),
    ("fabnet.tensor", "mean_spatial", "tensor.mean_spatial"),
    ("fabnet.tensor", "sigmoid", "tensor.sigmoid"),
    ("fabnet.tensor", "ew_mul", "tensor.ew_mul"),
    ("fabnet.tensor", "ew_add", "tensor.ew_add"),
    ("fabnet.attention", "fab_forward", "attention.fab_forward"),
    ("fabnet.data", "decode_image", "data.decode_image"),
    ("fabnet.data", "preprocess", "data.preprocess"),
    ("fabnet.data", "load_samples", "data.load_samples"),
    ("fabnet.training", "softmax_cross_entropy", "training.softmax_cross_entropy"),
    ("fabnet.training", "adam_step", "training.adam_step"),
    ("fabnet.training", "metrics_from_predictions",
     "training.metrics_from_predictions"),
    ("fabnet.training", "train", "training.train"),
    ("fabnet.training", "evaluate", "training.evaluate"),
)

# Spans of differentiable ops: each emits exactly one tape node.
OP_SPANS = ("model.maxpool2x2", "tensor.relu", "tensor.dense",
            "tensor.mean_spatial", "tensor.sigmoid", "tensor.ew_mul",
            "tensor.ew_add", "training.softmax_cross_entropy")
CONV = "model.conv2d"
CONV_BLOCKS = 3
TENSOR_OPS = ("relu", "dense", "mean_spatial", "sigmoid", "ew_mul", "ew_add")
CLI_SPAN = "cli.main"


class Tracer:
    """In-memory span store; one instance per traced run."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self._op_names: set = set()
        self._bwd_names: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cause = array("i")
        self.name = array("i")
        self.op = array("i")
        self.stack: list = []
        self.op_id = -1
        self.ops = 0
        self.counts: Counter = Counter()   # (op id, key) -> count
        self.flops: dict = {}              # conv span index -> forward flops
        self.absent: list = []
        self._conv_seen = 0

    def name_id(self, name: str, is_op: bool = False) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        if is_op:
            self._op_names.add(nid)
        return nid

    def open(self, nid: int, cause: int = -1) -> int:
        i = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.cause.append(cause)
        self.name.append(nid)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def begin_op(self) -> int:
        """Start a new CLI operation; returns the span to close after it."""
        self.op_id = self.ops
        self.ops += 1
        return self.open(self.name_id(CLI_SPAN))

    def _bwd_name(self, cause: int, op: str) -> int:
        key = self.name[cause] if cause >= 0 else -1
        if key in self._op_names:
            nid = self._bwd_names.get(key)
            if nid is None:
                nid = self._bwd_names[key] = self.name_id(
                    self.names[key] + ".bwd")
            return nid
        return self.name_id(f"tape.{op}.bwd")

    def wrap_backward(self, op: str, rule):
        cause = self.stack[-1] if self.stack else -1
        nid = self._bwd_name(cause, op)
        flops = 2 * self.flops.get(cause, 0)
        tracer = self

        def traced_rule(g):
            if flops:
                tracer.counts[(tracer.op_id, tracer.names[nid] + ".flop")] += flops
            i = tracer.open(nid, cause)
            try:
                return rule(g)
            finally:
                tracer.close(i)

        return traced_rule


def _spanned(tracer: Tracer, fn, name: str):
    nid = tracer.name_id(name, is_op=name in OP_SPANS)

    def wrapper(*args, **kwargs):
        i = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)

    return wrapper


def _forward_wrapper(tracer: Tracer, fn, name: str):
    """model_forward: numbers the conv2d calls it makes as blocks b0, b1, ..."""
    nid = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        i = tracer.open(nid)
        tracer._conv_seen = 0
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)

    return wrapper


def _conv_wrapper(tracer: Tracer, fn, name: str):
    forward_id = tracer.name_id("model.model_forward")
    plain_id = tracer.name_id(name, is_op=True)
    block_ids = [tracer.name_id(f"{name}.b{k}", is_op=True)
                 for k in range(CONV_BLOCKS)]

    def wrapper(x, kernels, bias):
        nid = plain_id
        if tracer.stack and tracer.name[tracer.stack[-1]] == forward_id:
            k = tracer._conv_seen
            tracer._conv_seen += 1
            if k < CONV_BLOCKS:
                nid = block_ids[k]
        n, h, w, cin = x.data.shape
        kh, kw, _, cout = kernels.data.shape
        flops = 2 * n * h * w * kh * kw * cin * cout
        tracer.counts[(tracer.op_id, tracer.names[nid] + ".flop")] += flops
        i = tracer.open(nid)
        tracer.flops[i] = flops
        try:
            return fn(x, kernels, bias)
        finally:
            tracer.close(i)

    return wrapper


def _fabnet_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "fabnet" or name.startswith("fabnet."))]


def _rebind(original, replacement, undo: list) -> None:
    """Replace ``original`` under every name a fabnet module holds it by."""
    for mod in _fabnet_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, attr, original))
                setattr(mod, attr, replacement)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install every hook for the duration of the block, then restore."""
    undo: list = []
    try:
        for module, attr, name in HOOKS:
            target = getattr(sys.modules.get(module), attr, None)
            if not callable(target):
                tracer.absent.append(f"{module}.{attr}")
                continue
            if name == "model.model_forward":
                wrapper = _forward_wrapper(tracer, target, name)
            elif name == CONV:
                wrapper = _conv_wrapper(tracer, target, name)
            else:
                wrapper = _spanned(tracer, target, name)
            _rebind(target, wrapper, undo)
        tape = getattr(sys.modules.get("fabnet.tensor"), "Tape", None)
        record = vars(tape).get("record") if tape is not None else None
        if record is None:
            tracer.absent.append("fabnet.tensor.Tape.record")
        else:
            def traced_record(self, op, parents, backward):
                tracer.counts[(tracer.op_id, "nodes_recorded")] += 1
                if backward is not None:
                    backward = tracer.wrap_backward(op, backward)
                return record(self, op, parents, backward)

            undo.append((tape, "record", record))
            tape.record = traced_record
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> tuple:
    """Per-layer metrics (median per CLI operation) and top self-time spans.

    ``*.ms``/``*.fwd_ms`` are inclusive span durations, ``*.self_ms``
    exclude child spans, ``*.bwd_ms`` sum the backward-rule spans caused
    by nodes recorded inside the named span. Returns (metrics, top5) where
    top5 lists (span name, self ms per operation, share of traced time).
    """
    n_ops = max(tracer.ops, 1)
    start = np.frombuffer(tracer.start, dtype=np.float64)
    dur = np.frombuffer(tracer.end, dtype=np.float64) - start
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    cause = np.frombuffer(tracer.cause, dtype=np.int32)
    name = np.frombuffer(tracer.name, dtype=np.int32)
    op = np.frombuffer(tracer.op, dtype=np.int32)
    nested = parent >= 0
    self_t = dur - np.bincount(parent[nested], weights=dur[nested],
                               minlength=len(dur))

    def per_op(mask, values=None):
        mask = mask & (op >= 0)
        w = None if values is None else values[mask]
        return np.bincount(op[mask], weights=w, minlength=n_ops)[:n_ops]

    def mask_of(span):
        nid = tracer._ids.get(span)
        return name == (-2 if nid is None else nid)

    def ms(span, values=dur):
        return float(np.median(per_op(mask_of(span), values))) * 1e3

    def calls(span):
        return float(np.median(per_op(mask_of(span))))

    def counted(key):
        return float(np.median([tracer.counts[(k, key)] for k in range(n_ops)]))

    def total(key):
        return sum(v for (_, k), v in tracer.counts.items() if k == key)

    m = {}
    for k in range(CONV_BLOCKS):
        label = f"{CONV}.b{k}"
        m[f"{label}.fwd_ms"] = ms(label)
        m[f"{label}.bwd_ms"] = ms(label + ".bwd")
        seconds = (dur[mask_of(label)].sum() + dur[mask_of(label + ".bwd")].sum())
        flop = total(label + ".flop") + total(label + ".bwd.flop")
        m[f"{label}.gflop_s"] = float(flop / seconds / 1e9) if seconds > 0 else 0.0
    m["model.maxpool2x2.fwd_ms"] = ms("model.maxpool2x2")
    m["model.maxpool2x2.bwd_ms"] = ms("model.maxpool2x2.bwd")
    for span in ("model.load_checkpoint", "model.build_model",
                 "model.model_forward", "data.decode_image", "data.preprocess",
                 "data.load_samples", "training.adam_step",
                 "training.metrics_from_predictions"):
        m[f"{span}.ms"] = ms(span)

    m["tensor.backward.self_ms"] = ms("tensor.backward", self_t)
    swept = cause >= 0
    m["tensor.nodes_recorded"] = counted("nodes_recorded")
    m["tensor.nodes_swept"] = float(np.median(per_op(swept)))
    recorded = total("nodes_recorded")
    m["tensor.node_use_ratio"] = (float(swept.sum()) / recorded
                                  if recorded else 0.0)
    is_op = np.isin(name, list(tracer._op_names))
    m["tensor.op_calls"] = float(np.median(per_op(is_op)))
    m["tensor.op_us_per_call"] = (float(dur[is_op].sum() / is_op.sum()) * 1e6
                                  if is_op.any() else 0.0)
    for o in TENSOR_OPS:
        m[f"tensor.{o}.fwd_ms"] = ms(f"tensor.{o}")
        m[f"tensor.{o}.bwd_ms"] = ms(f"tensor.{o}.bwd")
        m[f"tensor.{o}.calls"] = calls(f"tensor.{o}")

    fab = tracer._ids.get("attention.fab_forward", -2)
    in_fab = name == fab
    while True:   # propagate down the span tree; parents precede children
        grown = in_fab | (nested & in_fab[np.where(nested, parent, 0)])
        if np.array_equal(grown, in_fab):
            break
        in_fab = grown
    m["attention.fab_forward.fwd_ms"] = ms("attention.fab_forward")
    fab_bwd = swept & in_fab[np.where(swept, cause, 0)]
    m["attention.fab_forward.bwd_ms"] = float(np.median(per_op(fab_bwd, dur))) * 1e3

    m["data.images_decoded"] = calls("data.decode_image")
    m["training.softmax_cross_entropy.fwd_ms"] = ms("training.softmax_cross_entropy")
    m["training.softmax_cross_entropy.bwd_ms"] = ms("training.softmax_cross_entropy.bwd")
    m["cli.main.self_ms"] = ms(CLI_SPAN, self_t)

    by_name = np.bincount(name, weights=self_t, minlength=len(tracer.names))
    traced = dur[parent < 0].sum()
    top5 = [(tracer.names[i], by_name[i] / n_ops * 1e3,
             by_name[i] / traced if traced else 0.0)
            for i in np.argsort(by_name)[::-1][:5]]
    return m, top5


def save_spans(tracer: Tracer, path) -> None:
    """Write every span as flat arrays (``.npz``)."""
    np.savez(path, names=np.array(tracer.names),
             start=np.frombuffer(tracer.start, dtype=np.float64),
             end=np.frombuffer(tracer.end, dtype=np.float64),
             parent=np.frombuffer(tracer.parent, dtype=np.int32),
             cause=np.frombuffer(tracer.cause, dtype=np.int32),
             name=np.frombuffer(tracer.name, dtype=np.int32),
             op=np.frombuffer(tracer.op, dtype=np.int32))
