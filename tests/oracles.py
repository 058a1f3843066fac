"""Independent explicit-loop oracles used to cross-check the fast paths.

Everything here is deliberately written as straight-line Python loops
over the mathematical definitions, with no shared code from the package
beyond raw numpy arrays in and out. Three are not loops:
``relu_then_pool_forward`` and ``whole_batch_forward`` pin the order of
the model's ops and the batch they run on rather than the ops themselves,
so they compose the package's own differentiable ops;
``conv2d_im2col_reference`` pins the bytes of one whole-batch im2col
matmul, so it spells out that arithmetic in numpy. ``backward_fault``
is no oracle: it plants a wrong backward rule, to show the checks catch it.
"""

import contextlib
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from fabnet.attention import fab_forward
from fabnet.model import conv2d, maxpool2x2
from fabnet.tensor import Tape, dense, mean_spatial, relu


def mean_spatial_oracle(x: np.ndarray) -> np.ndarray:
    n, h, w, c = x.shape
    out = np.zeros((n, 1, 1, c))
    for i in range(n):
        for ch in range(c):
            total = 0.0
            for j in range(h):
                for k in range(w):
                    total += x[i, j, k, ch]
            out[i, 0, 0, ch] = total / (h * w)
    return out


def conv2d_oracle(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Same-padded stride-1 cross-correlation, one multiply at a time."""
    n, h, ww, cin = x.shape
    kh, kw, _, cout = w.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    out = np.zeros((n, h, ww, cout))
    for i in range(n):
        for oy in range(h):
            for ox in range(ww):
                for oc in range(cout):
                    acc = 0.0
                    for dy in range(kh):
                        for dx in range(kw):
                            sy, sx = oy + dy - ph, ox + dx - pw
                            if 0 <= sy < h and 0 <= sx < ww:
                                for ic in range(cin):
                                    acc += x[i, sy, sx, ic] * w[dy, dx, ic, oc]
                    out[i, oy, ox, oc] = acc + b[0, 0, 0, oc]
    return out


def conv2d_im2col_reference(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                            g: np.ndarray):
    """Same-padded stride-1 conv as one im2col matmul over the whole batch.

    Returns the output and the gradients of ``sum(out * g)`` w.r.t. ``x``,
    ``w`` and ``b``. The columns are laid out (KH, KW, Cin) per output
    pixel; the weight gradient is one matmul over all of them, and the
    input gradient adds one matmul per kernel tap into a padded buffer.
    """
    n, h, ww, cin = x.shape
    kh, kw, _, cout = w.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    padded = np.zeros((n, h + 2 * ph, ww + 2 * pw, cin))
    padded[:, ph:ph + h, pw:pw + ww, :] = x
    cols = np.ascontiguousarray(
        sliding_window_view(padded, (kh, kw), axis=(1, 2))
        .transpose(0, 1, 2, 4, 5, 3)).reshape(-1, kh * kw * cin)
    out = cols @ w.reshape(kh * kw * cin, cout)
    out += b.reshape(cout)
    grad_w = (cols.T @ g.reshape(-1, cout)).reshape(w.shape)
    grad_b = g.sum(axis=(0, 1, 2)).reshape(1, 1, 1, cout)
    grad_padded = np.zeros(padded.shape)
    for i in range(kh):
        for j in range(kw):
            grad_padded[:, i:i + h, j:j + ww, :] += g @ w[i, j].T
    return (out.reshape(n, h, ww, cout),
            grad_padded[:, ph:ph + h, pw:pw + ww, :], grad_w, grad_b)


def maxpool2x2_oracle(x: np.ndarray, g: np.ndarray):
    """2x2 stride-2 max pooling and the gradient of sum(out * g) w.r.t. x.

    Each window's gradient goes to its first maximum in row-major window
    order; every other position gets +0.0.
    """
    n, h, w, c = x.shape
    out = np.zeros((n, h // 2, w // 2, c))
    grad = np.zeros_like(x)
    for i in range(n):
        for oy in range(h // 2):
            for ox in range(w // 2):
                for ch in range(c):
                    best_y, best_x = 2 * oy, 2 * ox
                    for dy in range(2):
                        for dx in range(2):
                            y, xx = 2 * oy + dy, 2 * ox + dx
                            if x[i, y, xx, ch] > x[i, best_y, best_x, ch]:
                                best_y, best_x = y, xx
                    out[i, oy, ox, ch] = x[i, best_y, best_x, ch]
                    grad[i, best_y, best_x, ch] = g[i, oy, ox, ch]
    return out, grad


def _half_pixel_source(o: int, src: int, dst: int):
    """(lo, hi, t) of output index ``o``'s half-pixel source coordinate."""
    centre = (o + 0.5) * (src / dst) - 0.5
    centre = min(max(centre, 0.0), src - 1.0)
    lo = math.floor(centre)
    return lo, min(lo + 1, src - 1), centre - lo


def bilinear_resize_oracle(img: np.ndarray, target) -> np.ndarray:
    """Half-pixel bilinear resize, one output value at a time.

    Each value lerps its top and bottom source rows along x, then the two
    along y, all in the ``a + t*(b - a)`` form.
    """
    src_h, src_w, c = img.shape
    dst_h, dst_w = target
    out = np.zeros((dst_h, dst_w, c))
    for oy in range(dst_h):
        ylo, yhi, ty = _half_pixel_source(oy, src_h, dst_h)
        for ox in range(dst_w):
            xlo, xhi, tx = _half_pixel_source(ox, src_w, dst_w)
            for ch in range(c):
                a, b = img[ylo, xlo, ch], img[ylo, xhi, ch]
                top = a + tx * (b - a)
                a, b = img[yhi, xlo, ch], img[yhi, xhi, ch]
                bot = a + tx * (b - a)
                out[oy, ox, ch] = top + ty * (bot - top)
    return out


def _sigmoid_scalar(v: float) -> float:
    if v >= 0.0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def attention_oracle(x: np.ndarray, w_reduce: np.ndarray, b_reduce: np.ndarray,
                     w_expand: np.ndarray, b_expand: np.ndarray) -> np.ndarray:
    """Pool, bottleneck+ReLU, expand+sigmoid, gate, residual add."""
    n, h, w, c = x.shape
    mid = w_reduce.shape[2]
    w1 = w_reduce.reshape(mid, c)
    b1 = b_reduce.reshape(mid)
    w2 = w_expand.reshape(c, mid)
    b2 = b_expand.reshape(c)

    out = np.zeros_like(x)
    for i in range(n):
        pooled = [sum(x[i, j, k, ch] for j in range(h) for k in range(w))
                  / (h * w) for ch in range(c)]
        hidden = []
        for e in range(mid):
            acc = b1[e]
            for d in range(c):
                acc += w1[e, d] * pooled[d]
            hidden.append(max(0.0, acc))
        gate = []
        for e in range(c):
            acc = b2[e]
            for d in range(mid):
                acc += w2[e, d] * hidden[d]
            gate.append(_sigmoid_scalar(acc))
        for j in range(h):
            for k in range(w):
                for ch in range(c):
                    gated = gate[ch] * x[i, j, k, ch]
                    out[i, j, k, ch] = gated + x[i, j, k, ch]
    return out


def metrics_oracle(y_true, y_pred, k: int):
    """Per-class precision/recall/F1 and accuracy from TP/FP/FN counts."""
    precision, recall, f1 = [], [], []
    for c in range(k):
        tp = fp = fn = 0
        for t, p in zip(y_true, y_pred):
            if p == c and t == c:
                tp += 1
            elif p == c:
                fp += 1
            elif t == c:
                fn += 1
        prec = tp / (tp + fp) if tp + fp > 0 else 0.0
        rec = tp / (tp + fn) if tp + fn > 0 else 0.0
        precision.append(prec)
        recall.append(rec)
        f1.append(2.0 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0)
    correct = sum(1 for t, p in zip(y_true, y_pred) if t == p)
    return precision, recall, f1, correct / len(y_true)


def relu_then_pool_forward(m, x):
    """``model_forward`` with every pooling block in VGG's order.

    Each block runs conv -> ReLU -> 2x2 max pool, as in Simonyan &
    Zisserman (arXiv:1409.1556); everything after the backbone is the
    same as in ``model_forward``. Records onto a tape like it.
    """
    t = x
    for i, blk in enumerate(m.config.blocks):
        t = relu(conv2d(t, m.params[f"block{i}.conv.weight"],
                        m.params[f"block{i}.conv.bias"]))
        if blk.pool:
            t = maxpool2x2(t)
    if m.config.use_fab:
        t = fab_forward(t, m.fab_params()).out
    t = mean_spatial(t)
    t = relu(dense(t, m.params["head.hidden.weight"],
                   m.params["head.hidden.bias"]))
    return dense(t, m.params["head.out.weight"], m.params["head.out.bias"])


def whole_batch_forward(m, x):
    """``model_forward`` with every op over the whole batch at once.

    Each block runs conv -> 2x2 max pool (where it pools) -> ReLU, the
    model's order, on all N images; no chunk of images is ever split
    off. Records onto a tape like ``model_forward``.
    """
    t = x
    for i, blk in enumerate(m.config.blocks):
        t = conv2d(t, m.params[f"block{i}.conv.weight"],
                   m.params[f"block{i}.conv.bias"])
        if blk.pool:
            t = maxpool2x2(t)
        t = relu(t)
    if m.config.use_fab:
        t = fab_forward(t, m.fab_params()).out
    t = relu(dense(mean_spatial(t), m.params["head.hidden.weight"],
                   m.params["head.hidden.bias"]))
    return dense(t, m.params["head.out.weight"], m.params["head.out.bias"])


@contextlib.contextmanager
def backward_fault(op: str, scale: float = 2.0):
    """Scale the parent gradients of every ``op`` rule recorded meanwhile.

    The rule stays scaled wherever ``backward`` runs it, inside the
    ``with`` block or after it.
    """
    record = Tape.record

    def faulty(tape, name, parents, rule):
        if name != op:
            return record(tape, name, parents, rule)
        return record(tape, name, parents, lambda g: tuple(
            pg if pg is None else pg * scale for pg in rule(g)))

    Tape.record = faulty
    try:
        yield
    finally:
        Tape.record = record
