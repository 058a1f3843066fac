"""Adam training loop, cross-entropy loss, and the evaluation metric suite."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .data import batch_iterator
from .errors import ConfigError, DivergenceError, ShapeError
from .model import Model, ModelConfig, build_model, model_forward, trainable_parameters
from .tensor import Tape, Tensor, _emit, backward as tape_backward


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 16
    max_epochs: int = 40
    seed: int = 0
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    epsilon: ClassVar[float] = 1e-8


@dataclass
class AdamState:
    """Per-parameter first/second moments and the shared step counter."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-probability of the true class, max-shifted.

    ``logits`` is (N,1,1,K); ``labels`` are integer ids in [0, K). The
    gradient with respect to the logits is (softmax - onehot) / N.
    """
    n, h, w, k = logits.shape
    if (h, w) != (1, 1):
        raise ShapeError(f"logits must be (N,1,1,K), got {logits.shape}")
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"expected {n} labels, got shape {labels.shape}")
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be integer class ids, got {labels.dtype}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    z = logits.data.reshape(n, k)
    zmax = z.max(axis=1, keepdims=True)
    log_norm = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    out = np.array(np.mean(log_norm - z[np.arange(n), labels])).reshape(1, 1, 1, 1)

    def back(g):
        probs = np.exp(z - log_norm[:, None])
        probs[np.arange(n), labels] -= 1.0
        return ((g.reshape(-1)[0] / n) * probs.reshape(n, 1, 1, k),)

    return _emit("softmax_cross_entropy", (logits,), out, back)


def softmax_probabilities(logits: Tensor) -> np.ndarray:
    """Row-stochastic (N, K) probabilities from (N,1,1,K) logits."""
    n, _, _, k = logits.shape
    z = logits.data.reshape(n, k)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def adam_step(params, grads: dict, state: AdamState, lr: float) -> AdamState:
    """One bias-corrected Adam step (Kingma & Ba, arXiv:1412.6980), in place.

    ``params`` is an ordered (name, tensor) sequence and ``grads`` maps
    exactly those names to same-shaped arrays.
    """
    names = [name for name, _ in params]
    if set(names) != set(grads):
        raise ShapeError(f"gradients cover {sorted(grads)} but trainable "
                         f"parameters are {sorted(names)}")
    state.t += 1
    t = state.t
    beta1, beta2 = TrainConfig.beta1, TrainConfig.beta2
    for name, tensor in params:
        g = np.asarray(grads[name])
        if g.shape != tensor.data.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match "
                             f"parameter {name} {tensor.data.shape}")
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(tensor.data)
            state.v[name] = np.zeros_like(tensor.data)
        v = state.v[name]
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        state.m[name], state.v[name] = m, v
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        tensor.data -= lr * m_hat / (np.sqrt(v_hat) + TrainConfig.epsilon)
    return state


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float


@dataclass
class EpochCurve:
    records: list = field(default_factory=list)
    # The last epoch's held-out predictions, for scoring the final model
    # without another sweep; not part of the CSV.
    val_preds: np.ndarray | None = field(default=None, compare=False,
                                         repr=False)

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,train_acc,val_loss,val_acc"]
        for r in self.records:
            lines.append(f"{r.epoch},{r.train_loss!r},{r.train_acc!r},"
                         f"{r.val_loss!r},{r.val_acc!r}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SplitData:
    """The images and class ids of one train/test split.

    An image array of ``uint8`` holds decoder bytes, which
    ``model_forward`` scales: a training step's batch whole, the held-out
    split's one untracked forward a backbone chunk at a time. A float
    array is model input as it is.
    """

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


def _forward_dataset(model: Model, x: np.ndarray, y: np.ndarray):
    """Untracked loss and predictions of the whole split; overflow raises.

    One ``model_forward`` takes ``x`` as it is, decoder bytes or float;
    the untracked forward streams it a chunk at a time, and the dense
    layers see every image's channel means at once.
    """
    with np.errstate(over="raise", invalid="raise"):
        logits = model_forward(model, Tensor(x))
    loss = softmax_cross_entropy(logits, y).item()
    return loss, np.argmax(logits.data.reshape(len(y), -1), axis=1)


def _train_step(model: Model, x: np.ndarray, y: np.ndarray,
                state: AdamState, cfg: TrainConfig, epoch: int,
                batch_no: int, batch=slice(None)):
    """One Adam step on one batch; returns (loss, correct predictions).

    The batch is rows ``batch`` of ``x`` and ``y``, all rows by default.
    The step gathers it inside the forward call, which scales it, so no
    frame holds either copy once the forward pass returns. Its tape
    watches leaves that share ``model``'s arrays, so Adam updates
    ``model``. The sweep frees each backward rule's saved arrays once the
    rule has run, and the tape, logits, loss and gradients die when the
    step returns.
    """
    yb = y[batch]
    tape = Tape()
    watched = model.watch_trainable(tape)
    logits = model_forward(watched, Tensor(x[batch]))
    loss = softmax_cross_entropy(logits, yb)
    loss_value = loss.item()
    if not np.isfinite(loss_value):
        raise DivergenceError(f"non-finite loss at epoch {epoch}, "
                              f"batch {batch_no}")
    correct = int(np.sum(np.argmax(
        logits.data.reshape(len(yb), -1), axis=1) == yb))
    trainable = trainable_parameters(watched)
    # With every entry frozen the loss is on no tape: backward would raise.
    if trainable:
        grad_map = tape_backward(tape, loss)
        grads = {name: grad_map[tensor.node_id].data
                 for name, tensor in trainable}
        adam_step(trainable, grads, state, cfg.learning_rate)
        for name, tensor in trainable:
            if not np.isfinite(tensor.data).all():
                raise DivergenceError(
                    f"non-finite parameter {name} at epoch {epoch}, "
                    f"batch {batch_no}")
    return loss_value, correct


def train(model: Model, data: SplitData, cfg: TrainConfig):
    """Run the full optimization schedule; returns (model, EpochCurve).

    Each epoch consumes a fresh seeded shuffle of the training set, and
    the held-out test split is scored after every epoch for the curve;
    the last epoch's predictions stay on ``curve.val_preds``. A non-finite
    loss or parameter, or an overflowing held-out sweep, aborts with context.
    """
    if cfg.max_epochs < 1:
        raise ConfigError(f"max_epochs must be >= 1, got {cfg.max_epochs}")
    for split, x, y in (("train", data.train_x, data.train_y),
                        ("test", data.test_x, data.test_y)):
        if not len(y) or len(x) != len(y):
            raise ValueError(f"{split} split needs at least one image and one "
                             f"id per image, got {len(x)} images, {len(y)} ids")
    state = AdamState()
    curve = EpochCurve()
    n_train = len(data.train_y)
    # In a diverging step, overflow ends in a non-finite loss or parameter,
    # which the DivergenceError checks name; numpy's warnings would only
    # bury that one error line. The held-out sweep raises on overflow.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(1, cfg.max_epochs + 1):
            loss_sum = 0.0
            correct = 0
            for batch_no, batch in enumerate(
                    batch_iterator(np.arange(n_train), cfg.batch_size,
                                   cfg.seed, epoch)):
                loss_value, hits = _train_step(model, data.train_x,
                                               data.train_y, state, cfg,
                                               epoch, batch_no, batch)
                loss_sum += loss_value * len(batch)
                correct += hits
            try:
                val_loss, val_preds = _forward_dataset(model, data.test_x,
                                                       data.test_y)
            except FloatingPointError as exc:
                raise DivergenceError(
                    f"held-out sweep at epoch {epoch}: {exc}") from exc
            curve.records.append(EpochRecord(
                epoch=epoch,
                train_loss=loss_sum / n_train,
                train_acc=correct / n_train,
                val_loss=val_loss,
                val_acc=float(np.mean(val_preds == data.test_y)),
            ))
            curve.val_preds = val_preds
    return model, curve


@dataclass(frozen=True)
class MetricsReport:
    class_names: tuple
    confusion: np.ndarray          # rows = true class, columns = predicted
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    accuracy: float
    top1_error_percent: float

    def to_csv(self) -> str:
        lines = ["class,precision,recall,f1"]
        for i, name in enumerate(self.class_names):
            lines.append(f"{name},{float(self.precision[i])!r},"
                         f"{float(self.recall[i])!r},{float(self.f1[i])!r}")
        lines.append(f"accuracy,{self.accuracy!r}")
        lines.append(f"top1_error,{self.top1_error_percent!r}")
        return "\n".join(lines) + "\n"

    def confusion_csv(self) -> str:
        return "\n".join(",".join(str(v) for v in row)
                         for row in self.confusion) + "\n"


def metrics_from_predictions(y_true, y_pred, class_names) -> MetricsReport:
    """Confusion matrix and derived metrics; 0/0 ratios become 0.

    ``y_true`` and ``y_pred`` are equally long, non-empty 1-D class ids
    in [0, K), K = ``len(class_names)``.
    """
    y_true, y_pred = np.asarray(y_true), np.asarray(y_pred)
    k = len(class_names)
    if y_true.ndim != 1 or y_true.shape != y_pred.shape or not len(y_true):
        raise ValueError(f"need equal-length non-empty 1-D ids, got shapes "
                         f"{y_true.shape} and {y_pred.shape}")
    if y_true.dtype.kind not in "iu" or y_pred.dtype.kind not in "iu":
        raise ValueError(f"class ids must be integers, got {y_true.dtype} "
                         f"and {y_pred.dtype}")
    y_true, y_pred = y_true.astype(np.int64), y_pred.astype(np.int64)
    ids = np.concatenate([y_true, y_pred])
    if ids.min() < 0 or ids.max() >= k:
        raise ValueError(f"class ids must lie in [0, {k})")
    confusion = np.bincount(k * y_true + y_pred,
                            minlength=k * k).reshape(k, k)
    tp = np.diag(confusion)
    pred_totals = confusion.sum(axis=0)
    true_totals = confusion.sum(axis=1)

    def ratio(num, den):
        return np.divide(num, den, out=np.zeros(k), where=den > 0)

    precision = ratio(tp, pred_totals)
    recall = ratio(tp, true_totals)
    f1 = ratio(2.0 * precision * recall, precision + recall)
    accuracy = float(tp.sum() / len(y_true))
    return MetricsReport(
        class_names=tuple(class_names),
        confusion=confusion,
        precision=precision,
        recall=recall,
        f1=f1,
        accuracy=accuracy,
        top1_error_percent=100.0 - 100.0 * accuracy,
    )


def evaluate(model: Model, x: np.ndarray, y: np.ndarray) -> MetricsReport:
    """Score a sample set; argmax ties resolve to the lowest class index.

    ``x`` is ``uint8`` decoder bytes or float model input, as in
    ``SplitData``. A forward pass that overflows raises FloatingPointError.
    """
    if len(y) < 1 or len(x) != len(y):
        raise ValueError(f"evaluate needs at least one sample and one id per "
                         f"image, got {len(x)} images, {len(y)} ids")
    _, preds = _forward_dataset(model, x, y)
    return metrics_from_predictions(y, preds, model.class_names)


@dataclass(frozen=True)
class AblationRow:
    seed: int
    accuracy_with_attention: float
    accuracy_without_attention: float


@dataclass(frozen=True)
class AblationResult:
    rows: tuple

    @property
    def mean_with(self) -> float:
        return float(np.mean([r.accuracy_with_attention for r in self.rows]))

    @property
    def mean_without(self) -> float:
        return float(np.mean([r.accuracy_without_attention for r in self.rows]))

    @property
    def mean_difference(self) -> float:
        return self.mean_with - self.mean_without


def ablation_run(data: SplitData, model_cfg: ModelConfig, cfg: TrainConfig,
                 seeds) -> AblationResult:
    """Paired with/without-attention training over each seed.

    Both runs of a pair share the seed, so they see identical initial
    backbone/head weights and identical batch orders; only the attention
    parameters differ.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    rows = []
    for seed in seeds:
        accs = {}
        for use_fab in (True, False):
            m = build_model(replace(model_cfg, use_fab=use_fab), seed)
            m, curve = train(m, data, replace(cfg, seed=seed))
            accs[use_fab] = curve.records[-1].val_acc
        rows.append(AblationRow(seed, accs[True], accs[False]))
    return AblationResult(rows=tuple(rows))
