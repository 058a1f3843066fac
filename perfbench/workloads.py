"""The benchmark workloads: inputs, command lines and output checks.

Each workload generates its inputs from the benchmark seed in ``setup``,
names the ``fabnet`` command line of its i-th operation in ``argv``, and
in ``check`` returns the problems found in that operation's outputs (an
empty list when they are correct). ``items`` is the work one operation
does, the numerator of ``items_per_s``.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np
from fabnet.data import load_manifest, load_samples, synth_generate
from fabnet.model import ModelConfig, build_model, model_forward, save_checkpoint
from fabnet.tensor import Tensor
from fabnet.training import softmax_probabilities

CLASSES = 5


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _default_model(seed: int, class_names):
    """The default-config model that predict loads from disk."""
    return build_model(ModelConfig(num_classes=CLASSES), seed,
                       class_names=class_names)


class Train:
    """``fabnet train`` on the criterion-5 shape: 5 x 50 images at 32x32."""

    name = "train"
    EPOCHS = 3
    PER_CLASS = 50
    TRAIN_IMAGES = 200   # 250 images less the stratified 20 % hold-out
    items = TRAIN_IMAGES * EPOCHS

    def setup(self, work: Path, seed: int) -> None:
        manifest = synth_generate(work / "data", CLASSES, self.PER_CLASS,
                                  (32, 32), seed)
        config = work / "run.cfg"
        config.write_text(f"max_epochs={self.EPOCHS}\n")
        self.out = work / "run"
        self._argv = ["train", "--config", str(config), "--data", str(manifest),
                      "--out", str(self.out), "--seed", str(seed)]
        self.digests = None
        self.final_val_loss = 0.0

    def argv(self, i: int) -> list:
        return self._argv

    def check(self, i: int, stdout: str) -> list:
        rows = (self.out / "curves.csv").read_text().splitlines()[1:]
        problems = []
        if len(rows) != self.EPOCHS:
            return [f"curves.csv has {len(rows)} rows, expected {self.EPOCHS}"]
        losses = [[float(v) for v in (r.split(",")[1], r.split(",")[3])]
                  for r in rows]
        if not all(math.isfinite(v) for pair in losses for v in pair):
            problems.append("non-finite loss in curves.csv")
        elif not losses[-1][1] < losses[0][1]:
            problems.append(f"final val loss {losses[-1][1]!r} is not below "
                            f"epoch-1 val loss {losses[0][1]!r}")
        held_out = len((self.out / "test_split.csv").read_text().splitlines()) - 1
        if held_out != CLASSES * self.PER_CLASS - self.TRAIN_IMAGES:
            problems.append(f"hold-out has {held_out} images")
        digests = {"curves_sha256": _sha256(self.out / "curves.csv"),
                   "checkpoint_sha256": _sha256(self.out / "checkpoint.fabn")}
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            problems.append("outputs differ from the first run's bytes")
        self.final_val_loss = losses[-1][1]
        return problems


class Predict:
    """Sequential ``fabnet predict`` calls over 100 64x64 images, one client."""

    name = "predict"
    PER_CLASS = 20
    items = 1

    def setup(self, work: Path, seed: int) -> None:
        manifest_path = synth_generate(work / "data", CLASSES, self.PER_CLASS,
                                       (64, 64), seed)
        manifest = load_manifest(manifest_path)
        model = _default_model(seed, manifest.class_names)
        checkpoint = work / "model.fabn"
        save_checkpoint(model, checkpoint)
        x, _ = load_samples(manifest, np.arange(len(manifest.entries)),
                            model.config.input_size)
        self.probs = softmax_probabilities(model_forward(model, Tensor(x)))
        self.class_names = list(manifest.class_names)
        self.images = [str(manifest.resolve(i)) for i in range(len(manifest.entries))]
        self._checkpoint = str(checkpoint)

    def argv(self, i: int) -> list:
        return ["predict", "--checkpoint", self._checkpoint,
                "--image", self.images[i % len(self.images)]]

    def check(self, i: int, stdout: str) -> list:
        ref = self.probs[i % len(self.images)]
        lines = stdout.splitlines()
        expected = f"prediction: {self.class_names[int(np.argmax(ref))]}"
        if not lines or lines[0] != expected:
            return [f"image {i}: got {lines[:1]}, expected {expected!r}"]
        probs = np.array([float(line.split(":")[1]) for line in lines[1:]])
        if len(probs) != len(ref):
            return [f"image {i}: {len(probs)} probabilities"]
        problems = []
        if abs(probs.sum() - 1.0) > 1e-12:
            problems.append(f"image {i}: probabilities sum to {probs.sum()!r}")
        if np.max(np.abs(probs - ref)) > 1e-9:
            problems.append(f"image {i}: probabilities differ from the batched "
                            "set-up forward")
        return problems


WORKLOADS = {w.name: w for w in (Train, Predict)}
