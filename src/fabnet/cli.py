"""Command-line entry point: synth, train, eval, predict, gradcheck."""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .data import (SplitSpec, decode_image, load_manifest, load_samples,
                   preprocess, stratified_split, synth_generate)
from .errors import ConfigError, FabnetError
from .model import (ModelConfig, build_model, load_checkpoint, model_forward,
                    parse_blocks, parse_bool, save_checkpoint)
from .tensor import Tensor
from .training import (SplitData, TrainConfig, evaluate,
                       metrics_from_predictions, softmax_probabilities, train)
from .verify import run_suite

DEFAULT_BLOCKS = "16:pool,32:pool,64:pool"


@dataclass
class RunConfig:
    """Flat key=value settings; command-line flags override file values."""

    learning_rate: float = 1e-4
    batch_size: int = 16
    max_epochs: int = 40
    image_size: int = 32
    fab_ratio: int = 8
    use_fab: bool = True
    freeze_backbone: bool = False
    head_hidden: int = 64
    blocks: str = DEFAULT_BLOCKS
    seed: int = 0


_RUN_MINIMUMS = {"batch_size": 1, "max_epochs": 1, "image_size": 1,
                 "head_hidden": 1, "fab_ratio": 1, "seed": 0}


def _check_run_value(key: str, value) -> None:
    """Reject a setting the library would fail on later or train with silently."""
    if key == "learning_rate" and not (math.isfinite(value) and value > 0):
        raise ConfigError(f"learning_rate must be finite and > 0, got {value!r}")
    least = _RUN_MINIMUMS.get(key)
    if least is not None and value < least:
        raise ConfigError(f"{key} must be >= {least}, got {value}")


def load_run_config(path) -> RunConfig:
    """Parse a flat key=value file with '#' comments; unknown keys fail."""
    cfg = RunConfig()
    known = {f.name: f.type for f in fields(RunConfig)}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            if key in ("learning_rate",):
                parsed = float(value)
            elif key in ("use_fab", "freeze_backbone"):
                parsed = parse_bool(value)
            elif key == "blocks":
                parse_blocks(value)
                parsed = value
            else:
                parsed = int(value)
            _check_run_value(key, parsed)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        setattr(cfg, key, parsed)
    return cfg


def _model_config(run: RunConfig, num_classes: int) -> ModelConfig:
    return ModelConfig(
        input_size=(run.image_size, run.image_size),
        blocks=parse_blocks(run.blocks),
        use_fab=run.use_fab,
        fab_ratio=run.fab_ratio,
        head_hidden=run.head_hidden,
        num_classes=num_classes,
        freeze_backbone=run.freeze_backbone,
    )


def _train_config(run: RunConfig) -> TrainConfig:
    return TrainConfig(learning_rate=run.learning_rate,
                       batch_size=run.batch_size,
                       max_epochs=run.max_epochs,
                       seed=run.seed)


def cmd_synth(args) -> int:
    for flag, value, least in (("--classes", args.classes, 2),
                               ("--per-class", args.per_class, 1),
                               ("--size", args.size, 1),
                               ("--seed", args.seed, 0)):
        if value < least:
            raise ConfigError(f"{flag} must be >= {least}, got {value}")
    manifest = synth_generate(args.out, args.classes, args.per_class,
                              (args.size, args.size), args.seed)
    print(manifest)
    return 0


def cmd_train(args) -> int:
    run = load_run_config(args.config) if args.config else RunConfig()
    if args.no_fab:
        run.use_fab = False
    if args.freeze_backbone:
        run.freeze_backbone = True
    if args.seed is not None:
        _check_run_value("seed", args.seed)
        run.seed = args.seed

    manifest = load_manifest(args.data)
    split = SplitSpec(seed=run.seed)
    train_idx, test_idx = stratified_split(manifest, split)
    size = (run.image_size, run.image_size)
    data = SplitData(*load_samples(manifest, train_idx, size),
                     *load_samples(manifest, test_idx, size))

    model = build_model(_model_config(run, len(manifest.class_names)), run.seed,
                        class_names=manifest.class_names)
    model, curve = train(model, data, _train_config(run))
    report = metrics_from_predictions(data.test_y, curve.val_preds,
                                      model.class_names)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, out / "checkpoint.fabn")
    (out / "curves.csv").write_text(curve.to_csv())
    (out / "metrics.csv").write_text(report.to_csv())
    (out / "confusion.csv").write_text(report.confusion_csv())
    (out / "test_split.csv").write_text(
        "path,label\n" + "".join(f"{manifest.resolve(i).resolve()},"
                                 f"{manifest.entries[i][1]}\n"
                                 for i in test_idx))
    print(f"final test accuracy: {report.accuracy!r} "
          f"(top-1 error {report.top1_error_percent!r}%)")
    return 0


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    manifest = load_manifest(args.data)
    if list(manifest.class_names) != model.class_names:
        raise ConfigError(
            f"checkpoint classes {model.class_names} do not match "
            f"manifest classes {list(manifest.class_names)}")
    indices = np.arange(len(manifest.entries))
    x, y = load_samples(manifest, indices, model.config.input_size)
    report = evaluate(model, x, y)
    out = Path(args.report)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.csv").write_text(report.to_csv())
    (out / "confusion.csv").write_text(report.confusion_csv())
    print(f"accuracy: {report.accuracy!r} "
          f"(top-1 error {report.top1_error_percent!r}%)")
    return 0


def cmd_predict(args) -> int:
    model = load_checkpoint(args.checkpoint)
    raw = decode_image(args.image)
    pixels = preprocess(raw, model.config.input_size)
    logits = model_forward(model, Tensor(pixels.data))
    probs = softmax_probabilities(logits)[0]
    winner = int(np.argmax(probs))
    print(f"prediction: {model.class_names[winner]}")
    for name, p in zip(model.class_names, probs):
        print(f"  {name}: {float(p)!r}")
    return 0


def cmd_gradcheck(args) -> int:
    results = run_suite(seed=args.seed)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {r.max_error:.3e}  {status}")
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"gradient check failed for: {', '.join(failed)}",
              file=sys.stderr)
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fabnet",
        description="Train and evaluate a small attention-augmented CNN.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labelled dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--per-class", type=int, default=40)
    p.add_argument("--size", type=int, default=32, help="square image extent")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train on a manifest dataset")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--data", required=True, help="manifest CSV path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--no-fab", action="store_true",
                   help="ablation: drop the attention block")
    p.add_argument("--freeze-backbone", action="store_true")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True, help="report output directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="classify one PPM/PGM image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck",
                       help="verify backward rules against finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FabnetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
