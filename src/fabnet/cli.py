"""Command-line entry point: synth, train, eval, predict, gradcheck."""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import (SplitSpec, decode_image, load_manifest, load_pixels,
                   preprocess, stratified_split, synth_generate)
from .errors import ConfigError, FabnetError, FormatError, decode_utf8
from .model import (ModelConfig, build_model, load_checkpoint, model_forward,
                    parse_blocks, parse_bool, read_settings, save_checkpoint)
from .training import (SplitData, TrainConfig, evaluate,
                       metrics_from_predictions, softmax_probabilities, train)
from .verify import run_suite

_MODEL, _TRAIN = ModelConfig(), TrainConfig()


@dataclass
class RunConfig:
    """Flat key=value settings with the library's defaults; flags override them."""

    learning_rate: float = _TRAIN.learning_rate
    batch_size: int = _TRAIN.batch_size
    max_epochs: int = _TRAIN.max_epochs
    image_size: int = _MODEL.input_size[0]
    fab_ratio: int = _MODEL.fab_ratio
    use_fab: bool = _MODEL.use_fab
    freeze_backbone: bool = _MODEL.freeze_backbone
    head_hidden: int = _MODEL.head_hidden
    blocks: tuple = _MODEL.blocks
    seed: int = _TRAIN.seed


def _learning_rate(text) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"learning_rate must be finite and > 0, got {value!r}")
    return value


def _int_at_least(key: str, least: int):
    """A parser for an int setting the library would fail on below ``least``."""
    def parse(text) -> int:
        value = int(text)
        if value < least:
            raise ConfigError(f"{key} must be >= {least}, got {value}")
        return value
    return parse


_RUN_PARSERS = {
    "learning_rate": _learning_rate,
    **{key: _int_at_least(key, 1) for key in (
        "batch_size", "max_epochs", "image_size", "fab_ratio", "head_hidden")},
    "use_fab": parse_bool,
    "freeze_backbone": parse_bool,
    "blocks": parse_blocks,
    "seed": _int_at_least("seed", 0),
}


def load_run_config(path) -> RunConfig:
    """Parse a flat key=value file with '#' comments; unknown or repeated keys fail."""
    text = decode_utf8(Path(path).read_bytes(), f"config file {path}", ConfigError)
    # Drop comments and the padding around each line and its first '='.
    lines = [re.sub(r"\s*=\s*", "=", line.split("#", 1)[0].strip(), count=1)
             for line in text.splitlines()]
    try:
        return RunConfig(**read_settings(lines, _RUN_PARSERS, "config"))
    except ConfigError as exc:
        raise ConfigError(f"{path}:{exc}") from exc


def cmd_synth(args) -> int:
    for flag, value, least in (("--classes", args.classes, 2),
                               ("--per-class", args.per_class, 1),
                               ("--size", args.size, 1),
                               ("--seed", args.seed, 0)):
        _int_at_least(flag, least)(value)
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
        run.seed = _RUN_PARSERS["seed"](args.seed)

    manifest = load_manifest(args.data)
    split = SplitSpec(seed=run.seed)
    train_idx, test_idx = stratified_split(manifest, split)
    size = (run.image_size, run.image_size)
    # The model checks the config before any image array is sized from it.
    model = build_model(
        ModelConfig(input_size=size, blocks=run.blocks, use_fab=run.use_fab,
                    fab_ratio=run.fab_ratio, head_hidden=run.head_hidden,
                    num_classes=len(manifest.class_names),
                    freeze_backbone=run.freeze_backbone),
        run.seed, class_names=manifest.class_names)
    data = SplitData(*load_pixels(manifest, train_idx, size),
                     *load_pixels(manifest, test_idx, size))
    model, curve = train(model, data, TrainConfig(
        learning_rate=run.learning_rate, batch_size=run.batch_size,
        max_epochs=run.max_epochs, seed=run.seed))
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


def _checked(checkpoint, forward, *args):
    """Run ``forward(*args)``; an overflow is an error naming ``checkpoint``."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return forward(*args)
    except FloatingPointError as exc:
        raise FormatError(f"checkpoint {checkpoint}: {exc}") from exc


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    manifest = load_manifest(args.data)
    if list(manifest.class_names) != model.class_names:
        raise ConfigError(
            f"checkpoint classes {model.class_names} do not match "
            f"manifest classes {list(manifest.class_names)}")
    indices = np.arange(len(manifest.entries))
    x, y = load_pixels(manifest, indices, model.config.input_size)
    report = _checked(args.checkpoint, evaluate, model, x, y)
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
    logits = _checked(args.checkpoint, model_forward, model, pixels)
    probs = softmax_probabilities(logits)[0]
    winner = int(np.argmax(probs))
    print(f"prediction: {model.class_names[winner]}")
    for name, p in zip(model.class_names, probs):
        print(f"  {name}: {float(p)!r}")
    return 0


def cmd_gradcheck(args) -> int:
    results = run_suite(seed=_int_at_least("--seed", 0)(args.seed))
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


# Every subcommand: its help line, its arguments as (flag, add_argument
# keywords), and its handler.
COMMANDS = {
    "synth": ("generate a synthetic labelled dataset", (
        ("--out", dict(required=True, help="output directory")),
        ("--classes", dict(type=int, default=5)),
        ("--per-class", dict(type=int, default=40)),
        ("--size", dict(type=int, default=32, help="square image extent")),
        ("--seed", dict(type=int, default=0))), cmd_synth),
    "train": ("train on a manifest dataset", (
        ("--config", dict(help="key=value config file")),
        ("--data", dict(required=True, help="manifest CSV path")),
        ("--out", dict(required=True, help="output directory")),
        ("--no-fab", dict(action="store_true",
                          help="ablation: drop the attention block")),
        ("--freeze-backbone", dict(action="store_true")),
        ("--seed", dict(type=int))), cmd_train),
    "eval": ("evaluate a checkpoint on a manifest", (
        ("--checkpoint", dict(required=True)),
        ("--data", dict(required=True)),
        ("--report", dict(required=True, help="report output directory"))),
        cmd_eval),
    "predict": ("classify one PPM/PGM image", (
        ("--checkpoint", dict(required=True)),
        ("--image", dict(required=True))), cmd_predict),
    "gradcheck": ("verify backward rules against finite differences", (
        ("--seed", dict(type=int, default=0)),), cmd_gradcheck),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The fabnet parser, with every subcommand or only ``command``'s."""
    parser = argparse.ArgumentParser(
        prog="fabnet",
        description="Train and evaluate a small attention-augmented CNN.")
    # The usage line names every subcommand either way. A one-command build
    # sets the metavar, whose default would list only the one built; the
    # full parser keeps the default, as its "required" and "invalid choice"
    # errors name the argument "command" only while the metavar is unset.
    # An explicit prog spares argparse formatting a usage line to find it.
    sub = parser.add_subparsers(
        prog=parser.prog, dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(COMMANDS) + "}")
    commands = COMMANDS if command is None else {command: COMMANDS[command]}
    for name, (help_text, arguments, handler) in commands.items():
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; argv defaults to ``sys.argv[1:]``."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # Help, no arguments and an unknown command need the full parser.
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    # MemoryError: a size no bound covers, such as a huge head or block
    # width, asked numpy for more memory than the process can have.
    except (FabnetError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
