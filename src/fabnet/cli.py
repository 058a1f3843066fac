"""Command-line entry point: synth, train, eval, predict, gradcheck."""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .data import (decode_image, load_manifest, load_pixels, preprocess,
                   stratified_split, synth_generate)
from .errors import ConfigError, FabnetError, FormatError, decode_utf8
from .model import (ModelConfig, build_model, load_checkpoint, model_forward,
                    parse_blocks, parse_bool, read_settings, save_checkpoint)
from .training import (SplitData, TrainConfig, evaluate,
                       metrics_from_predictions, softmax_probabilities, train)
from .verify import run_suite


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


def load_run_config(path) -> dict:
    """Parse a flat key=value file with '#' comments; unknown or repeated keys fail.

    Returns only the settings the file sets; every default is
    ``TrainConfig``'s or ``ModelConfig``'s.
    """
    text = decode_utf8(Path(path).read_bytes(), f"config file {path}", ConfigError)
    # Drop comments and the padding around each line and its first '='.
    lines = [re.sub(r"\s*=\s*", "=", line.split("#", 1)[0].strip(), count=1)
             for line in text.splitlines()]
    try:
        return read_settings(lines, _RUN_PARSERS, "config")
    except ConfigError as exc:
        raise ConfigError(f"{path}:{exc}") from exc


def _out_dir(flag: str, path) -> Path:
    """``path``, failing now unless it or its nearest existing ancestor is a
    directory, so ``mkdir`` after the work cannot meet a file in the way."""
    out = Path(path)
    found = next(p for p in (out, *out.parents) if os.path.lexists(p))
    if not found.is_dir():
        raise ConfigError(f"{flag} {path}: {found} is not a directory")
    return out


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
    out = _out_dir("--out", args.out)
    settings = load_run_config(args.config) if args.config else {}
    if args.no_fab:
        settings["use_fab"] = False
    if args.freeze_backbone:
        settings["freeze_backbone"] = True
    if args.seed is not None:
        settings["seed"] = _int_at_least("--seed", 0)(args.seed)
    training = TrainConfig(**{f.name: settings.pop(f.name)
                              for f in fields(TrainConfig) if f.name in settings})
    side = settings.pop("image_size", ModelConfig.input_size[0])
    size = (side, side)

    manifest = load_manifest(args.data)
    train_idx, test_idx = stratified_split(manifest, training.seed)
    # The model checks the config before any image array is sized from it.
    model = build_model(
        ModelConfig(input_size=size, num_classes=len(manifest.class_names),
                    **settings),
        training.seed, class_names=manifest.class_names)
    data = SplitData(*load_pixels(manifest, train_idx, size),
                     *load_pixels(manifest, test_idx, size))
    model, curve = train(model, data, training)
    report = metrics_from_predictions(data.test_y, curve.val_preds,
                                      model.class_names)

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
    out = _out_dir("--report", args.report)
    model = load_checkpoint(args.checkpoint)
    manifest = load_manifest(args.data)
    if list(manifest.class_names) != model.class_names:
        raise ConfigError(
            f"checkpoint classes {model.class_names} do not match "
            f"manifest classes {list(manifest.class_names)}")
    indices = np.arange(len(manifest.entries))
    x, y = load_pixels(manifest, indices, model.config.input_size)
    report = _checked(args.checkpoint, evaluate, model, x, y)
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
    "gradcheck": ("verify backward rules against complex-step derivatives", (
        ("--seed", dict(type=int, default=0)),), cmd_gradcheck),
}


def _add_command(parser: argparse.ArgumentParser, command: str) -> None:
    _, arguments, handler = COMMANDS[command]
    for flag, options in arguments:
        parser.add_argument(flag, **options)
    parser.set_defaults(func=handler)


def build_parser(command=None) -> argparse.ArgumentParser:
    """The fabnet parser with every subcommand, or ``command``'s alone.

    ``command``'s parser is the one the full parser would hand its
    arguments to, as ``fabnet <command>``; it parses what follows the
    command name.
    """
    if command is not None:
        parser = argparse.ArgumentParser(prog=f"fabnet {command}")
        _add_command(parser, command)
        return parser
    parser = argparse.ArgumentParser(
        prog="fabnet",
        description="Train and evaluate a small attention-augmented CNN.")
    # An explicit prog spares argparse formatting a usage line to find it.
    sub = parser.add_subparsers(prog=parser.prog, dest="command",
                                required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text), name)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; argv defaults to ``sys.argv[1:]``."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # Help, no arguments and an unknown command need the full parser.
    if argv and argv[0] in COMMANDS:
        args = build_parser(argv[0]).parse_args(argv[1:])
    else:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # MemoryError: a size no bound covers, such as a huge head or block
    # width, asked numpy for more memory than the process can have.
    except (FabnetError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
