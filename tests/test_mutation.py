"""Seeded byte mutations of the files the CLI reads.

Each case mutates one valid file once, by a bit flip, a byte set, a
truncation or an insertion, drawn from a fixed seed. A mutated checkpoint
and a mutated PPM go through ``predict``, a mutated manifest through
``eval``, all in-process; a mutated config file goes through
``load_run_config`` only, so no case trains. Every case must exit 0 or 1
with at most one ``error:`` line on stderr and nothing else there: no
traceback, no warning.
"""

import traceback
import warnings
import zlib

import numpy as np
import pytest

from fabnet.cli import load_run_config, main
from fabnet.data import write_ppm
from fabnet.errors import FabnetError
from fabnet.model import ConvBlockSpec, ModelConfig, build_model, save_checkpoint

SEED = 7
CASES = 150
# Bytes that carry structure in one format or another: NUL, line breaks,
# the CSV and key=value separators, the comment mark, a digit, and a byte
# that never starts valid UTF-8.
SPECIAL = b"\x00\n\r,=#:9\xff"
CONFIG = """\
# small settings, as a user would write them
image_size=8
blocks=4:pool,8:pool
fab_ratio=4
head_hidden=8
learning_rate=0.001
batch_size=4
max_epochs=2
use_fab=true
seed=3
"""


def mutate(blob: bytes, rng: np.random.Generator, head: int):
    """One mutation of ``blob`` and its description.

    Half the positions fall in the first ``head`` bytes, where a format
    keeps its structure.
    """
    limit = head if rng.random() < 0.5 else len(blob)
    pos = int(rng.integers(limit))
    kind = ("flip", "set", "truncate", "insert")[int(rng.integers(4))]
    out = bytearray(blob)
    if kind == "flip":
        bit = int(rng.integers(8))
        out[pos] ^= 1 << bit
        what = f"flip bit {bit} at {pos}"
    elif kind == "set":
        value = (SPECIAL[int(rng.integers(len(SPECIAL)))]
                 if rng.random() < 0.5 else int(rng.integers(256)))
        out[pos] = value
        what = f"set byte {pos} to {value:#04x}"
    elif kind == "truncate":
        del out[pos:]
        what = f"truncate at {pos}"
    else:
        extra = rng.integers(0, 256, size=int(rng.integers(1, 9)),
                             dtype=np.uint8).tobytes()
        out[pos:pos] = extra
        what = f"insert {extra!r} at {pos}"
    return bytes(out), what


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """A small checkpoint, its images and manifest, and a config file."""
    root = tmp_path_factory.mktemp("originals")
    cfg = ModelConfig(input_size=(8, 8),
                      blocks=(ConvBlockSpec(4), ConvBlockSpec(8)),
                      fab_ratio=4, head_hidden=8, num_classes=2)
    save_checkpoint(build_model(cfg, seed=1, class_names=["cat", "dog"]),
                    root / "checkpoint.fabn")
    rng = np.random.default_rng(2)
    rows = ["path,label"]
    for i in range(6):
        name = f"img{i}.ppm"
        write_ppm(root / name, rng.integers(0, 256, (8, 8, 3), dtype=np.uint8))
        rows.append(f"{name},{('cat', 'dog')[i % 2]}")
    (root / "manifest.csv").write_text("\n".join(rows) + "\n")
    (root / "train.cfg").write_text(CONFIG)
    return root


def _run_cli(argv, capsys):
    """(exit code, stderr lines) of one in-process call; warnings are lines."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = capsys.readouterr().err.splitlines()
    return code, err + [f"warning: {w.message}" for w in caught]


def _load_config(path):
    """``load_run_config`` under the CLI's error handling."""
    try:
        load_run_config(path)
    except (FabnetError, OSError, MemoryError) as exc:
        return 1, [f"error: {exc}"]
    return 0, []


def _verdict(code, err):
    """None if the outcome is allowed, else what is wrong with it."""
    if code not in (0, 1):
        return f"exit {code}"
    want = 1 if code == 1 else 0
    if len(err) != want or (err and not err[0].startswith("error: ")):
        return f"exit {code} with stderr {err!r}"
    return None


# target file -> (bytes counted as its head, argv of the run given the
# directory that holds the mutated file; None runs load_run_config)
TARGETS = {
    "checkpoint.fabn": (200, lambda d, o: [
        "predict", "--checkpoint", str(d / "checkpoint.fabn"),
        "--image", str(o / "img0.ppm")]),
    "img0.ppm": (12, lambda d, o: [
        "predict", "--checkpoint", str(o / "checkpoint.fabn"),
        "--image", str(d / "img0.ppm")]),
    "manifest.csv": (40, lambda d, o: [
        "eval", "--checkpoint", str(o / "checkpoint.fabn"),
        "--data", str(d / "manifest.csv"), "--report", str(d / "report")]),
    "train.cfg": (60, None),
}


@pytest.mark.parametrize("target", list(TARGETS))
def test_mutated_input_gives_exit_0_or_1_and_one_error_line(
        target, originals, tmp_path, capsys):
    head, argv = TARGETS[target]
    original = (originals / target).read_bytes()
    rng = np.random.default_rng([SEED, zlib.crc32(target.encode())])
    failures = []
    for case in range(CASES):
        blob, what = mutate(original, rng, head)
        work = tmp_path / str(case)
        work.mkdir()
        if target == "manifest.csv":
            # Relative image paths resolve next to the manifest.
            for image in originals.glob("*.ppm"):
                (work / image.name).write_bytes(image.read_bytes())
        path = work / target
        path.write_bytes(blob)
        try:
            problem = _verdict(*(_load_config(path) if argv is None else
                                 _run_cli(argv(work, originals), capsys)))
        except Exception:   # would be a traceback from the CLI
            problem = traceback.format_exc()
        if problem:
            failures.append(f"case {case} ({what}): {problem}")
    assert not failures, "\n".join(failures)


def test_nul_byte_in_a_manifest_path_is_one_error_line(originals, tmp_path,
                                                      capsys):
    # The OS cannot open a path holding NUL; Python raises ValueError,
    # not OSError, for it.
    (tmp_path / "manifest.csv").write_text(
        (originals / "manifest.csv").read_text().replace("img0", "im\x00g0"))
    code, err = _run_cli(["eval", "--checkpoint",
                          str(originals / "checkpoint.fabn"),
                          "--data", str(tmp_path / "manifest.csv"),
                          "--report", str(tmp_path / "report")], capsys)
    assert code == 1 and len(err) == 1
    assert err[0].startswith("error: cannot read image")
