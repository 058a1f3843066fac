"""End-to-end CLI behaviour: flags, files, determinism, exit codes."""

import argparse
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fabnet.cli
from fabnet.cli import (COMMANDS, RunConfig, build_parser, load_run_config,
                        main)
from fabnet.errors import ConfigError
from fabnet.model import (ModelConfig, build_model, load_checkpoint,
                          save_checkpoint)
from fabnet.tensor import backward_fault
from fabnet.training import TrainConfig
from fabnet.verify import run_suite
from checkpoint_faults import CHECKPOINT_FAULTS, split_records

SMALL_CONFIG = """\
# desk-scale settings for fast CLI runs
image_size=16
blocks=8:pool,16:pool
fab_ratio=8
head_hidden=16
learning_rate=0.001
batch_size=8
max_epochs=6
seed=7
"""


@pytest.fixture(scope="session")
def cli_workspace(tmp_path_factory):
    """One synth dataset + one trained run shared by read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["synth", "--out", str(root / "ds"), "--classes", "3",
                 "--per-class", "12", "--size", "16", "--seed", "3"]) == 0
    (root / "train.cfg").write_text(SMALL_CONFIG)
    assert main(["train", "--config", str(root / "train.cfg"),
                 "--data", str(root / "ds" / "manifest.csv"),
                 "--out", str(root / "run")]) == 0
    return root


class TestRunConfig:
    def test_defaults_follow_training_protocol(self):
        run = RunConfig()
        assert run.learning_rate == 1e-4
        assert run.batch_size == 16
        assert run.max_epochs == 40
        cfg = TrainConfig()
        assert (cfg.learning_rate, cfg.batch_size, cfg.max_epochs) == (1e-4, 16, 40)

    def test_file_parsing_with_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("learning_rate=0.01  # fast\n\nbatch_size=4\n")
        run = load_run_config(path)
        assert run.learning_rate == 0.01
        assert run.batch_size == 4
        assert run.max_epochs == 40   # untouched default

    def test_unknown_key_is_hard_error(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("momentum=0.9\n")
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_bad_bool(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("use_fab=yes\n")
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_repeated_key_is_hard_error(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("batch_size=4\nbatch_size=8\n")
        with pytest.raises(ConfigError) as exc:
            load_run_config(path)
        assert str(exc.value).startswith(f"{path}:2:")

    def test_defaults_are_the_library_defaults(self):
        run, model, training = RunConfig(), ModelConfig(), TrainConfig()
        assert run.learning_rate == training.learning_rate
        assert run.batch_size == training.batch_size
        assert run.max_epochs == training.max_epochs
        assert run.seed == training.seed
        assert run.image_size == model.input_size[0] == model.input_size[1]
        assert run.fab_ratio == model.fab_ratio
        assert run.use_fab == model.use_fab
        assert run.freeze_backbone == model.freeze_backbone
        assert run.head_hidden == model.head_hidden
        assert run.blocks == model.blocks


class TestSynth:
    def test_counts(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "ds"), "--classes", "5",
                     "--per-class", "4", "--size", "8", "--seed", "0"]) == 0
        assert len(list((tmp_path / "ds").glob("*.ppm"))) == 20
        assert "manifest.csv" in capsys.readouterr().out

    def test_missing_out_flag_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--classes", "2"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_repeat_invocation_identical_bytes(self, tmp_path):
        flags = ["--classes", "2", "--per-class", "3", "--size", "8",
                 "--seed", "5"]
        main(["synth", "--out", str(tmp_path / "a")] + flags)
        main(["synth", "--out", str(tmp_path / "b")] + flags)
        for pa in sorted((tmp_path / "a").iterdir()):
            assert pa.read_bytes() == (tmp_path / "b" / pa.name).read_bytes()


class TestTrain:
    def test_outputs_written(self, cli_workspace):
        run = cli_workspace / "run"
        for name in ("checkpoint.fabn", "curves.csv", "metrics.csv",
                     "confusion.csv", "test_split.csv"):
            assert (run / name).is_file()
        curves = (run / "curves.csv").read_text().splitlines()
        assert curves[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert len(curves) == 1 + 6   # one row per epoch

    def test_no_fab_recorded_in_checkpoint(self, cli_workspace, tmp_path):
        assert main(["train", "--config", str(cli_workspace / "train.cfg"),
                     "--data", str(cli_workspace / "ds" / "manifest.csv"),
                     "--out", str(tmp_path / "nofab"), "--no-fab"]) == 0
        m = load_checkpoint(tmp_path / "nofab" / "checkpoint.fabn")
        assert m.config.use_fab is False
        assert not any(n.startswith("fab.") for n in m.params)

    def test_ablation_pair_differs_only_in_attention_entries(
            self, cli_workspace, tmp_path):
        with_fab = load_checkpoint(cli_workspace / "run" / "checkpoint.fabn")
        main(["train", "--config", str(cli_workspace / "train.cfg"),
              "--data", str(cli_workspace / "ds" / "manifest.csv"),
              "--out", str(tmp_path / "nofab"), "--no-fab"])
        without = load_checkpoint(tmp_path / "nofab" / "checkpoint.fabn")
        assert set(with_fab.params) - set(without.params) == {
            "fab.reduce.weight", "fab.reduce.bias",
            "fab.expand.weight", "fab.expand.bias"}
        assert with_fab.config.use_fab and not without.config.use_fab
        assert with_fab.config == type(with_fab.config)(
            **{**without.config.__dict__, "use_fab": True})

    def test_freeze_backbone_trains_only_attention_and_head(
            self, cli_workspace, tmp_path):
        assert main(["train", "--config", str(cli_workspace / "train.cfg"),
                     "--data", str(cli_workspace / "ds" / "manifest.csv"),
                     "--out", str(tmp_path / "frozen"), "--freeze-backbone"]) == 0
        trained = tmp_path / "frozen" / "checkpoint.fabn"
        m = load_checkpoint(trained)
        # The run's seed is SMALL_CONFIG's.
        save_checkpoint(build_model(m.config, 7, m.class_names),
                        tmp_path / "init.fabn")

        def records(path):
            head, recs = split_records(path.read_bytes())
            return head, {rec[4:4 + struct.unpack_from("<I", rec)[0]]: rec
                          for rec in recs}

        head, got = records(trained)
        _, init = records(tmp_path / "init.fabn")
        assert b"\nfreeze_backbone=true\n" in head
        assert got.keys() == init.keys()
        for name in got:
            if name.startswith(b"block"):
                assert got[name] == init[name], name
            else:
                assert name.startswith((b"fab.", b"head.")), name
                assert got[name] != init[name], name

    def test_same_seed_byte_identical_curves(self, cli_workspace, tmp_path):
        args = ["train", "--config", str(cli_workspace / "train.cfg"),
                "--data", str(cli_workspace / "ds" / "manifest.csv"),
                "--seed", "7"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        assert ((tmp_path / "a" / "curves.csv").read_bytes()
                == (tmp_path / "b" / "curves.csv").read_bytes())
        assert ((tmp_path / "a" / "checkpoint.fabn").read_bytes()
                == (tmp_path / "b" / "checkpoint.fabn").read_bytes())

    def test_train_peak_memory_holds_decoder_bytes(self, tmp_path, capsys):
        # At the criterion-5 shape the 250 32x32 images are 0.7 MiB of
        # decoder bytes, scaled one batch at a time. Held as float64 for
        # the whole run they took 5.9 MiB, and a 1-epoch default train
        # peaked at 15.0 MiB; with the bytes it peaks at 9.9 MiB.
        assert main(["synth", "--out", str(tmp_path / "ds"), "--classes", "5",
                     "--per-class", "50", "--size", "32", "--seed", "1"]) == 0
        (tmp_path / "run.cfg").write_text("max_epochs=1\n")
        tracemalloc.start()
        try:
            assert main(["train", "--config", str(tmp_path / "run.cfg"),
                         "--data", str(tmp_path / "ds" / "manifest.csv"),
                         "--out", str(tmp_path / "run"), "--seed", "1"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20


class TestEval:
    def test_matches_training_report(self, cli_workspace, tmp_path, capsys):
        run = cli_workspace / "run"
        assert main(["eval", "--checkpoint", str(run / "checkpoint.fabn"),
                     "--data", str(run / "test_split.csv"),
                     "--report", str(tmp_path / "rep")]) == 0
        assert ((tmp_path / "rep" / "metrics.csv").read_text()
                == (run / "metrics.csv").read_text())
        assert ((tmp_path / "rep" / "confusion.csv").read_text()
                == (run / "confusion.csv").read_text())

    def test_split_file_usable_from_relative_paths(self, tmp_path, monkeypatch,
                                                   capsys):
        monkeypatch.chdir(tmp_path)
        main(["synth", "--out", "ds", "--classes", "2", "--per-class", "4",
              "--size", "16", "--seed", "1"])
        (tmp_path / "q.cfg").write_text(SMALL_CONFIG.replace("max_epochs=6",
                                                             "max_epochs=1"))
        assert main(["train", "--config", "q.cfg", "--data", "ds/manifest.csv",
                     "--out", "run"]) == 0
        assert main(["eval", "--checkpoint", "run/checkpoint.fabn",
                     "--data", "run/test_split.csv", "--report", "rep"]) == 0

    def test_class_count_mismatch(self, cli_workspace, tmp_path, capsys):
        other = tmp_path / "two"
        main(["synth", "--out", str(other), "--classes", "2",
              "--per-class", "3", "--size", "16", "--seed", "0"])
        code = main(["eval",
                     "--checkpoint", str(cli_workspace / "run" / "checkpoint.fabn"),
                     "--data", str(other / "manifest.csv"),
                     "--report", str(tmp_path / "rep")])
        assert code == 1
        assert "do not match" in capsys.readouterr().err

    def test_memorized_toy_set_is_perfect(self, tmp_path, capsys):
        main(["synth", "--out", str(tmp_path / "ds"), "--classes", "2",
              "--per-class", "10", "--size", "16", "--seed", "3"])
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(SMALL_CONFIG.replace("max_epochs=6", "max_epochs=30")
                       .replace("seed=7", "seed=3"))
        main(["train", "--config", str(cfg),
              "--data", str(tmp_path / "ds" / "manifest.csv"),
              "--out", str(tmp_path / "run")])
        code = main(["eval",
                     "--checkpoint", str(tmp_path / "run" / "checkpoint.fabn"),
                     "--data", str(tmp_path / "ds" / "manifest.csv"),
                     "--report", str(tmp_path / "rep")])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy: 1.0" in out
        assert "top-1 error 0.0%" in out


class TestPredict:
    def test_probabilities_sum_to_one(self, cli_workspace, capsys):
        image = next(iter(sorted((cli_workspace / "ds").glob("*.ppm"))))
        assert main(["predict",
                     "--checkpoint", str(cli_workspace / "run" / "checkpoint.fabn"),
                     "--image", str(image)]) == 0
        out = capsys.readouterr().out
        probs = [float(line.split(":")[1]) for line in out.splitlines()
                 if line.startswith("  ")]
        assert len(probs) == 3
        assert abs(sum(probs) - 1.0) <= 1e-9

    def test_repeat_invocation_identical(self, cli_workspace, capsys):
        image = next(iter(sorted((cli_workspace / "ds").glob("*.ppm"))))
        args = ["predict",
                "--checkpoint", str(cli_workspace / "run" / "checkpoint.fabn"),
                "--image", str(image)]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    def test_grayscale_input_accepted(self, cli_workspace, tmp_path, capsys):
        gray = tmp_path / "g.pgm"
        rng = np.random.default_rng(0)
        payload = rng.integers(0, 256, size=16 * 16, dtype=np.uint8)
        gray.write_bytes(b"P5\n16 16\n255\n" + payload.tobytes())
        assert main(["predict",
                     "--checkpoint", str(cli_workspace / "run" / "checkpoint.fabn"),
                     "--image", str(gray)]) == 0
        assert "prediction: " in capsys.readouterr().out

    def test_undecodable_image_fails(self, cli_workspace, tmp_path, capsys):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"GIF89a....")
        assert main(["predict",
                     "--checkpoint", str(cli_workspace / "run" / "checkpoint.fabn"),
                     "--image", str(bad)]) == 1
        assert "error" in capsys.readouterr().err


class TestOverflowingCheckpoint:
    """Finite weights whose forward pass overflows fail loudly.

    The loader accepts every finite value, and ReLU maps the NaNs of
    ``inf - inf`` to 0.0, so without a check the logits look finite.
    """

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_one_error_line_no_traceback(self, command, cli_workspace,
                                         tmp_path):
        model = load_checkpoint(cli_workspace / "run" / "checkpoint.fabn")
        for name, t in model.params.items():
            if name.endswith(".conv.weight"):
                t.data *= 1e200
        checkpoint = tmp_path / "overflow.fabn"
        save_checkpoint(model, checkpoint)
        if command == "predict":
            argv = ["--image", str(min((cli_workspace / "ds").glob("*.ppm")))]
        else:
            argv = ["--data", str(cli_workspace / "run" / "test_split.csv"),
                    "--report", str(tmp_path / "rep")]
        env = dict(os.environ,
                   PYTHONPATH=str(Path(fabnet.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "fabnet.cli", command,
             "--checkpoint", str(checkpoint)] + argv,
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert str(checkpoint) in lines[0]
        assert proc.stdout == ""
        assert not (tmp_path / "rep").exists()


class TestGradcheck:
    def test_corrupted_backward_rule_detected(self, capsys):
        with backward_fault("relu", scale=2.0):
            code = main(["gradcheck"])
        assert code == 3
        captured = capsys.readouterr()
        assert "relu" in captured.err
        assert "FAIL" in captured.out

    def test_clean_run_passes(self, capsys):
        assert main(["gradcheck", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok") >= 13
        assert "FAIL" not in out

    def test_inputs_near_kinks_are_redrawn(self):
        # Seed 114's first model_loss input puts a ReLU or max-pool decision
        # within a finite-difference step of its kink.
        assert all(r.passed for r in run_suite(seed=110, n_seeds=5))


# A representative argv for each subcommand.
COMMAND_ARGV = {
    "synth": ["synth", "--out", "ds", "--per-class", "3", "--seed", "2"],
    "train": ["train", "--data", "m.csv", "--out", "run", "--no-fab",
              "--seed", "4"],
    "eval": ["eval", "--checkpoint", "c.fabn", "--data", "m.csv",
             "--report", "rep"],
    "predict": ["predict", "--check", "c.fabn", "--im", "x.ppm"],
    "gradcheck": ["gradcheck", "--seed", "5"],
}


def subcommand_parsers(parser) -> dict:
    action, = (a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestParser:
    def test_every_command_has_a_representative_argv(self):
        assert list(COMMAND_ARGV) == list(COMMANDS)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_one_command_parser_matches_full_parser(self, command):
        one, full = build_parser(command), build_parser()
        argv = COMMAND_ARGV[command]
        assert one.parse_args(argv) == full.parse_args(argv)
        assert (subcommand_parsers(one)[command].format_help()
                == subcommand_parsers(full)[command].format_help())
        assert one.format_usage() == full.format_usage()

    def test_only_the_named_command_is_built(self):
        assert list(subcommand_parsers(build_parser("predict"))) == ["predict"]
        assert list(subcommand_parsers(build_parser())) == list(COMMANDS)

    def test_main_reads_the_command_from_sys_argv(self, tmp_path,
                                                  monkeypatch):
        built = []
        monkeypatch.setattr(fabnet.cli, "build_parser", lambda command=None: (
            built.append(command) or build_parser(command)))
        monkeypatch.setattr(sys, "argv", [
            "fabnet", "synth", "--out", str(tmp_path / "ds"), "--classes", "2",
            "--per-class", "1", "--size", "4"])
        assert main() == 0
        assert built == ["synth"]
        assert (tmp_path / "ds" / "manifest.csv").is_file()

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["--seed", "1"]])
    def test_no_command_gets_the_full_parser(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "{synth,train,eval,predict,gradcheck}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"]] + [
        [name, "--help"] for name in COMMANDS])
    def test_help_exits_zero_with_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        prog = " ".join(["fabnet"] + argv[:-1])
        assert capsys.readouterr().out.startswith(f"usage: {prog} ")


BAD_INPUTS = [
    ("synth", ["--classes", "1"]),
    ("synth", ["--per-class", "0"]),
    ("synth", ["--size", "0"]),
    ("synth", ["--seed", "-1"]),
    ("train", "learning_rate=-1"),
    ("train", "learning_rate=0"),
    ("train", "learning_rate=nan"),
    ("train", "learning_rate=inf"),
    ("train", "batch_size=0"),
    ("train", "max_epochs=0"),
    ("train", "image_size=0"),
    ("train", "image_size=65536"),   # 192 GiB of input, never allocated
    ("train", "head_hidden=0"),
    # Over 64 PiB each, more than any process can address: never allocated.
    ("train", "head_hidden=1000000000000000"),
    ("train", "blocks=1000000000000000:pool"),
    ("train", "fab_ratio=0"),
    ("train", "seed=-1"),
    ("train", ["--seed", "-1"]),
    ("train", "learning_rate=1e308"),   # diverges: no numpy warnings
    ("gradcheck", ["--seed", "-1"]),
    # (flag, bytes of the file it names): text files must be UTF-8.
    pytest.param("train", ("--config", b"seed=\xff\n"),
                 id="train config not UTF-8"),
    pytest.param("train", ("--data", b"path,label\nimg\xff.ppm,a\n"),
                 id="train manifest not UTF-8"),
] + [("predict", fault) for fault in CHECKPOINT_FAULTS]


class TestBadInput:
    @pytest.mark.parametrize("command, bad", BAD_INPUTS, ids=lambda v: (
        v if isinstance(v, str) else " ".join(v)))
    def test_one_error_line_no_traceback(self, command, bad, cli_workspace,
                                         tmp_path):
        # Run the real entry point so an escaping exception would show up
        # as a traceback on stderr and a different exit code.
        if command == "synth":
            argv = ["synth", "--out", str(tmp_path / "ds")] + bad
        elif command == "gradcheck":
            argv = ["gradcheck"] + bad
        elif command == "predict":
            corrupt, _ = CHECKPOINT_FAULTS[bad]
            checkpoint = tmp_path / "bad.fabn"
            checkpoint.write_bytes(corrupt(
                (cli_workspace / "run" / "checkpoint.fabn").read_bytes()))
            image = min((cli_workspace / "ds").glob("*.ppm"))
            argv = ["predict", "--checkpoint", str(checkpoint),
                    "--image", str(image)]
        else:
            argv = ["train", "--data", str(cli_workspace / "ds" / "manifest.csv"),
                    "--out", str(tmp_path / "run")]
            if isinstance(bad, str):
                (tmp_path / "bad.cfg").write_text(bad + "\n")
                argv += ["--config", str(tmp_path / "bad.cfg")]
            elif isinstance(bad, tuple):
                flag, content = bad
                (tmp_path / "bad.file").write_bytes(content)
                argv += [flag, str(tmp_path / "bad.file")]
            else:
                argv += bad
        env = dict(os.environ,
                   PYTHONPATH=str(Path(fabnet.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-m", "fabnet.cli"] + argv,
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not (tmp_path / "run").exists()
