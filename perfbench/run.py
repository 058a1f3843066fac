"""fabnet benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload train --seed 1 --seconds 35 --trace 0

Drives ``fabnet.cli.main`` in-process on inputs generated from ``--seed``,
checks every operation's outputs, and prints a report followed by one JSON
result line. With ``--trace 0`` the result holds the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics, taken
from a traced second half of the measuring time (see tracing.py).
Workloads are described in workloads.py and README.md.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3
# One BLAS thread: on the 2-CPU reference box 1 and 2 threads train at the
# same speed, and one thread is steadier on a shared machine.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train", "predict"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def cold_import() -> None:
    """A fresh interpreter importing the CLI: the start-up every call pays."""
    subprocess.run([sys.executable, "-c",
                    f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                    "import fabnet.cli"], check=True, cwd=ROOT,
                   stdout=subprocess.DEVNULL)


def set_up(workload, work: Path, seed: int) -> float:
    """Set the workload up SETUP_REPEATS times; median seconds, last one kept."""
    times = []
    for rep in range(SETUP_REPEATS):
        d = work / f"setup{rep}"
        d.mkdir()
        t0 = perf_counter()
        cold_import()
        workload.setup(d, seed)
        times.append(perf_counter() - t0)
        if rep:
            shutil.rmtree(work / f"setup{rep - 1}")
    return statistics.median(times)


class Runner:
    """Runs and checks one CLI operation at a time; counts failures."""

    def __init__(self, workload, cli_main):
        self.workload = workload
        self.cli_main = cli_main
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def call(self, tracer=None) -> float:
        i = self.attempted
        argv = self.workload.argv(i)
        out, err = io.StringIO(), io.StringIO()
        gc.collect()   # a real CLI command starts with a clean heap
        span = tracer.begin_op() if tracer is not None else None
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.cli_main(argv)
        except Exception as exc:   # a crash is a failed operation, not the end
            rc = f"{type(exc).__name__}: {exc}"
        finally:
            seconds = perf_counter() - t0
            if span is not None:
                tracer.close(span)
        self.attempted += 1
        if rc != 0:
            problems = [f"{argv[0]} returned {rc!r}: {err.getvalue().strip()}"]
        else:
            try:
                problems = self.workload.check(i, out.getvalue())
            except (OSError, ValueError, IndexError) as exc:
                problems = [f"unreadable output: {exc}"]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return seconds

    def measure(self, seconds: float, tracer=None) -> list:
        """Closed loop: back-to-back operations until ``seconds`` have passed."""
        times = []
        deadline = perf_counter() + seconds
        while not times or perf_counter() < deadline:
            times.append(self.call(tracer))
        return times


def quantile(times: list, q: int) -> float:
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=100, method="inclusive")[q - 1]


def machine_record() -> dict:
    import numpy as np
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "blas": blas, "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": np.__version__,
            "git_commit": git_commit()}


def git_commit() -> str:
    """HEAD read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fabnet" / "cli.py").is_file():
        print(f"error: fabnet sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:   # before numpy loads its BLAS
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    from fabnet.cli import main as cli_main
    import tracing
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]()
    runner = Runner(workload, cli_main)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        setup_s = set_up(workload, work, args.seed)
        gc.collect()
        gc.freeze()    # keeps the per-command collection cheap
        runner.call()   # warm-up: first calls in a process run slower
        # A traced run splits its time between an untraced and a traced half.
        times = runner.measure(args.seconds / (1 + args.trace))
        measured = {
            "setup_s": setup_s,
            "cmd_ms_p50": statistics.median(times) * 1e3,
            "cmd_ms_p90": quantile(times, 90) * 1e3,
            "cmd_ms_p99": quantile(times, 99) * 1e3,
            "items_per_s": workload.items * len(times) / sum(times),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if args.trace:
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                traced = runner.measure(args.seconds / 2, tracer)
            layers, top5 = tracing.layer_metrics(tracer)
            measured.update(layers)
            measured["trace_overhead"] = (statistics.median(traced)
                                          / statistics.median(times))
            measured["training.final_val_loss"] = getattr(
                workload, "final_val_loss", 0.0)
            tracing.save_spans(tracer, OUT / f"spans-{args.workload}.npz")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = sorted({m["name"] for m in wanted} - set(measured))
    if missing:
        print(f"error: BENCHMARK.json names unmeasured metrics {missing}",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: measured[m["name"]] for m in wanted}

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} operations={len(times)}")
    print(json.dumps({"machine": machine_record()}))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in measured.items():
        print(f"  {name:<40} {value!r} {units.get(name, '')}")
    print(f"  {'error_rate':<40} {runner.failed / runner.attempted!r} "
          f"({runner.failed} of {runner.attempted} operations)")
    if getattr(workload, "digests", None):
        print(json.dumps({"outputs": workload.digests}))
    if args.trace:
        print("largest self time (span, ms per operation, share):")
        for name, ms, share in top5:
            print(f"  {name:<40} {ms:.3f} {share:.1%}")
        if tracer.absent:
            print("absent hooks: " + ", ".join(tracer.absent))
    for problem in runner.problems[:5]:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
