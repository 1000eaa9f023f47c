"""Benchmark of the qmonitor command line, end to end and layer by layer.

    python3 qmbench/run.py --workload exact_sweep --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src`` directory, so there is nothing to build or install.

--trace 0 (end to end): after timing the import floor, the workload's CLI
commands run as fresh ``python -m qmonitor.cli`` processes, one after another
from this single driver process (a closed loop with one client), until
--seconds have passed. Every operation's output is checked against a numpy
reference; an operation fails when it exits non-zero or its check fails.

--trace 1 (per layer): repeats cycles of one end-to-end run, one untraced
in-process run and one traced in-process run of the same commands. The
traced run wraps the layer entry points listed in tracing.py and reports
each layer's self time, calls and escaped errors; the difference between the
traced and untraced in-process runs is the tracing overhead. A layer's call
count must repeat exactly from cycle to cycle; a change is a failed check.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A run record with the machine, the raw
samples and any failures is written under qmbench/.work/records/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from launch import TIMEOUT_S
from tracing import ROOT_SPAN, SPAN_NAMES, Tracer
from workloads import WORKLOADS, CheckFailed, Op, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_REPEATS = 31
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


@dataclass
class ProcResult:
    command: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


@dataclass
class Tally:
    """Operations attempted and failed, with a message per failure."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{label}: {problem}")


# ---------------------------------------------------------------------------
# processes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(
    label: str, argv: list[str], env: dict[str, str], log: Path
) -> tuple[ProcResult, str]:
    """Run one child to completion through the launcher; returns it and its stderr."""
    launcher = [sys.executable, "-I", "-S", str(HERE / "launch.py")]
    with open(log, "w+b") as err:
        done = subprocess.run(
            [*launcher, *argv],
            stdout=subprocess.PIPE,
            stderr=err,
            env=env,
            cwd=ROOT,
            timeout=TIMEOUT_S + 30.0,
            check=True,
        )
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return ProcResult(command=label, **json.loads(done.stdout)), stderr


def import_floor(env: dict[str, str], log: Path) -> list[float]:
    """Wall times of fresh interpreters that only import qmonitor.cli."""
    argv = [sys.executable, "-c", "import qmonitor.cli"]
    samples = []
    for i in range(SETUP_REPEATS + 1):  # the first one warms the bytecode cache
        result, stderr = run_process("import", argv, env, log)
        if result.exit_code != 0:
            raise RuntimeError(f"cannot import qmonitor.cli from {SRC}:\n{stderr}")
        if i:
            samples.append(result.wall_s)
    return samples


# ---------------------------------------------------------------------------
# one workload run


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def check_op(op: Op, out: Path, exit_code: object, stderr: str) -> str | None:
    if exit_code != 0:
        return f"exit code {exit_code}: {stderr.strip()[-500:]}"
    try:
        op.check(out)
    except CheckFailed as exc:
        return f"check failed: {exc}"
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None


def run_end_to_end(workload: Workload, out: Path, env: dict[str, str], tally: Tally) -> dict:
    ops = workload.ops(fresh_dir(out))
    log = out.parent / f"{out.name}.stderr"
    procs, stderrs = [], []
    for op in ops:
        argv = [sys.executable, "-m", "qmonitor.cli", *op.argv]
        result, stderr = run_process(op.command, argv, env, log)
        procs.append(result)
        stderrs.append(stderr)
    bytes_read = sum(path.stat().st_size for op in ops for path in op.reads if path.exists())
    bytes_written = sum(path.stat().st_size for path in out.iterdir())
    for op, result, stderr in zip(ops, procs, stderrs):
        tally.record(f"{op.command} (process)", check_op(op, out, result.exit_code, stderr))
    return {
        "wall_s": sum(p.wall_s for p in procs),
        "cpu_s": sum(p.cpu_s for p in procs),
        "peak_rss_mb": max(p.peak_rss_mb for p in procs),
        "bytes_read": bytes_read,
        "bytes_written": bytes_written,
        "processes": [asdict(p) for p in procs],
    }


def run_in_process(workload: Workload, out: Path, tally: Tally, tracer: Tracer | None) -> float:
    """The workload's commands through qmonitor.cli.main in this interpreter."""
    from qmonitor import cli

    ops = workload.ops(fresh_dir(out))
    codes: list[object] = []
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for index, op in enumerate(ops):
            try:
                if tracer is None:
                    codes.append(cli.main(op.argv))
                else:
                    tracer.op = index
                    codes.append(tracer.call(ROOT_SPAN, cli.main, op.argv))
            except SystemExit as exc:
                codes.append(exc.code)
            except Exception as exc:  # an escaped exception fails this operation only
                codes.append(f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    mode = "traced" if tracer is not None else "in-process"
    for op, code in zip(ops, codes):
        tally.record(f"{op.command} ({mode})", check_op(op, out, code, sink.getvalue()))
    return elapsed


# ---------------------------------------------------------------------------
# the two modes


def repeat_for(seconds: float):
    """Yield once, then again while another iteration fits in the time left.

    An iteration is expected to take as long as the median one so far, so a
    run measures for about ``seconds`` without overshooting by a whole one.
    """
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        begin = time.perf_counter()
        yield
        durations.append(time.perf_counter() - begin)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return


def measure_end_to_end(workload, seconds, env, tally, samples) -> dict:
    runs = []
    for _ in repeat_for(seconds):
        runs.append(run_end_to_end(workload, WORK / "out", env, tally))
    samples["runs"] = runs
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in runs), "s"),
        "setup_s": (statistics.median(samples["setup_s"]), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        "success_rate": (1.0 - tally.failed / tally.attempted, "fraction"),
    }


def call_count_change(first: dict, latest: dict) -> str | None:
    """The spans whose call count differs from the first traced cycle's, if any."""
    changed = [
        f"{name} {first[name]['calls']} -> {latest[name]['calls']}"
        for name in SPAN_NAMES
        if latest[name]["calls"] != first[name]["calls"]
    ]
    return "calls changed between cycles: " + ", ".join(changed) if changed else None


def measure_layers(workload, seconds, env, tally, samples, spans_path) -> dict:
    sys.path.insert(0, str(SRC))
    import qmonitor

    if not Path(qmonitor.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"qmonitor imported from {qmonitor.__file__}, not {SRC}")
    runs, untraced, traced, stats = [], [], [], []
    for _ in repeat_for(seconds):
        runs.append(run_end_to_end(workload, WORK / "out", env, tally))
        untraced.append(run_in_process(workload, WORK / "in_process", tally, None))
        tracer = Tracer()
        saved = tracer.install()
        try:
            traced.append(run_in_process(workload, WORK / "traced", tally, tracer))
        finally:
            Tracer.restore(saved)
        stats.append(tracer.layer_stats())
        tally.record("layer call counts (traced)", call_count_change(stats[0], stats[-1]))
    tracer.write(spans_path)
    samples.update(runs=runs, untraced_s=untraced, traced_s=traced, layer_stats=stats)

    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = (statistics.median(s[name]["self_s"] for s in stats), "s")
        metrics[f"{name}.calls"] = (stats[0][name]["calls"], "count")
        metrics[f"{name}.errors"] = (max(s[name]["errors"] for s in stats), "count")
    calls = stats[0]
    kernels = calls["markov.build_transition_matrix"]["calls"]
    metrics["linalg.eig_per_tau"] = (
        calls["linalg.eig_hermitian"]["calls"] / workload.tau_points,
        "calls/tau",
    )
    metrics["markov.spectrum_per_kernel"] = (
        calls["markov.spectrum"]["calls"] / kernels if kernels else 0.0,
        "calls/kernel",
    )
    metrics["io.bytes_written"] = (runs[0]["bytes_written"], "B")
    metrics["io.bytes_read"] = (runs[0]["bytes_read"], "B")
    metrics["proc.cpu_s"] = (statistics.median(r["cpu_s"] for r in runs), "s")
    metrics["proc.count"] = (len(runs[0]["processes"]), "count")
    overhead = statistics.median(t - u for t, u in zip(traced, untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


# ---------------------------------------------------------------------------
# run record


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_revision": git_revision(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qmonitor" / "cli.py").is_file():
        print(f"error: no qmonitor sources under {SRC}", file=sys.stderr)
        return 2

    fresh_dir(WORK / "inputs")
    workload = WORKLOADS[args.workload](args.seed, WORK / "inputs")
    env = child_env()
    samples: dict = {"setup_s": import_floor(env, WORK / "setup.stderr")}
    tally = Tally()
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        spans_path = records / f"{stem}-spans.json"
        metrics = measure_layers(workload, args.seconds, env, tally, samples, spans_path)
    else:
        metrics = measure_end_to_end(workload, args.seconds, env, tally, samples)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "failures": tally.failures,
        "samples": samples,
        "result": result,
    }
    record_path = records / f"{stem}.json"
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for failure in tally.failures:
        print(f"FAILED {failure}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
