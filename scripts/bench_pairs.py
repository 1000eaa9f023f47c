#!/usr/bin/env python3
"""Run the benchmark on a parent tree and a change tree in alternating pairs.

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --out BENCH.json \\
        --workload exact_sweep --pairs 10 --seconds 8 --first-seed 2401

Each tree is a source checkout (a `git archive` copy will do) with its own
qmbench/run.py. Pair i (from 1) runs that script once on each tree, with the
same workload, seed (first seed + i - 1) and settings; the parent goes first
in odd pairs and the change in even ones, so machine drift falls on both
sides. The JSON file holds the seeds, which side ran first in each pair,
every run's metrics, and for each workload and metric both sides' medians
and quartiles and the pairs each side won (a tie counts for neither), with
run.py's machine() record and both revisions. The end-to-end metrics'
spread (the parent's quartile distance over its median) is printed next to
the bound BENCHMARK.json gives it, and the line says when the change is
worse by more than the bound or the spread is too wide to judge. Exits 1
if a run fails or reports an incorrect result, and, with --trace 1, if a
span's call count differs between the two sides of a pair, unless
--expect-calls names that span.

Before and after each pair the machine is calibrated, and the record kept
with the pair: the fastest of CALIBRATION_RUNS fresh `python -c pass` and
`python -c "import numpy"` processes, os.getloadavg(), and a pure
Python loop timed alone and as the slower of two copies run at once. Their
ratio, the contention, is about 1 where two processes get a core each and
about 2 where they share one; it says whether work split between two
processes can save wall time on this machine.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
CALIBRATION_RUNS = 5
# a pure Python loop that prints its own run time, so start-up is not counted
LOOP = ("import time\nstart = time.perf_counter()\nfor _ in range(3_000_000):\n    pass\n"
        "print(time.perf_counter() - start)")


def quartiles(values: list[float]) -> dict:
    """Median and quartiles (of one value: that value three times)."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    """{workload: {metric: both sides' quartiles and pair wins}} of the pairs' results.

    A pair is {"workload", "seed", "first", "parent", "change"}, each side
    being run.py's last line ({"correct", "metrics": {name: {"value"}}}).
    better maps a metric to "lower" or "higher"; unlisted metrics are lower.
    """
    summary: dict[str, dict] = {}
    for workload in dict.fromkeys(pair["workload"] for pair in pairs):
        runs = [pair for pair in pairs if pair["workload"] == workload]
        names = dict.fromkeys(name for pair in runs for side in SIDES
                              for name in pair[side]["metrics"])
        summary[workload] = {}
        for name in names:
            values = {side: [pair[side]["metrics"][name]["value"] for pair in runs]
                      for side in SIDES}
            sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
            gains = [sign * (p - c) for p, c in zip(values["parent"], values["change"])]
            summary[workload][name] = {
                "better": better.get(name, "lower"),
                "pairs": len(gains),
                "parent": {**quartiles(values["parent"]), "values": values["parent"]},
                "change": {**quartiles(values["change"]), "values": values["change"]},
                "change_won": sum(g > 0 for g in gains),
                "parent_won": sum(g < 0 for g in gains),
            }
    return summary


def spread_lines(summary: dict, bounds: dict[str, float]) -> list[str]:
    """One line per workload and bounded metric: both medians and the parent's spread.

    The spread (the parent's quartile distance) and the bound are fractions of
    the parent's median. A line ends with "worse" when the change's median is
    worse than the parent's by more than the bound. Otherwise it ends with
    "unresolved" when the spread is wider than the bound, unless every change
    run beats every parent run: the medians cannot be told apart then.
    """
    lines = []
    for workload, metrics in summary.items():
        for name, bound in bounds.items():
            if name not in metrics:
                continue
            m = metrics[name]
            parent, change = m["parent"], m["change"]
            spread = (parent["q3"] - parent["q1"]) / parent["median"] if parent["median"] else 0.0
            sign = -1.0 if m["better"] == "higher" else 1.0  # sign * value is lower-better
            loss = sign * (change["median"] - parent["median"])
            every_run_won = (max(sign * v for v in change["values"])
                             < min(sign * v for v in parent["values"]))
            line = (
                f"{workload:16s} {name:12s} parent {parent['median']:.6g} change "
                f"{change['median']:.6g}  change won {m['change_won']}/{m['pairs']}  "
                f"parent spread {spread:.4f} (bound {bound})"
            )
            if loss > bound * abs(parent["median"]):
                line += "  worse"
            elif spread > bound and not every_run_won:
                line += "  unresolved"
            lines.append(line)
    return lines


def call_count_changes(pairs: list[dict], expected: set[str]) -> list[str]:
    """One line per pair and span whose .calls count differs between the sides.

    A count only one side reports differs too; spans in expected are skipped.
    """
    changes = []
    for pair in pairs:
        metrics = [pair[side]["metrics"] for side in SIDES]
        for name in dict.fromkeys(n for m in metrics for n in m if n.endswith(".calls")):
            span = name.removesuffix(".calls")
            counts = [m.get(name, {}).get("value") for m in metrics]
            if span not in expected and counts[0] != counts[1]:
                changes.append(f"{pair['workload']} seed {pair['seed']}: {span} calls "
                               f"{counts[0]} (parent) != {counts[1]} (change)")
    return changes


def fresh_seconds(code: str, runs: int) -> float:
    """The least wall time of runs fresh `python -c code` processes."""
    best = math.inf
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, timeout=60)
        best = min(best, time.perf_counter() - start)
    return best


def loop_seconds(copies: int) -> float:
    """The slowest LOOP time of this many copies started at once."""
    procs = [subprocess.Popen([sys.executable, "-c", LOOP], stdout=subprocess.PIPE, text=True)
             for _ in range(copies)]
    return max(float(proc.communicate(timeout=60)[0]) for proc in procs)


def calibrate(runs: int) -> dict:
    """The machine's start-up floors, load and contention at this moment."""
    alone, two = loop_seconds(1), loop_seconds(2)
    return {
        "python_pass_s": fresh_seconds("pass", runs),
        "import_numpy_s": fresh_seconds("import numpy", runs),
        "loadavg": list(os.getloadavg()),
        "loop_alone_s": alone,
        "loop_two_at_once_s": two,
        "contention": two / alone,
    }


def calibration_lines(pairs: list[dict]) -> list[str]:
    """One line per workload: the range of each calibration value over its pairs.

    Where the runs report wall_s (end to end), each side's median is also
    given in units of the median `import numpy` floor, so that runs from
    different times or machines can be read side by side.
    """
    lines = []
    for workload in dict.fromkeys(pair["workload"] for pair in pairs):
        runs = [pair for pair in pairs if pair["workload"] == workload]
        records = [pair["calibration"][when] for pair in runs for when in ("before", "after")]
        ranges = [(name, [record[name] for record in records])
                  for name in ("python_pass_s", "import_numpy_s", "contention")]
        ranges.append(("loadavg_1min", [record["loadavg"][0] for record in records]))
        line = f"{workload:16s} calibration " + "  ".join(
            f"{name} {min(values):.4g}..{max(values):.4g}" for name, values in ranges)
        if all("wall_s" in pair[side]["metrics"] for pair in runs for side in SIDES):
            floor = statistics.median(record["import_numpy_s"] for record in records)
            walls = [statistics.median(pair[side]["metrics"]["wall_s"]["value"] for pair in runs)
                     / floor for side in SIDES]
            line += f"  wall_s/import_numpy parent {walls[0]:.3g} change {walls[1]:.3g}"
        lines.append(line)
    return lines


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(run.py's result line, its run record) for one run on tree."""
    argv = [sys.executable, "qmbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{tree}: {workload} seed {seed} exited {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    record = next(line.split(": ", 1)[1] for line in lines if line.startswith("record: "))
    with open(tree / record, encoding="utf-8") as fh:
        return json.loads(lines[-1]), json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent commit's source tree")
    parser.add_argument("change", type=Path, help="the change's source tree")
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    parser.add_argument("--workload", action="append",
                        help="a workload to run (repeatable; default: all in BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expect-calls", action="append", default=[], metavar="SPAN",
                        help="a span whose call count may change (repeatable; with --trace 1)")
    parser.add_argument("--parent-rev", help="the parent's revision (default: a checkout's HEAD)")
    parser.add_argument("--change-rev", help="the change's revision (default: a checkout's HEAD)")
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with open(trees["change"] / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    better = {m["name"]: m["better"] for m in declared}
    bounds = {m["name"]: m["bound"] for m in declared if "bound" in m}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    pairs, machines, problems = [], {}, []
    for i in range(args.pairs):
        seed = args.first_seed + i
        first = SIDES[i % 2]  # pair i + 1: the parent first when that is odd
        for workload in workloads:
            pair = {"workload": workload, "seed": seed, "first": first}
            before = calibrate(CALIBRATION_RUNS)
            for side in (first, *(s for s in SIDES if s != first)):
                result, record = run_once(trees[side], workload, seed, args.seconds, args.trace)
                pair[side] = result
                machines.setdefault(side, record["machine"])
                if not result["correct"] or result["failed"]:
                    problems.append(f"{side} {workload} seed {seed}: {result['failed']} failed")
            pair["calibration"] = {"before": before, "after": calibrate(CALIBRATION_RUNS)}
            pairs.append(pair)
            print(f"pair {i + 1} {workload} seed {seed} ({first} first) done", flush=True)

    if args.trace:
        problems += call_count_changes(pairs, set(args.expect_calls))
    summary = summarise(pairs, better)
    report = {
        "command": ["qmbench/run.py", "--seconds", args.seconds, "--trace", args.trace],
        "pythondontwritebytecode": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        # run.py records a tree's git HEAD, which a `git archive` copy does not have
        "revisions": {"parent": args.parent_rev or machines["parent"]["git_revision"],
                      "change": args.change_rev or machines["change"]["git_revision"]},
        "machine": {k: v for k, v in machines["change"].items() if k != "git_revision"},
        "workloads": workloads,
        "pair_count": args.pairs,
        "seeds": [args.first_seed + i for i in range(args.pairs)],
        "first": [SIDES[i % 2] for i in range(args.pairs)],
        "pairs": pairs,
        "summary": summary,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for line in spread_lines(summary, bounds) + calibration_lines(pairs):
        print(line)
    print(f"wrote {args.out}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
