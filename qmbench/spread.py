"""Run the benchmark over several seeds and report each metric's spread.

    python3 qmbench/spread.py --runs 10 --first-seed 1000
    python3 qmbench/spread.py --runs 1 --trace 1

Runs BENCHMARK.json's command once per (seed, workload), taking the
workloads in turn for each seed so that machine drift spreads over all of
them. For every metric it prints the median, the quartiles and their
distance as a share of the median, and marks an end-to-end metric whose
spread is not below a third of its bound. It also checks that each run
prints exactly the metrics, with the units, that BENCHMARK.json lists.
Exits non-zero if any run fails, reports an incorrect result, or breaks
that agreement.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / ".work" / "spread"


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    bounds = {m["name"]: m.get("bound") for m in declared}

    results: dict[str, list[dict]] = {w: [] for w in workloads}
    problems = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in workloads:
            result = run_once(spec, workload, seed, args.trace)
            results[workload].append(result)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != units:
                problems.append(f"{workload} seed {seed}: metrics {sorted(got)} != declared")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} seed {seed}: {result['failed']} failed")
            print(f"{workload:16s} seed {seed:5d}  {result['elapsed_s']:6.1f} s  "
                  f"attempted {result['attempted']} failed {result['failed']}", flush=True)

    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"trace{args.trace}-seed{args.first_seed}-runs{args.runs}.json"
    out.write_text(json.dumps(results, indent=1))
    print(f"raw results: {out.relative_to(ROOT)}")

    for workload in workloads:
        print(f"\n{workload} ({len(results[workload])} runs)")
        for name in units:
            values = [r["metrics"][name]["value"] for r in results[workload] if name in r["metrics"]]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[name]
            flag = ""
            if bound is not None and not spread < bound / 3:
                flag = "  <-- spread not below a third of the bound"
            print(f"  {name:42s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.4f}  bound {bound}{flag}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
