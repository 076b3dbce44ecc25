"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steady.py --workloads fig2 bisect-deep --seeds 1-10 --sets 2 --out spread.json

Runs the benchmark command from BENCHMARK.json once per (set, workload,
seed), untraced, and reports for each metric the median, the quartiles and
the spread (third minus first quartile, over the median), as
``statistics.quantiles(values, n=4)`` gives them.  With two sets it also
reports how much worse the second set's median is than the first's, as a
share of the first.  Run from the repository root.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def machine() -> dict:
    import numpy
    import scipy

    model = platform.processor()
    with open("/proc/cpuinfo") as fh:
        model = next((line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")), model)
    git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return {"git_sha": git.stdout.strip() or None, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def run_set(spec: dict, workloads, seeds, bounds) -> dict:
    summary = {}
    for workload in workloads:
        runs = []
        for seed in seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
            runs.append(result)
            print(workload, seed, {k: round(v["value"], 4)
                                   for k, v in result["metrics"].items()},
                  "correct" if result["correct"] else "INCORRECT", flush=True)
        summary[workload] = {
            name: summarize([r["metrics"][name]["value"] for r in runs])
            for name in runs[0]["metrics"]}
        summary[workload]["all_correct"] = all(r["correct"] for r in runs)
        for name, s in summary[workload].items():
            if name in bounds:
                print(f"  {workload:14s} {name:14s} median {s['median']:.6g} "
                      f"spread {s['spread']:.4f} (bound {bounds[name]})", flush=True)
    return summary


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", help="also write the summary here as JSON")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seeds = _seeds(args.seeds)
    sets = [run_set(spec, args.workloads, seeds, bounds) for _ in range(args.sets)]
    out = {"machine": machine(), "run_seconds": spec["run_seconds"], "seeds": seeds,
           "sets": sets}
    if len(sets) == 2:
        worse = {}
        for workload in args.workloads:
            worse[workload] = {}
            for name in bounds:
                first, second = sets[0][workload][name]["median"], sets[1][workload][name]["median"]
                change = (second - first) / first
                worse[workload][name] = change if better[name] == "lower" else -change
                print(f"  {workload:14s} {name:14s} second median worse by "
                      f"{worse[workload][name]:+.4f} (bound {bounds[name]})")
        out["second_median_worse_by"] = worse
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
