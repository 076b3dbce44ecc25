#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs of perfbench runs.

    python3 scripts/bench_pairs.py --out BENCH_35.json --claim fig2:peak_rss_mb

Each side runs from a fresh ``git archive`` of its commit or tree, made in a
temporary directory and removed afterwards: ``--parent`` defaults to HEAD and
``--change`` to the staged tree (``git write-tree``).  For each workload and
seed n, both copies run

    python3 perfbench/run.py --workload W --seed n --seconds S --trace 0

the change first on even seeds and the parent first on odd seeds.  The
output holds, per workload and end-to-end metric of BENCHMARK.json, each
side's median, quartiles and runs, the pairs the change won, the ratio of
the medians and a verdict: "better in every run" where every run of the
change reads better than every run of the parent, else "unresolved" where
either side's interquartile range, relative to the parent's median, is wider
than the metric's bound, else whether the change's median lies within the
bound of the parent's.  A
claimed metric (``--claim W:M``) also gets whether the claim holds: better
in at least 9 of 10 pairs, and a median gap wider than the parent's
interquartile range.  The description states the protocol; add what the
change does by hand.  Nothing under perfbench/ is touched.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PROTOCOL = ("perfbench end-to-end metrics, alternating parent/change pairs (change "
            "first on even seeds, parent first on odd seeds), `python3 perfbench/run.py "
            "--workload W --seed N --seconds {seconds:g} --trace 0`, seeds {seeds}, each "
            "tree run from a fresh `git archive` copy of its files; medians and quartiles "
            "over the pairs.  `verdict` compares the change's median with the parent's "
            "against the metric's bound in BENCHMARK.json, and reads unresolved where "
            "either side's interquartile range, relative to the parent's median, is "
            "wider than the bound, unless every run of the change reads better than "
            "every run of the parent.")


def spread(runs: list[float]) -> dict:
    """Median, quartiles (numpy's default, linear interpolation) and runs."""
    q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                      if len(runs) > 1 else runs * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def compare(parent: list[float], change: list[float], better: str, bound: float,
            claimed: bool = False) -> dict:
    """One metric over the pairs (parent[i], change[i])."""
    sign = 1.0 if better == "higher" else -1.0
    p, c = spread(parent), spread(change)
    base = p["median"]
    won = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    if (min(change) > max(parent) if sign > 0 else max(change) < min(parent)):
        verdict = "better in every run"
    elif max(p["q3"] - p["q1"], c["q3"] - c["q1"]) > bound * abs(base):
        verdict = "unresolved"
    elif sign * (c["median"] - base) < -bound * abs(base):
        verdict = "worse than bound"
    else:
        verdict = "within bound"
    out = {"parent": p, "change": c, "change_better_pairs": won,
           "median_ratio": c["median"] / base if base else None, "verdict": verdict}
    if claimed:
        gap = sign * (c["median"] - base)
        out["claim_holds"] = 10 * won >= 9 * len(parent) and gap > p["q3"] - p["q1"]
    return out


def summarize(seeds: list[int], results: dict[str, list[dict]], metrics: list[dict],
              claimed: str | None = None) -> dict:
    """A workload's entry from each side's perfbench results, one per seed."""
    failed = sum(r["failed"] for side in results.values() for r in side)
    return {
        "pairs": len(seeds),
        "seeds": seeds,
        "all_runs_correct": all(r["correct"] for side in results.values() for r in side),
        "failed_operations": failed,
        "metrics": {
            m["name"]: compare(*([r["metrics"][m["name"]]["value"] for r in results[side]]
                                 for side in ("parent", "change")),
                               m["better"], m["bound"], m["name"] == claimed)
            for m in metrics
        },
    }


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=REPO, check=True, capture_output=True,
                          text=True).stdout.strip()


def archive(treeish: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    with subprocess.Popen(["git", "archive", treeish], cwd=REPO,
                          stdout=subprocess.PIPE) as src:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=src.stdout, check=True)
    if src.returncode:
        raise RuntimeError(f"git archive {treeish} failed")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{root.name} {workload} seed {seed}: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--change", help="commit or tree; the staged tree by default")
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", type=seed_range, default="0-9", help="e.g. 0-9")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--claim", help="WORKLOAD:METRIC of a claimed gain")
    args = parser.parse_args(argv)

    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    claim = dict(zip(("workload", "metric"), args.claim.split(":"))) if args.claim else None
    parent, change = git("rev-parse", args.parent), args.change or git("write-tree")
    import numpy

    out = {
        "description": PROTOCOL.format(seconds=args.seconds,
                                       seeds=f"{args.seeds[0]}-{args.seeds[-1]}"),
        "parent_sha": parent,
        "change_src_tree": git("rev-parse", change + "^{tree}"),
        "host": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                 "numpy": numpy.__version__, "machine": platform.machine()},
        "claimed": claim,
        "workloads": {},
    }
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {"parent": work / "parent", "change": work / "change"}
        for side, treeish in (("parent", parent), ("change", change)):
            archive(treeish, trees[side])
        for workload in workloads:
            results = {"parent": [], "change": []}
            for seed in args.seeds:
                for side in ("change", "parent") if seed % 2 == 0 else ("parent", "change"):
                    results[side].append(run_once(trees[side], workload, seed,
                                                  args.seconds))
                    print(f"{workload} seed {seed} {side}: "
                          f"{results[side][-1]['metrics']['wall_s']['value']:.4g} s",
                          file=sys.stderr)
            claimed = claim["metric"] if claim and claim["workload"] == workload else None
            out["workloads"][workload] = summarize(args.seeds, results,
                                                   bench["end_to_end"], claimed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
