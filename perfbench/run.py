"""convexbench benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fig2 --seed 1 --seconds 15 --trace 0

Run it from the repository root; it imports the package from ./src and
nothing else.  Workloads: fig2, fig2-allcores, bisect-deep, modulus-tilts
(see README.md).

A run first starts the package three times in fresh processes to time
set-up, then repeats the workload through ``convexbench.cli.main`` as many
whole times as fill about --seconds (at least once), checking every
repetition's outputs.  With --trace 0 the last line of stdout is a JSON object
with the end-to-end metrics (medians over the repetitions).  With --trace 1
the run makes the layer probes, one plain and one traced repetition, and the
last line has the per-layer metrics; the spans go to
.perfbench/trace-<workload>-seed<n>.json.

Exit code 0 when the run completed (the JSON says whether outputs were
correct), 2 when the package or the arguments are missing.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
STATE_DIR = ".perfbench"  # outputs, traces and caches, inside the checkout


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Larger of this process's peak RSS and that of its reaped children
    (pool workers and set-up probes); Linux reports KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def time_setup(root: Path, config_files: list[Path]) -> dict:
    """Process start to ready: interpreter, ``import convexbench.cli``, parse."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = perf_counter()
    with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), *map(str, config_files)],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return {"setup_s": ready, **json.loads(line)}


def run_repetition(wl, out_dir: Path) -> dict:
    """One repetition of the workload through the public CLI entry point."""
    from convexbench import cli

    stdout, codes = {}, {}
    cpu0 = _cpu_s()
    t0 = perf_counter()
    for label, argv in wl.invocations(out_dir):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                codes[label] = cli.main(argv)
        except SystemExit as e:
            codes[label] = e.code
        except Exception:  # a crash fails this call's operations, not the run
            codes[label] = "raised"
            traceback.print_exc(file=sys.stderr)
        stdout[label] = out.getvalue()
    wall = perf_counter() - t0
    cpu = _cpu_s() - cpu0
    failed_calls = {k: v for k, v in codes.items() if v not in (0, None)}
    if failed_calls:
        print(f"perfbench: non-zero exits {failed_calls}", file=sys.stderr)
    files = [p for p in out_dir.rglob("*") if p.is_file()] if out_dir.is_dir() else []
    out_bytes = sum(len(s.encode()) for s in stdout.values())
    out_bytes += sum(p.stat().st_size for p in files)
    missing = sum(len(json.loads(p.read_text()).get("missing_cells", []))
                  for p in files if p.name == "manifest.json")
    risk = {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in files if p.name == "risk.csv"}
    return {"wall_s": wall, "cpu_s": cpu, "stdout": stdout, "output_bytes": out_bytes,
            "missing_cells": missing, "risk_sha256": risk}


def cross_check_fig2(wl, risk_sha256: dict, state: Path) -> tuple[int, list[str]]:
    """fig2 and fig2-allcores must write byte-identical risk.csv files.

    Each run records the digests of its panels per seed; when the other
    workload has run on the same seed in this checkout, every panel is
    compared.
    """
    if wl.name not in ("fig2", "fig2-allcores"):
        return 0, []
    record_path = state / f"fig2-risk-sha256-seed{wl.seed}.json"
    record = json.loads(record_path.read_text()) if record_path.is_file() else {}
    other = next((v for k, v in record.items() if k != wl.name), None)
    ops, failures = 0, []
    if other is not None:
        ops = len(other)
        failures = [f"{name}: differs between fig2 and fig2-allcores"
                    for name, digest in other.items() if risk_sha256.get(name) != digest]
    record[wl.name] = risk_sha256
    tmp = record_path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    os.replace(tmp, record_path)
    return ops, failures


class Run:
    """Repetitions of one workload, with their checked operations."""

    def __init__(self, wl, run_dir: Path, state: Path):
        self.wl, self.run_dir, self.state = wl, run_dir, state
        self.attempted = 0
        self.failures: list[str] = []
        self.count = 0

    def repetition(self) -> dict:
        out_dir = self.run_dir / f"rep{self.count}"
        self.count += 1
        rep = run_repetition(self.wl, out_dir)
        ops, failures = self.wl.check(out_dir, rep["stdout"])
        if not failures:  # record digests of checked outputs only
            more_ops, more_failures = cross_check_fig2(self.wl, rep["risk_sha256"],
                                                       self.state)
            ops += more_ops
            failures += more_failures
        self.attempted += ops
        self.failures += failures
        shutil.rmtree(out_dir, ignore_errors=True)
        return rep


def repetitions(wl, seconds: float) -> int:
    """Whole repetitions that fill about ``seconds``, at least one.

    Counted from the workload's nominal repetition time, not from the clock,
    so that every run of a workload does the same work: peak memory and the
    median then do not depend on how fast the host happened to be.
    """
    return max(1, int(seconds / wl.nominal_rep_s + 0.5))


def end_to_end(run: Run, args, setups: list[dict]) -> dict:
    wl = run.wl
    walls = [run.repetition()["wall_s"] for _ in range(repetitions(wl, args.seconds))]
    wall = statistics.median(walls)
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "ops_per_s": (wl.work_per_rep / wall, "1/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "ok_frac": (1.0 - len(run.failures) / run.attempted, "fraction"),
    }, walls


def per_layer(run: Run, setups: list[dict]) -> tuple[dict, dict]:
    import probes
    from tracing import LAYERS, Tracer, install_layer_hooks

    wl = run.wl
    # probes first, in the same fresh process state on every workload
    probed = probes.run_all(run.run_dir / "probes")
    plain = run.repetition()
    tracer = Tracer(run.run_dir / "trace-workers")
    install_layer_hooks(tracer)
    tracer.install()
    try:
        traced = run.repetition()
    finally:
        tracer.uninstall()
    # with a pool, the parent's estimate_risk self time is waiting for workers
    waiting = ("experiments.estimate_risk",) if tracer.merge_workers() else ()
    # tracing must not change results: the same risk.csv bytes, file by file
    run.attempted += len(plain["risk_sha256"])
    run.failures += [f"{name}: traced run wrote different bytes"
                     for name, digest in plain["risk_sha256"].items()
                     if traced["risk_sha256"].get(name) != digest]

    m = {}
    m["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    m["trace.wall_s"] = (traced["wall_s"], "s")
    layer_self = tracer.layer_self_s(exclude=waiting)
    busy = sum(layer_self.values())
    for layer in LAYERS:
        m[f"{layer}.self_frac"] = (layer_self[layer] / busy if busy else 0.0, "fraction")
    m["functions.subgrad_spec_calls"] = (tracer.calls("functions.subgrad_spec"), "count")
    m["functions.build_function_calls"] = (tracer.calls("functions.build_function"), "count")
    m["functions.scalar_subgrad_calls"] = (
        tracer.calls("functions.ConvexFunction1D.subgrad"), "count")
    m["oracle.prefetch_mb"] = (tracer.prefetch_bytes / 1e6, "MB")
    queries = wl.work_per_rep if wl.throughput == "queries_per_s" else 0
    m["oracle.draws_per_query"] = (tracer.draws / queries if queries else 0.0, "ratio")
    m["algorithms.scalar_calls"] = (
        tracer.calls("algorithms.sgd") + tracer.calls("algorithms.sign_test_binary_search"),
        "count")
    m["experiments.bs_queries_used_frac"] = (wl.bs_queries_used_frac(), "fraction")
    m["experiments.pool_busy_frac"] = (plain["cpu_s"] / (wl.jobs * plain["wall_s"]),
                                       "fraction")
    m["experiments.missing_cells"] = (traced["missing_cells"], "count")
    m["cli.output_ms"] = (layer_self["cli"] * 1e3, "ms")
    m["cli.output_bytes"] = (traced["output_bytes"], "bytes")
    m["cli.import_ms"] = (statistics.median(s["import_ms"] for s in setups), "ms")
    m.update(probed)

    trace = {"workload": wl.name, "seed": wl.seed, "untraced_wall_s": plain["wall_s"],
             "traced_wall_s": traced["wall_s"], **tracer.to_json(exclude=waiting),
             "metrics": {k: v[0] for k, v in m.items()}}
    return m, trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "convexbench" / "__init__.py").is_file():
        print("perfbench: ./src/convexbench not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import convexbench

    if Path(convexbench.__file__).resolve().parent != (src / "convexbench").resolve():
        print(f"perfbench: imported convexbench from {convexbench.__file__}, "
              f"not from ./src", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 unsigned bits")

    state = root / STATE_DIR
    run_dir = state / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, run_dir / "inputs")
    wl.prepare()
    try:
        configs = sorted(wl.work_dir.glob("*.cfg")) if wl.work_dir.is_dir() else []
        setups = [time_setup(root, configs) for _ in range(SETUP_REPEATS)]
        run = Run(wl, run_dir, state)
        if args.trace:
            metrics, trace = per_layer(run, setups)
            trace_path = state / f"trace-{wl.name}-seed{wl.seed}.json"
            trace_path.write_text(json.dumps(trace, indent=1))
            print(f"spans and self times written to {trace_path.relative_to(root)}")
        else:
            metrics, walls = end_to_end(run, args, setups)
            print(f"{wl.name} seed {wl.seed}: {len(walls)} repetition(s), wall "
                  + " ".join(f"{w:.3f}" for w in walls) + " s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = len(run.failures)
    for line in run.failures[:20]:
        print(f"FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    if not args.trace:
        label = wl.throughput
        print(f"  {label:40s} {metrics['ops_per_s'][0]:>16.6g} 1/s (= ops_per_s)")
        print(f"  {'failed_frac':40s} {failed / run.attempted:>16.6g} fraction "
              f"({failed} of {run.attempted} operations; = 1 - ok_frac)")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
