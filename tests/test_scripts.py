"""The scripts run end to end on small arguments."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from convexbench import cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SRC = str(Path(cli.__file__).resolve().parents[1])


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_src_lines_counts_physical_and_code_lines(tmp_path):
    (tmp_path / "m.py").write_text('"""Docstring."""\n# comment\n\nX = """a\nb"""\n'
                                   'def f():\n    "doc"\n    return 1  # why\n')
    assert run_script("src_lines.py", str(tmp_path)) == ["physical lines: 8",
                                                         "code lines: 4"]
    physical, code = (int(line.rsplit(" ", 1)[1]) for line in run_script("src_lines.py"))
    assert 0 < code < physical


def load_script(name):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_arithmetic():
    bench = load_script("bench_pairs.py")
    parent = [10.0, 12.0, 11.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 10.0]
    change = [v - 1.5 for v in parent[:9]] + [10.5]  # lower in 9 of 10 pairs
    got = bench.compare(parent, change, "lower", 0.25, claimed=True)
    # sorted parent: 10, 10, 10.5, 11, 11.5, 12, 12.5, 13, 13.5, 14; the
    # quartiles interpolate at positions 2.25 and 6.75
    assert got["parent"] == {"median": 11.75, "q1": 10.625, "q3": 12.875, "runs": parent}
    assert got["change"]["median"] == 10.5
    assert got["change_better_pairs"] == 9
    assert got["median_ratio"] == 10.5 / 11.75
    assert got["verdict"] == "within bound"
    assert got["claim_holds"] is False  # a gap of 1.25 inside the parent's IQR of 2.25
    assert bench.compare(parent, [v - 3.0 for v in parent], "lower", 0.25,
                         claimed=True)["claim_holds"] is True
    # higher is better: a change 30% lower is worse than a 25% bound
    assert bench.compare(parent, [0.7 * v for v in parent], "higher", 0.25)[
        "verdict"] == "worse than bound"
    # a spread of 3.0 on a median of 11.75 is wider than a 15% bound, unless
    # every run of the change is better than every run of the parent
    assert bench.compare(parent, parent, "lower", 0.15)["verdict"] == "unresolved"
    assert bench.compare(parent, [v - 4.5 for v in parent], "lower", 0.15)[
        "verdict"] == "better in every run"
    assert bench.compare(parent, [v + 4.5 for v in parent], "higher", 0.15)[
        "verdict"] == "better in every run"
    assert "claim_holds" not in bench.compare(parent, parent, "lower", 0.25)

    runs = {side: [{"correct": True, "failed": 0, "metrics": {
        "wall_s": {"value": v, "unit": "s"}}} for v in values]
        for side, values in (("parent", parent), ("change", change))}
    metric = {"name": "wall_s", "better": "lower", "bound": 0.25}
    entry = bench.summarize(list(range(10)), runs, [metric], "wall_s")
    assert entry["pairs"] == 10 and entry["all_runs_correct"] and not entry["failed_operations"]
    assert entry["metrics"]["wall_s"] == got


def test_bench_pairs_runs_one_pair_between_archives_of_head(tmp_path):
    out = tmp_path / "BENCH.json"
    run_script("bench_pairs.py", "--out", str(out), "--parent", "HEAD", "--change", "HEAD",
               "--workloads", "modulus-tilts", "--seeds", "0", "--seconds", "1")
    got = json.loads(out.read_text())
    assert got["claimed"] is None and got["parent_sha"]
    entry = got["workloads"]["modulus-tilts"]
    assert entry["pairs"] == 1 and entry["all_runs_correct"]
    assert set(entry["metrics"]) == {"wall_s", "setup_s", "ops_per_s", "peak_rss_mb",
                                     "ok_frac"}
    assert entry["metrics"]["ok_frac"]["change"]["runs"] == [1.0]
