"""The benchmark's deterministic workload, run as a test, and the first
budgets of its fig2 references.

The modulus-tilts calls of ``perfbench/workloads.py`` go through
``cli.main`` in process, and every modulus curve and superefficiency row
they print must match the benchmark's recorded references: a change that
would lower that workload's ``ok_frac`` fails tier-1 first.  The fig2
preset's first three budgets at R = 1000 must reproduce their rows of the
recorded fig2 references byte for byte, so that a last-bit change in a
subgradient kernel or an SGD step fails tier-1 too.
"""
import csv
import importlib
import json
from pathlib import Path

from convexbench import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_modulus_tilts_output_matches_its_references(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workloads").ModulusTilts(0, None)
    stdout = {}
    for label, argv in workload.invocations(None):
        assert cli.main(argv) == cli.EXIT_OK, label
        stdout[label] = capsys.readouterr().out
    ops, failures = workload.check(None, stdout)
    assert failures == []
    assert ops >= len(stdout)  # at least one check per call


def test_fig2_first_budgets_match_their_references(monkeypatch, tmp_path):
    refs = json.loads((PERFBENCH / "refs" / "fig2.json").read_text())["0"]
    budgets = cli.DEFAULT_T_GRID[:3]  # 100, 215 and 464: a fraction of a second
    monkeypatch.setattr(cli, "DEFAULT_T_GRID", budgets)
    assert cli.main(["reproduce-fig2", "--replicates", "1000", "--seed", "0",
                     "--jobs", "1", "--out", str(tmp_path)]) == cli.EXIT_OK
    rows = 0
    for name, _ in cli.FIG2_PANELS:
        header, *want = refs[name].splitlines()
        want = [line for line, fields in zip(want, csv.reader(want))
                if int(fields[2]) in budgets]
        got = (tmp_path / name / "risk.csv").read_text().splitlines()
        assert got == [header, *want], name
        rows += len(want)
    assert rows == 54  # 6 panels x 3 algorithms x 3 budgets
