"""The benchmark's deterministic workload, run as a test.

The modulus-tilts calls of ``perfbench/workloads.py`` go through
``cli.main`` in process, and every modulus curve and superefficiency row
they print must match the benchmark's recorded references: a change that
would lower that workload's ``ok_frac`` fails tier-1 first.
"""
import importlib
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
