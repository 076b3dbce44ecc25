"""The benchmark's layer probes, run end to end at toy sizes.

``perfbench/run.py --trace 1`` is otherwise the only caller of the probes, so
a change to a name they call (``cli.slopes_csv_text`` on made-up risk rows,
``OracleBatch``, ``modulus.flat_set``, ``oracle.replicate_seed``, one
``estimate_risk`` cell) would first show there.  The probes patch package
names while they time them; every one must be the original afterwards.
"""
import importlib
import math
from pathlib import Path

import numpy as np

from convexbench import algorithms, cli, experiments, functions, modulus, oracle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PATCHED = (algorithms, cli, experiments, functions, modulus, oracle,
           functions.ConvexFunction1D, oracle.OracleBatch)


def test_probes_run_at_toy_sizes_and_restore_every_name(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    probes = importlib.import_module("probes")
    for name, value in (("R", 16), ("T_CELL", 200), ("T_SHORT", 100), ("T_DEEP", 2000)):
        monkeypatch.setattr(probes, name, value)
    before = [dict(vars(owner)) for owner in PATCHED]
    generator = np.random.Generator

    metrics = probes.run_all(tmp_path)

    assert metrics
    for name, (value, unit) in metrics.items():
        assert isinstance(unit, str) and unit, name
        assert isinstance(value, (int, float)) and math.isfinite(value), name
    assert np.random.Generator is generator
    for owner, names in zip(PATCHED, before):
        now = vars(owner)
        assert [n for n, v in names.items() if now.get(n) is not v] == [], owner
