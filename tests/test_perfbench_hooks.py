"""The names other code reaches into the package by: the benchmark's layer
hooks, each module's ``__all__`` and the package exports.

Deleting a public name must not silently break ``perfbench/run.py --trace 1``,
which wraps package functions by name and lists the ones it cannot find.
"""
import importlib
import types
from pathlib import Path

import pytest

import convexbench

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ["algorithms", "cli", "configfile", "errors", "experiments", "functions",
           "modulus", "oracle"]


def test_perfbench_layer_hooks_all_resolve(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # importing the probes resolves every name they import from convexbench
    probes = importlib.import_module("probes")
    tracer = probes.Tracer(tmp_path)
    probes.install_layer_hooks(tracer)
    try:
        assert tracer.missing_hooks == []
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(f"convexbench.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_exports_are_listed_by_their_modules():
    listed = set()
    for name in MODULES:
        module = importlib.import_module(f"convexbench.{name}")
        listed |= set(getattr(module, "__all__", ()))
        if name == "errors":  # the exception taxonomy has no __all__
            listed |= {n for n, v in vars(module).items() if isinstance(v, type)}
    exported = {n for n, v in vars(convexbench).items()
                if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert exported - listed == set()
