"""Spans around the calls into each convexbench layer, recorded from outside.

The traced run wraps public names of the package (and, where one layer calls
another through a name it imported, that imported name) with timing wrappers.
Nothing under ``src/`` is edited: the wrappers are installed by assignment and
removed again when the traced repetition ends.

Each wrapped call is a span with a name, a layer (the module that owns the
function), a start, an end and the span that caused it.  Coarse spans (one
per CLI command, risk table, cell or output file) are kept one by one;
fine-grained ones (one per oracle step, subgradient call or function build,
hundreds of thousands per run) are folded into per-name totals, so memory
stays bounded.  A layer's self time is the time inside its spans minus the
time covered by their child spans.

Process-pool workers are forked from the traced process, so they inherit the
wrappers.  Each worker starts with empty totals after the fork and writes them
to a file when it exits; the parent merges those files.
"""
from __future__ import annotations

import functools
import json
import os
from multiprocessing import util as mp_util
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("cli", "configfile", "experiments", "oracle", "functions", "modulus",
          "algorithms")


class Tracer:
    """Spans and per-name totals of one traced repetition."""

    def __init__(self, worker_dir: Path):
        # kept spans: (id, name, layer, start, end, parent id, pid); ids are
        # unique within one process
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}  # name -> [layer, calls, total_s, self_s]
        self.draws = 0  # standard normals drawn by numpy Generators
        self.prefetch_bytes = 0  # largest begin_steps buffer, R * n * 8
        self.missing_hooks: list[str] = []
        self.worker_dir = worker_dir
        self._stack: list[list] = []  # frames: [start, child_s, kept span id]
        self._next_id = 1
        self._undo: list[tuple] = []
        self._fork_hook_set = False
        self._active = False
        self._pid = os.getpid()

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, keep: bool):
        stack = self._stack
        stat = self.stats.setdefault(name, [layer, 0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keep:
                span_id = self._next_id
                self._next_id += 1
                parent = stack[-1][2] if stack else 0
            else:
                span_id = stack[-1][2] if stack else 0
            frame = [perf_counter(), 0.0, span_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[0]
                if stack:
                    stack[-1][1] += dur
                stat[1] += 1
                stat[2] += dur
                stat[3] += dur - frame[1]
                if keep:
                    self.spans.append((span_id, name, layer, frame[0], end, parent,
                                       self._pid))

        return wrapper

    def patch(self, owner, attr: str, layer: str, keep: bool = False,
              name: str | None = None):
        """Wrap ``owner.attr``; a name the package no longer has is listed, not fatal."""
        label = name or f"{layer}.{attr}"
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None:
            self.missing_hooks.append(label)
            return
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(fn, label, layer, keep))

    def count_prefetch(self, owner, attr: str):
        """Span around ``begin_steps(n)`` that also records R * n * 8 bytes."""
        fn = owner.__dict__.get(attr)
        if fn is None:
            self.missing_hooks.append(f"oracle.OracleBatch.{attr}")
            return
        tracer = self

        @functools.wraps(fn)
        def begin_steps(batch, n, *args, **kwargs):
            size = int(getattr(batch, "n_replicates", 0)) * int(n) * 8
            tracer.prefetch_bytes = max(tracer.prefetch_bytes, size)
            return fn(batch, n, *args, **kwargs)

        self._undo.append((owner, attr, fn))
        setattr(owner, attr, begin_steps)
        self.patch(owner, attr, "oracle", name=f"oracle.OracleBatch.{attr}")

    def count_normal_draws(self):
        """Swap numpy's Generator for a subclass that counts standard normals.

        The subclass returns the same values as the original class.
        """
        tracer = self
        base = np.random.Generator

        class CountingGenerator(base):
            def standard_normal(self, size=None, dtype=np.float64, out=None):
                values = super().standard_normal(size, dtype, out)
                tracer.draws += int(np.size(values))
                return values

        self._undo.append((np.random, "Generator", base))
        np.random.Generator = CountingGenerator

    # -- lifetime --------------------------------------------------------

    def install(self):
        if not self._fork_hook_set:
            # runs in each multiprocessing child after the fork, once the
            # child has cleared the finalizers it inherited
            mp_util.register_after_fork(self, Tracer._after_fork)
            self._fork_hook_set = True
        self._active = True

    def uninstall(self):
        self._active = False
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def _after_fork(self):
        if not self._active:
            return
        self.spans.clear()
        for stat in self.stats.values():
            stat[1:] = [0, 0.0, 0.0]
        self.draws = 0
        self.prefetch_bytes = 0
        self._stack.clear()
        self._pid = os.getpid()
        mp_util.Finalize(None, self._dump_worker, exitpriority=10)

    def _dump_worker(self):
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        data = {"stats": self.stats, "draws": self.draws,
                "prefetch_bytes": self.prefetch_bytes,
                "spans": [list(s) for s in self.spans]}
        path = self.worker_dir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(data))

    def merge_workers(self) -> int:
        """Fold in the totals that pool workers wrote; returns how many."""
        files = sorted(self.worker_dir.glob("worker-*.json")) if self.worker_dir.is_dir() else []
        for path in files:
            data = json.loads(path.read_text())
            for name, (layer, calls, total, self_s) in data["stats"].items():
                stat = self.stats.setdefault(name, [layer, 0, 0.0, 0.0])
                stat[1] += calls
                stat[2] += total
                stat[3] += self_s
            self.draws += data["draws"]
            self.prefetch_bytes = max(self.prefetch_bytes, data["prefetch_bytes"])
            self.spans.extend(tuple(s) for s in data["spans"])
            path.unlink()
        return len(files)

    # -- results ---------------------------------------------------------

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat[1] if stat else 0

    def layer_self_s(self, exclude=()) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, (layer, _, _, self_s) in self.stats.items():
            if name not in exclude:
                out[layer] += self_s
        return out

    def to_json(self, exclude=()) -> dict:
        return {
            "spans": {"columns": ["id", "name", "layer", "start_s", "end_s",
                                  "parent_id", "pid"],
                      "rows": [list(s) for s in self.spans]},
            "totals": {name: {"layer": layer, "calls": calls, "total_s": total,
                              "self_s": self_s}
                       for name, (layer, calls, total, self_s) in self.stats.items()},
            "layer_self_s": self.layer_self_s(exclude),
            "excluded_from_layer_self_s": list(exclude),
            "normal_draws": self.draws,
            "prefetch_bytes": self.prefetch_bytes,
            "missing_hooks": self.missing_hooks,
        }


def install_layer_hooks(tracer: Tracer):
    """Wrap the calls into each layer that the workloads make.

    Names imported into another module are wrapped where they are looked up
    (``cli.estimate_risk``, ``oracle.subgrad_spec``), because that is the
    name the caller resolves at call time.
    """
    from convexbench import algorithms, cli, experiments, functions, modulus, oracle

    p = tracer.patch
    p(cli, "main", "cli", keep=True)
    p(cli, "risk_csv_text", "cli", keep=True)
    p(cli, "slopes_csv_text", "cli", keep=True)
    p(cli, "parse_config", "configfile", keep=True)
    p(cli, "serialize_config", "configfile", keep=True)
    p(cli, "estimate_risk", "experiments", keep=True)
    p(cli, "superefficiency_experiment", "experiments", keep=True)
    p(cli, "sample_modulus_curve", "modulus", keep=True)
    p(experiments, "replicate_runs", "experiments", keep=True)
    p(experiments, "modulus_numeric", "modulus")
    p(modulus, "flat_set", "modulus")
    for owner in (cli, experiments):
        p(owner, "build_function", "functions", name="functions.build_function")
    p(oracle, "subgrad_spec", "functions", name="functions.subgrad_spec")
    p(functions.ConvexFunction1D, "subgrad", "functions",
      name="functions.ConvexFunction1D.subgrad")
    for attr in ("__init__", "query_block_all", "query_all"):
        p(oracle.OracleBatch, attr, "oracle", name=f"oracle.OracleBatch.{attr}")
    tracer.count_prefetch(oracle.OracleBatch, "begin_steps")
    p(algorithms, "sgd", "algorithms")
    p(algorithms, "sign_test_binary_search", "algorithms")
    tracer.count_normal_draws()
