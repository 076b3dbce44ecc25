"""Layer probes: each times one public function of one layer at the sizes the
workloads use, and reports under the per-layer metric names.

The probes are the same on every workload, so a per-layer number can be read
next to any workload's end-to-end numbers.  Each probe repeats its call and
reports the median.

``algorithms.sgd`` and ``algorithms.sign_test_binary_search`` are not probed:
no workload reaches them.  The CLI and the risk harness run their own batched
twins in ``experiments``; the scalar versions are used only by the tests.  A
change to them cannot move any number here (the traced run counts their calls
as ``algorithms.scalar_calls``, and the count is 0 on every workload).
"""
from __future__ import annotations

import statistics
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

from convexbench import cli, configfile, experiments, functions, modulus, oracle
from convexbench.algorithms import epochs_schedule
from convexbench.experiments import (
    BinarySearchSpec,
    ExperimentConfig,
    FunctionFamily,
    RiskRow,
    RiskTable,
    SgdSpec,
    UniformDist,
)
from convexbench.functions import (
    Absolute,
    AsymmetricPower,
    PiecewiseLinear,
    SymmetricPower,
    Tilt,
)

from tracing import Tracer, install_layer_hooks
from workloads import (
    FIG2_PANELS,
    FIG2_T_GRID,
    REPLICATES,
    ROUND_COEFFICIENT,
    SIGMA,
    BisectDeep,
)

R = REPLICATES
DOMAIN = (-2.0, 2.0)
TEMPLATE = AsymmetricPower(1.5, 3.0)  # the fig2 / bisect-deep asym-1.5-3 panel
FAMILY = FunctionFamily(TEMPLATE, UniformDist(-1.0, 1.0))
T_CELL = FIG2_T_GRID[-1]  # the largest fig2 budget
T_SHORT = FIG2_T_GRID[0]
T_DEEP = 100_000  # the largest bisect-deep budget
SEED = 20250810

SUBGRAD_SPECS = {
    "sym-power": SymmetricPower(2.0),
    "asym-power": TEMPLATE,
    "piecewise-linear": PiecewiseLinear((-0.5, 0.0, 0.5), (-2.0, -0.5, 1.0, 3.0)),
    "tilt": Tilt(SymmetricPower(2.0), 0.1),
}
FLAT_SET_SPECS = {
    "sym-power": SymmetricPower(2.0),
    "asym-power": TEMPLATE,
    "absolute": Absolute(),
    "piecewise-linear": PiecewiseLinear((-0.5, 0.0, 0.5), (-2.0, -0.5, 1.0, 3.0)),
    "tilt": Tilt(SymmetricPower(2.0), 0.1),
}
FLAT_SET_EPS = np.geomspace(1e-6, 3.0, 20)


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _noise_seeds(key):
    return [oracle.replicate_seed(SEED, *key, r).spawn(2)[1] for r in range(R)]


def _cell(alg, T: int):
    return ExperimentConfig(function=FAMILY, algorithms=(alg,), T_grid=(T,),
                            replicates=R, sigma=SIGMA, master_seed=SEED,
                            initial_interval=DOMAIN)


def probe_functions(m: dict):
    rng = np.random.default_rng(SEED)
    x = rng.uniform(-1.9, 1.9, R)
    xs = rng.uniform(-1.0, 1.0, R)
    for kind, spec in SUBGRAD_SPECS.items():
        x_star = None if isinstance(spec, PiecewiseLinear) else xs
        n = 200
        t = _median_time(lambda: [functions.subgrad_spec(spec, x, x_star)
                                  for _ in range(n)], 5)
        m[f"functions.subgrad_spec_us.{kind}"] = (t / n * 1e6, "us")
    specs = [functions.with_x_star(TEMPLATE, v) for v in xs]
    t = _median_time(lambda: [functions.build_function(s, DOMAIN) for s in specs], 5)
    m["functions.build_function_us"] = (t / R * 1e6, "us")


def probe_oracle(m: dict):
    t = _median_time(lambda: _noise_seeds((0, 0)), 5)
    m["oracle.seed_setup_ms"] = (t * 1e3, "ms")
    seeds = _noise_seeds((0, 1))
    xs = np.random.default_rng(SEED).uniform(-1.0, 1.0, R)

    def batch(budget):
        return oracle.OracleBatch(TEMPLATE, xs, DOMAIN, SIGMA, budget, seeds)

    m["oracle.batch_init_ms"] = (_median_time(lambda: batch(T_CELL), 5) * 1e3, "ms")

    _, T0 = epochs_schedule(T_DEEP, ROUND_COEFFICIENT)
    b = batch(3 * T0)
    x = np.full(R, 0.5)
    t = _median_time(lambda: b.query_block_all(x, T0), 3)
    m["oracle.block_ns_per_draw"] = (t / (R * T0) * 1e9, "ns")

    times = []
    for _ in range(3):
        b = batch(T_CELL)
        t0 = perf_counter()
        b.begin_steps(T_CELL)
        times.append(perf_counter() - t0)
    m["oracle.prefetch_ns_per_draw"] = (statistics.median(times) / (R * T_CELL) * 1e9, "ns")

    steps = 2000
    times = []
    for _ in range(3):
        b = batch(steps)
        b.begin_steps(steps)
        t0 = perf_counter()
        for _ in range(steps):
            b.query_all(x)
        times.append(perf_counter() - t0)
    m["oracle.step_us"] = (statistics.median(times) / steps * 1e6, "us")


def probe_experiments(m: dict, trace_dir: Path):
    """Whole cells through estimate_risk, as the CLI runs them (jobs=1)."""
    bs = BinarySearchSpec(r=ROUND_COEFFICIENT)
    sgd = SgdSpec(schedule="1/t")
    t_bs = _median_time(lambda: experiments.estimate_risk(_cell(bs, T_CELL)), 3)
    t_sgd = _median_time(lambda: experiments.estimate_risk(_cell(sgd, T_CELL)), 3)
    t_short = _median_time(lambda: experiments.estimate_risk(_cell(sgd, T_SHORT)), 5)
    step = (t_sgd - t_short) / (T_CELL - T_SHORT)
    m["experiments.cell_ms.binary-search"] = (t_bs * 1e3, "ms")
    m["experiments.cell_ms.sgd"] = (t_sgd * 1e3, "ms")
    m["experiments.sgd_step_us"] = (step * 1e6, "us")
    m["experiments.cell_setup_ms"] = ((t_short - T_SHORT * step) * 1e3, "ms")

    # self time of the harness in one traced SGD cell: seed spawning,
    # environment draws and the lockstep loop, outside oracle and functions
    tracer = Tracer(trace_dir / "probe-workers")
    install_layer_hooks(tracer)
    tracer.install()
    try:
        experiments.estimate_risk(_cell(sgd, T_CELL))
    finally:
        tracer.uninstall()
    m["experiments.cell_self_ms"] = (tracer.stats["experiments.replicate_runs"][3] * 1e3, "ms")

    tracemalloc.start()
    try:
        experiments.estimate_risk(_cell(sgd, T_CELL))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    m["experiments.cell_peak_mb"] = (peak / 1e6, "MB")


def probe_modulus(m: dict):
    calls = [0]
    original = functions.ConvexFunction1D.subgrad

    def counting(self, x):
        calls[0] += 1
        return original(self, x)

    evals = 0
    for kind, spec in FLAT_SET_SPECS.items():
        f = functions.build_function(spec, (-1.0, 1.0))
        t = _median_time(lambda: [modulus.flat_set(f, e) for e in FLAT_SET_EPS], 3)
        m[f"modulus.flat_set_us.{kind}"] = (t / len(FLAT_SET_EPS) * 1e6, "us")
        functions.ConvexFunction1D.subgrad = counting
        try:
            for e in FLAT_SET_EPS:
                modulus.flat_set(f, e)
                evals += 1
        finally:
            functions.ConvexFunction1D.subgrad = original
    m["modulus.subgrad_calls_per_eval"] = (calls[0] / evals, "count")


def probe_configfile(m: dict, work_dir: Path):
    wl = BisectDeep(SEED, work_dir)
    texts = [wl.config_text(f) for f in ("asym-1.5-2", "asym-1.5-3", "asym-2-3")]
    t = _median_time(lambda: [configfile.parse_config(s) for s in texts], 20)
    m["configfile.parse_ms"] = (t / len(texts) * 1e3, "ms")


def _fig2_table(panel_index: int) -> RiskTable:
    """A risk table shaped like one fig2 panel (values made up, all finite)."""
    fn = f"panel-{panel_index}"
    rows = []
    for alg, rate in (("binary-search(r=1.5)", -0.5), ("sgd(1/t)", -0.3),
                      ("sgd(1/sqrt(t))", -0.25)):
        for T in FIG2_T_GRID:
            mean = 0.3 * T ** rate * (1.0 + 0.01 * panel_index)
            rows.append(RiskRow(fn, alg, T, mean, mean / 30.0, R))
    return RiskTable(tuple(rows))


def probe_cli(m: dict):
    tables = [_fig2_table(i) for i in range(len(FIG2_PANELS))]

    def render():
        for table in tables:
            cli.risk_csv_text(table)
            cli.slopes_csv_text(table)

    m["cli.csv_ms"] = (_median_time(render, 5) * 1e3, "ms")


def run_all(work_dir: Path) -> dict:
    m: dict = {}
    probe_functions(m)
    probe_oracle(m)
    probe_experiments(m, work_dir)
    probe_modulus(m)
    probe_configfile(m, work_dir)
    probe_cli(m)
    return m
