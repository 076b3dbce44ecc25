"""Monte-Carlo risk estimation, rate fitting, risk floors, superefficiency.

The harness is deterministic given the master seed: replicate r of cell
(algorithm a, budget index i) owns the seed stream
``SeedSequence(master_seed, spawn_key=(a, i, r))``, split once into an
environment stream (minimizer draw, SGD start) and an oracle noise stream,
its ``.spawn(2)`` children ``SeedSequence(master_seed, spawn_key=(a, i, r, 0))``
and ``(a, i, r, 1)``.  The harness computes those two streams' seed words for
the whole cell at once with ``oracle.replicate_seeds``.  Cells are therefore
independent of execution order and worker count, and replicate reductions
use numpy's pairwise summation in canonical replicate order.

The unit of work is a budget group: at each budget T, the cells of every
``SgdSpec`` run as one ``OracleBatch`` of R replicates per spec, in
contiguous per-spec blocks, while each ``BinarySearchSpec`` cell runs on a
batch of its own.  Replicates run in lockstep through the algorithms' only
implementations, ``algorithms.run_binary_search`` and ``algorithms.run_sgd``.
A replicate's result does not depend on how many replicates share its batch;
the test suite checks it against plain scalar reference loops kept in
``tests/``.  ``estimate_risk`` hands units to its process pool longest
first, by T times the number of cells, so that no large unit starts last;
rows come back in canonical (algorithm, budget) order.  ``BinarySearchSpec``
and ``SgdSpec`` are defined in ``algorithms`` and re-exported here.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .algorithms import (
    UNIFORM_START,
    BinarySearchSpec,
    SgdSpec,
    epochs_schedule,
    run_binary_search,
    run_sgd,
)
from .errors import DataError, FieldError, ScheduleError
from .functions import (
    ConvexFunction1D,
    FunctionSpec,
    Tilt,
    build_function,
    distance,
    minimizer_interval,
    spec_id,
    with_x_star,
)
from .modulus import modulus_numeric
from .oracle import OracleBatch, replicate_seeds

__all__ = [
    "UniformDist",
    "FunctionFamily",
    "BinarySearchSpec",
    "SgdSpec",
    "ConstantEstimator",
    "ExperimentConfig",
    "RiskRow",
    "RiskTable",
    "SlopeFit",
    "SuperefficiencyReport",
    "estimate_risk",
    "fit_loglog_slope",
    "replicate_runs",
    "two_point_floor",
    "superefficiency_experiment",
    "function_id",
    "DELTA_MAX",
]


@dataclass(frozen=True)
class UniformDist:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got ({self.lo}, {self.hi})")


@dataclass(frozen=True)
class FunctionFamily:
    """A spec template whose minimizer location is drawn per replicate."""

    template: FunctionSpec
    x_star: UniformDist

    def __post_init__(self):
        with_x_star(self.template, 0.0)  # ValueError when it has no x_star


AlgorithmSpec = BinarySearchSpec | SgdSpec


@dataclass(frozen=True)
class ConstantEstimator:
    """Estimator that returns a fixed point and never queries the oracle."""

    x_hat: float

    def __post_init__(self):
        if not math.isfinite(self.x_hat):
            raise ValueError(f"x_hat must be finite, got {self.x_hat}")

    @property
    def algorithm_id(self) -> str:
        return f"constant(x={self.x_hat:g})"


def repeated_algorithm(algorithms) -> int | None:
    """Index of the first algorithm whose id an earlier one has: the two
    curves would merge in risk.csv."""
    ids = [a.algorithm_id for a in algorithms]
    return next((n for n, i in enumerate(ids) if i in ids[:n]), None)


@dataclass(frozen=True)
class ExperimentConfig:
    function: FunctionSpec | FunctionFamily
    algorithms: tuple[AlgorithmSpec, ...]
    T_grid: tuple[int, ...]
    replicates: int
    sigma: float
    master_seed: int
    initial_interval: tuple[float, float] = (-2.0, 2.0)

    def __post_init__(self):
        if self.replicates < 1:
            raise FieldError("replicates", "replicates must be >= 1")
        if any(t2 <= t1 for t1, t2 in zip(self.T_grid, self.T_grid[1:])):
            raise FieldError("T_grid", "T_grid must be strictly increasing")
        if len(self.T_grid) == 0:
            raise FieldError("T_grid", "T_grid must be nonempty")
        if self.T_grid[0] < 1:
            raise FieldError("T_grid", f"budgets must be >= 1, got {self.T_grid[0]}")
        if len(self.algorithms) == 0:
            raise FieldError("algorithms", "need at least one algorithm")
        if not all(isinstance(a, AlgorithmSpec) for a in self.algorithms):
            raise FieldError("algorithms", f"not all algorithm specs: {self.algorithms}")
        repeat = repeated_algorithm(self.algorithms)
        if repeat is not None:
            raise FieldError("algorithms", "two algorithms share the id "
                             + self.algorithms[repeat].algorithm_id)
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise FieldError("sigma", f"sigma must be finite and >= 0, got {self.sigma}")
        if not self.initial_interval[0] < self.initial_interval[1]:
            raise FieldError("initial_interval",
                             f"initial_interval needs a < b, got {self.initial_interval}")


def function_id(function: FunctionSpec | FunctionFamily) -> str:
    if isinstance(function, FunctionFamily):
        d = function.x_star
        return f"{spec_id(function.template)};x*~U({d.lo:g},{d.hi:g})"
    return spec_id(function)


@dataclass(frozen=True)
class RiskRow:
    function: str
    algorithm: str
    T: int
    mean_err: float | None  # None marks a missing cell (schedule error)
    stderr: float | None
    n: int


@dataclass(frozen=True)
class RiskTable:
    rows: tuple[RiskRow, ...]


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    stderr_slope: float
    T_range: tuple[int, int]


# ---------------------------------------------------------------------------
# replicate runs: one OracleBatch per (algorithm, budget) cell
# ---------------------------------------------------------------------------


def _draw_environment(
    function: FunctionSpec | FunctionFamily,
    algs: tuple[AlgorithmSpec, ...],
    initial_interval: tuple[float, float],
    env_seeds,
):
    """Per-replicate minimizer draws and SGD starts, in a fixed draw order.

    ``env_seeds`` holds one block of seeds per algorithm.  Order per
    replicate: the minimizer location first (families only), then the SGD
    starting point (uniform starts only).  Each draw is ``Generator.uniform``
    computed from one raw PCG64 output: lo + (hi - lo) * (top 53 bits / 2^53).
    """
    R = len(env_seeds) // len(algs)
    uniform = [isinstance(alg, SgdSpec) and alg.x0 == UNIFORM_START for alg in algs]
    n = isinstance(function, FunctionFamily) + any(uniform)
    if n:  # a replicate whose start is fixed leaves its last draw unused
        raw = np.array([np.random.PCG64(ss).random_raw(n) for ss in env_seeds])
        u = (raw >> 11) * 2.0**-53

    def draws(lo, hi, col):
        return float(lo) + (float(hi) - float(lo)) * u[:, col]

    xstar = None
    if isinstance(function, FunctionFamily):
        xstar = draws(function.x_star.lo, function.x_star.hi, 0)
    if not isinstance(algs[0], SgdSpec):
        return xstar, None
    starts = draws(*initial_interval, n - 1) if any(uniform) else None
    x0 = np.concatenate([starts[j * R:(j + 1) * R] if uni else np.full(R, float(alg.x0))
                         for j, (alg, uni) in enumerate(zip(algs, uniform))])
    return xstar, x0


def replicate_runs(
    function: FunctionSpec | FunctionFamily,
    initial_interval: tuple[float, float],
    sigma: float,
    T: int,
    alg: AlgorithmSpec | tuple[SgdSpec, ...],
    replicates: int,
    master_seed: int,
    key: tuple = (),
) -> tuple[np.ndarray, np.ndarray | None]:
    """Run one (algorithm, budget) cell over seeded replicates, in lockstep.

    ``alg`` is one spec and ``key`` its cell key, or ``alg`` is a tuple of
    SgdSpecs and ``key`` a tuple of their cell keys: a budget group, whose
    cells run as contiguous blocks of one batch.  Replicate r of the cell
    with key k draws its environment and noise from the streams
    ``SeedSequence(master_seed, spawn_key=(*k, r, 0|1))``, whose words
    ``replicate_seeds`` computes for the whole cell at once.  Returns
    (estimates, minimizer draws or None), of shape (replicates,) for one
    cell and (cells, replicates) for a group; each replicate's estimate is
    the one it would get run alone on its own seeds.  Raises ScheduleError
    when the budget cannot support the round schedule.
    """
    group = isinstance(alg, tuple)
    algs, keys = (alg, key) if group else ((alg,), (key,))
    if isinstance(alg, BinarySearchSpec):
        epochs_schedule(T, alg.r)  # fail fast before drawing anything
    env_seeds, noise_seeds = (
        [ss for k in keys for ss in replicate_seeds(master_seed, k, replicates, stream)]
        for stream in (0, 1))
    xstar, x0 = _draw_environment(function, algs, initial_interval, env_seeds)
    template = function.template if isinstance(function, FunctionFamily) else function
    batch = OracleBatch(
        spec=template,
        x_star=xstar,
        domain=initial_interval,
        sigma=sigma,
        budget=T,
        seeds=noise_seeds,
    )
    if isinstance(alg, BinarySearchSpec):
        estimates = run_binary_search(batch, alg, initial_interval)
    else:
        estimates = run_sgd(batch, algs, x0, initial_interval)
    if group:
        estimates = estimates.reshape(len(algs), replicates)
        xstar = None if xstar is None else xstar.reshape(len(algs), replicates)
    return estimates, xstar


def _replicate_errors(
    function: FunctionSpec | FunctionFamily,
    initial_interval: tuple[float, float],
    sigma: float,
    T: int,
    alg: AlgorithmSpec | tuple[SgdSpec, ...],
    replicates: int,
    master_seed: int,
    key: tuple,
) -> np.ndarray:
    """Per-replicate distances to the minimizer for one cell or budget group,
    shaped like the estimates ``replicate_runs`` returns."""
    estimates, xstar = replicate_runs(
        function, initial_interval, sigma, T, alg, replicates, master_seed, key
    )
    if isinstance(function, FunctionFamily):
        minimizers = minimizer_interval(function.template, initial_interval, xstar)
    else:  # one interval, broadcast over the replicates
        minimizers = minimizer_interval(function, initial_interval)
    return distance((estimates, estimates), minimizers)


def _mean_stderr(errs: np.ndarray) -> tuple[float, float]:
    """Mean of the replicate errors and its standard error."""
    n = len(errs)
    stderr = float(np.std(errs, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(np.mean(errs)), stderr


def _unit_rows(config: ExperimentConfig, a_idxs: tuple[int, ...],
               t_idx: int) -> list[RiskRow]:
    """Risk rows of one unit of work at budget index t_idx: the cell of one
    binary search, or the budget group of the SGD algorithms a_idxs."""
    algs = [config.algorithms[a] for a in a_idxs]
    alg, key = algs[0], (a_idxs[0], t_idx)
    if isinstance(alg, SgdSpec):
        alg, key = tuple(algs), tuple((a, t_idx) for a in a_idxs)
    T = config.T_grid[t_idx]
    fn_id = function_id(config.function)
    try:
        errs = _replicate_errors(config.function, config.initial_interval, config.sigma,
                                 T, alg, config.replicates, config.master_seed, key)
    except ScheduleError:
        return [RiskRow(fn_id, alg.algorithm_id, T, None, None, 0) for alg in algs]
    return [RiskRow(fn_id, alg.algorithm_id, T, *_mean_stderr(e), len(e))
            for alg, e in zip(algs, np.reshape(errs, (len(algs), -1)))]


def estimate_risk(config: ExperimentConfig, jobs: int = 1) -> RiskTable:
    """Monte-Carlo risk table over all (algorithm, budget) cells.

    Deterministic given the master seed: independent of ``jobs`` and of the
    order in which units of work run.  Cells whose schedule is infeasible
    appear with mean_err = None rather than crashing the run.
    """
    n_a, n_t = len(config.algorithms), len(config.T_grid)
    sgd = tuple(a for a in range(n_a) if isinstance(config.algorithms[a], SgdSpec))
    units = [((a,), t) for a in range(n_a) if a not in sgd for t in range(n_t)]
    units += [(sgd, t) for t in range(n_t)] if sgd else []
    # longest first, so that no large unit starts last and leaves cores idle
    units.sort(key=lambda u: config.T_grid[u[1]] * len(u[0]), reverse=True)
    if jobs <= 1 or len(units) <= 1:
        results = [_unit_rows(config, a_idxs, t) for a_idxs, t in units]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            results = list(ex.map(partial(_unit_rows, config), *zip(*units)))
    rows = {(a, t): row for (a_idxs, t), unit in zip(units, results)
            for a, row in zip(a_idxs, unit)}
    return RiskTable(tuple(rows[a, t] for a in range(n_a) for t in range(n_t)))


def fit_loglog_slope(
    table: RiskTable, function: str, algorithm: str
) -> SlopeFit:
    """OLS fit of ln(mean error) against ln(T) for one risk curve."""
    rows = [r for r in table.rows if (r.function, r.algorithm) == (function, algorithm)
            and r.mean_err is not None and r.mean_err > 0]
    if len(rows) < 3:
        raise DataError(
            f"need >= 3 positive risk points for {function!r}/{algorithm!r}, "
            f"got {len(rows)}"
        )
    ts = np.array([r.T for r in rows], dtype=float)
    ys = np.array([r.mean_err for r in rows])
    lx, ly = np.log(ts), np.log(ys)
    # the formulas of scipy.stats.linregress, in the same order of operations
    ssxm, ssxym, _, ssym = np.cov(lx, ly, bias=True).flat
    slope = ssxym / ssxm
    if ssym == 0.0:
        r = np.nan if ssxym == 0 else 0.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    return SlopeFit(
        slope=float(slope),
        intercept=float(np.mean(ly) - slope * np.mean(lx)),
        stderr_slope=float(np.sqrt((1 - r**2) * ssym / ssxm / (len(rows) - 2))),
        T_range=(int(ts.min()), int(ts.max())),
    )


def two_point_floor(d: float, kappa: float, T: int, sigma: float) -> float:
    """Risk floor (d/4) * exp(-T * kappa^2 / (4 sigma^2)).

    No algorithm distinguishing two functions at minimizer distance d and
    subgradient separation kappa can push the worse of its two risks below
    this value.
    """
    if d < 0 or kappa < 0:
        raise ValueError("d and kappa must be nonnegative")
    if T < 0:
        raise ValueError("T must be nonnegative")
    if sigma <= 0:
        raise ValueError("sigma must be positive (the floor degenerates at 0)")
    return (d / 4.0) * math.exp(-T * kappa * kappa / (4.0 * sigma * sigma))


# ---------------------------------------------------------------------------
# superefficiency
# ---------------------------------------------------------------------------

# largest admissible risk-deficiency parameter, sqrt(1/(8e))
DELTA_MAX = math.sqrt(1.0 / (8.0 * math.e))

# constant multiplying the reference modulus in the tilted-risk lower bound
LOWER_BOUND_CONSTANT = (4.0 - math.sqrt(2.0)) / 4.0


@dataclass(frozen=True)
class SuperefficiencyReport:
    function: str
    estimator: str
    delta: float
    T: int
    sigma: float
    epsilon_T: float
    modulus_scale: float
    risk_f: float
    stderr_f: float
    risk_g_plus: float
    stderr_g_plus: float
    risk_g_minus: float
    stderr_g_minus: float
    d_f_g_plus: float
    d_f_g_minus: float
    omega_ref_plus: float
    omega_ref_minus: float
    lower_constant: float = field(default=LOWER_BOUND_CONSTANT)


def _estimator_risk(
    target: ConvexFunction1D,
    estimator,
    sigma: float,
    T: int,
    replicates: int,
    master_seed: int,
    key: tuple[int, ...],
) -> tuple[float, float]:
    if isinstance(estimator, ConstantEstimator):
        x = estimator.x_hat
        return float(distance((x, x), target.minimizer_set)), 0.0
    return _mean_stderr(_replicate_errors(
        target.spec, target.domain, sigma, T, estimator, replicates,
        master_seed, key,
    ))


def superefficiency_experiment(
    spec: FunctionSpec,
    estimator,
    delta: float,
    T: int,
    sigma: float,
    replicates: int,
    master_seed: int,
    initial_interval: tuple[float, float] = (-2.0, 2.0),
    modulus_scale: float = 1.0,
) -> SuperefficiencyReport:
    """Measure estimator risk at a target and at its two tilted alternatives.

    The tilt size eps_T = sqrt(sigma^2 * ln(1/(8 delta^2)) / T) is the one at
    which beating the difficulty benchmark at the target by a factor delta
    forces inflated risk at one of the tilted functions.  The report carries
    the reference modulus values of the tilted functions (at
    modulus_scale * eps_T) for comparison; nothing about the bound is
    asserted, it is descriptive output.
    """
    if not 0.0 < delta < DELTA_MAX:
        raise ValueError(
            f"delta must lie in (0, {DELTA_MAX:.6f}), got {delta}"
        )
    if T < 1:
        raise ValueError("T must be >= 1")
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    if not (math.isfinite(modulus_scale) and modulus_scale > 0):
        raise ValueError(f"modulus_scale must be finite and > 0, got {modulus_scale}")
    eps_t = math.sqrt(sigma * sigma * math.log(1.0 / (8.0 * delta * delta)) / T)
    f, g_plus, g_minus = (build_function(s, initial_interval)
                          for s in (spec, Tilt(spec, eps_t), Tilt(spec, -eps_t)))
    (risk_f, se_f), (risk_p, se_p), (risk_m, se_m) = (
        _estimator_risk(g, estimator, sigma, T, replicates, master_seed, key=(i,))
        for i, g in enumerate((f, g_plus, g_minus)))

    ref_eps = modulus_scale * eps_t  # 0 when sigma is 0: no flat set to measure
    omega_p = modulus_numeric(g_plus, ref_eps) if ref_eps > 0 else 0.0
    omega_m = modulus_numeric(g_minus, ref_eps) if ref_eps > 0 else 0.0
    est_id = estimator.algorithm_id
    return SuperefficiencyReport(
        function=spec_id(spec),
        estimator=est_id,
        delta=delta,
        T=T,
        sigma=sigma,
        epsilon_T=eps_t,
        modulus_scale=modulus_scale,
        risk_f=risk_f,
        stderr_f=se_f,
        risk_g_plus=risk_p,
        stderr_g_plus=se_p,
        risk_g_minus=risk_m,
        stderr_g_minus=se_m,
        d_f_g_plus=float(distance(f.minimizer_set, g_plus.minimizer_set)),
        d_f_g_minus=float(distance(f.minimizer_set, g_minus.minimizer_set)),
        omega_ref_plus=omega_p,
        omega_ref_minus=omega_m,
    )
