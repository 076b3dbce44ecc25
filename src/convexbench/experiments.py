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

A unit of work is a tuple of cells that share one ``OracleBatch``, R
replicates per cell in contiguous per-cell blocks: at each budget T, the
cells of every ``SgdSpec`` form one unit (a budget group), while each
``BinarySearchSpec`` cell is a unit of its own.  Replicates run in lockstep
through the algorithms' only implementations, ``algorithms.run_binary_search``
and ``algorithms.run_sgd``.
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
    _id_number,
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
    "TiltedAlternative",
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
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError(f"need finite lo < hi, got ({self.lo}, {self.hi})")


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
        return f"constant(x={_id_number(self.x_hat)})"


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
        for name, values in (("replicates", (self.replicates,)), ("T_grid", self.T_grid),
                             ("master_seed", (self.master_seed,))):
            if any(type(v) is not int for v in values):  # its text would not parse back
                raise FieldError(name, f"{name} needs integers, got {vars(self)[name]!r}")
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
        if not 0 <= self.master_seed < 2**64:  # the seeds a manifest can rerun
            raise FieldError("master_seed", "master_seed must fit in 64 unsigned bits")
        if not -math.inf < self.initial_interval[0] < self.initial_interval[1] < math.inf:
            raise FieldError("initial_interval", "initial_interval needs finite a < b, "
                             f"got {self.initial_interval}")


def function_id(function: FunctionSpec | FunctionFamily) -> str:
    if isinstance(function, FunctionFamily):
        d = function.x_star
        return f"{spec_id(function.template)};x*~U({_id_number(d.lo)},{_id_number(d.hi)})"
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
# replicate runs: one OracleBatch per unit of work
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
    algs: tuple[BinarySearchSpec] | tuple[SgdSpec, ...],
    replicates: int,
    master_seed: int,
    keys: tuple[tuple[int, ...], ...],
) -> tuple[np.ndarray, np.ndarray | None]:
    """Run one unit of work over seeded replicates, in lockstep.

    ``algs`` holds one BinarySearchSpec or the SgdSpecs of one budget group,
    and ``keys`` one cell key per spec; the cells run as contiguous blocks of
    one batch.  Replicate r of the cell with key k draws its environment and
    noise from the streams ``SeedSequence(master_seed, spawn_key=(*k, r,
    0|1))``, whose words ``replicate_seeds`` computes for the whole cell at
    once.  Returns (estimates, minimizer draws or None), each of shape
    (cells, replicates); each replicate's estimate is the one it would get
    run alone on its own seeds.  Raises ScheduleError when the budget cannot
    support the round schedule.
    """
    if isinstance(algs[0], BinarySearchSpec):
        (bs,) = algs  # a binary search runs on a batch of its own
        epochs_schedule(T, bs.r)  # fail fast before drawing anything
    env_seeds, noise_seeds = (
        [ss for k in keys for ss in replicate_seeds(master_seed, k, replicates, stream)]
        for stream in (0, 1))
    xstar, x0 = _draw_environment(function, algs, initial_interval, env_seeds)
    template = function.template if isinstance(function, FunctionFamily) else function
    batch = OracleBatch(template, xstar, initial_interval, sigma, T, noise_seeds)
    if isinstance(algs[0], BinarySearchSpec):
        estimates = run_binary_search(batch, algs[0], initial_interval)
    else:
        estimates = run_sgd(batch, algs, x0, initial_interval)
    shape = (len(algs), replicates)
    return estimates.reshape(shape), None if xstar is None else xstar.reshape(shape)


def _replicate_errors(function: FunctionSpec | FunctionFamily,
                      initial_interval: tuple[float, float], *args) -> np.ndarray:
    """Per-replicate distances to the minimizer of the estimates of
    ``replicate_runs(function, initial_interval, *args)``, of their shape."""
    estimates, xstar = replicate_runs(function, initial_interval, *args)
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
    algs = tuple(config.algorithms[a] for a in a_idxs)
    T = config.T_grid[t_idx]
    fn_id = function_id(config.function)
    try:
        errs = _replicate_errors(config.function, config.initial_interval, config.sigma,
                                 T, algs, config.replicates, config.master_seed,
                                 tuple((a, t_idx) for a in a_idxs))
    except ScheduleError:
        return [RiskRow(fn_id, alg.algorithm_id, T, None, None, 0) for alg in algs]
    return [RiskRow(fn_id, alg.algorithm_id, T, *_mean_stderr(e), len(e))
            for alg, e in zip(algs, errs)]


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
    if not all(map(math.isfinite, (d, kappa, T, sigma))):
        raise ValueError("d, kappa, T and sigma must be finite")
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
class TiltedAlternative:
    """An estimator's risk and its stderr at g = f + tilt * x, the distance d
    of g's minimizer set from f's, and g's reference modulus omega_ref."""

    tilt: float
    risk: float
    stderr: float
    d: float
    omega_ref: float


@dataclass(frozen=True)
class SuperefficiencyReport:
    """An estimator's risk at f and at its alternatives g+ and g-, in order."""

    function: str
    estimator: str
    delta: float
    T: int
    sigma: float
    epsilon_T: float
    modulus_scale: float
    risk_f: float
    stderr_f: float
    alternatives: tuple[TiltedAlternative, TiltedAlternative]
    lower_constant: float = field(default=LOWER_BOUND_CONSTANT)


def _estimator_risk(target: ConvexFunction1D, estimator, sigma: float, T: int,
                    replicates: int, master_seed: int,
                    key: tuple[int, ...]) -> tuple[float, float]:
    if isinstance(estimator, ConstantEstimator):
        x = estimator.x_hat
        return float(distance((x, x), target.minimizer_set)), 0.0
    (errs,) = _replicate_errors(target.spec, target.domain, sigma, T, (estimator,),
                                replicates, master_seed, (key,))
    return _mean_stderr(errs)


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
    forces inflated risk at one of the tilted functions.  The report holds
    one ``TiltedAlternative`` row for g+ = f + eps_T * x and one for g- =
    f - eps_T * x, built in one loop; each carries its reference modulus (at
    modulus_scale * eps_T) for comparison.  Nothing about the bound is
    asserted, it is descriptive output.  The estimator's replicates at f, g+
    and g- draw from the streams of cell keys (0,), (1,) and (2,).
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
    f = build_function(spec, initial_interval)
    risk_f, se_f = _estimator_risk(f, estimator, sigma, T, replicates, master_seed, (0,))
    ref_eps = modulus_scale * eps_t  # 0 when sigma is 0: no flat set to measure
    alternatives = []
    for i, tilt in ((1, eps_t), (2, -eps_t)):
        g = build_function(Tilt(spec, tilt), initial_interval)
        alternatives.append(TiltedAlternative(
            tilt,
            *_estimator_risk(g, estimator, sigma, T, replicates, master_seed, (i,)),
            d=float(distance(f.minimizer_set, g.minimizer_set)),
            omega_ref=modulus_numeric(g, ref_eps) if ref_eps > 0 else 0.0,
        ))
    return SuperefficiencyReport(
        function=spec_id(spec),
        estimator=estimator.algorithm_id,
        delta=delta,
        T=T,
        sigma=sigma,
        epsilon_T=eps_t,
        modulus_scale=modulus_scale,
        risk_f=risk_f,
        stderr_f=se_f,
        alternatives=tuple(alternatives),
    )
