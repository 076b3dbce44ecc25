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
``BinarySearchSpec`` cell is a unit of its own.  A unit also spans every
config of an ``estimate_risks`` call, which differ only in their function:
the spawn keys carry no function or panel index, and the draw counts (T steps,
or E * T0 block queries) do not depend on the function, so those configs'
replicates already draw the same minimizer locations, SGD starts and noise.
The unit draws them once, on the batch's functions axis, and each function
adds its own f'; no output byte changes.  Replicates run in lockstep
through the algorithms' only implementations, ``algorithms.run_binary_search``
and ``algorithms.run_sgd``.
A replicate's result does not depend on how many replicates or functions
share its batch; the test suite checks it against plain scalar reference
loops kept in ``tests/``.  ``estimate_risks`` hands units to one process
pool of at most one worker per unit, longest first, by T times the number of
cells, so that no large unit starts last; rows come back in canonical
(algorithm, budget) order.  ``BinarySearchSpec`` and ``SgdSpec`` are defined
in ``algorithms`` and re-exported here.
"""
from __future__ import annotations

import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
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
# build_function and modulus_numeric are not called here, but perfbench's
# layer hooks (perfbench/tracing.py) wrap both names in this module
from .functions import (
    FunctionSpec,
    Tilt,
    build_function,
    distance,
    minimizer_interval,
    spec_id,
    with_x_star,
)
from .modulus import modulus_analytic, modulus_numeric
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
    "check_superefficiency_inputs",
    "estimate_risk",
    "estimate_risks",
    "fit_loglog_slope",
    "replicate_runs",
    "two_point_floor",
    "superefficiency_experiment",
    "function_id",
    "DELTA_MAX",
    "LOWER_BOUND_CONSTANT",
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
# the midpoint of f's minimizer set, which superefficiency_experiment resolves
MINIMIZER_MIDPOINT = "midpoint"


@dataclass(frozen=True)
class ConstantEstimator:
    """Estimator that returns a fixed point and never queries the oracle."""

    x_hat: float | str = MINIMIZER_MIDPOINT

    def __post_init__(self):
        if not (self.x_hat == MINIMIZER_MIDPOINT if isinstance(self.x_hat, str)
                else math.isfinite(self.x_hat)):
            raise ValueError(f"x_hat must be finite or {MINIMIZER_MIDPOINT!r}, "
                             f"got {self.x_hat!r}")

    @property
    def algorithm_id(self) -> str:
        return f"constant(x={_id_number(self.x_hat)})"  # once x_hat is a number


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
        for alg in self.algorithms:
            for T in self.T_grid if isinstance(alg, BinarySearchSpec) else ():
                try:
                    epochs_schedule(T, alg.r)
                except ScheduleError:
                    pass  # too small a budget: its cell is reported missing
                except ValueError as e:  # rounds too long to read
                    raise FieldError("T_grid", str(e)) from None


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


def _minimizers_drawn(functions: tuple[FunctionSpec | FunctionFamily, ...]) -> bool:
    """Whether the functions draw their minimizers per replicate (families),
    which they must do all alike: a family's replicates draw one value more."""
    drawn = {isinstance(f, FunctionFamily) for f in functions}
    if len(drawn) != 1:
        raise ValueError("functions that share replicates must all be families "
                         "or all be fixed specs")
    return drawn.pop()


def _draw_environment(
    functions: tuple[FunctionSpec | FunctionFamily, ...],
    algs: tuple[AlgorithmSpec, ...],
    initial_interval: tuple[float, float],
    env_seeds,
):
    """Per-replicate minimizer draws and SGD starts, in a fixed draw order.

    ``env_seeds`` holds one block of seeds per algorithm.  Order per
    replicate: the minimizer location first (families only), then the SGD
    starting point (uniform starts only).  Each draw is ``Generator.uniform``
    computed from one raw PCG64 output: lo + (hi - lo) * (top 53 bits / 2^53).
    Every function reads the same raw outputs; the minimizer draws have one
    row per function.
    """
    R = len(env_seeds) // len(algs)
    uniform = [isinstance(alg, SgdSpec) and alg.x0 == UNIFORM_START for alg in algs]
    family = _minimizers_drawn(functions)
    n = family + any(uniform)
    if n:  # a replicate whose start is fixed leaves its last draw unused
        raw = np.array([np.random.PCG64(ss).random_raw(n) for ss in env_seeds])
        u = (raw >> 11) * 2.0**-53

    def draws(lo, hi, col):
        return float(lo) + (float(hi) - float(lo)) * u[:, col]

    xstar = None
    if family:
        xstar = np.array([draws(f.x_star.lo, f.x_star.hi, 0) for f in functions])
    if not isinstance(algs[0], SgdSpec):
        return xstar, None
    starts = draws(*initial_interval, n - 1) if any(uniform) else None
    x0 = np.concatenate([starts[j * R:(j + 1) * R] if uni else np.full(R, float(alg.x0))
                         for j, (alg, uni) in enumerate(zip(algs, uniform))])
    return xstar, x0


def replicate_runs(
    functions: tuple[FunctionSpec | FunctionFamily, ...],
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
    one batch.  ``functions`` are the functions the unit runs on, all
    families or all fixed specs; one function is the P = 1 case.  The
    algorithms search ``initial_interval``, the batch's domain.  Replicate r
    of the cell with key k draws its environment and noise from the streams
    ``SeedSequence(master_seed, spawn_key=(*k, r, 0|1))``, whose words
    ``replicate_seeds`` computes for the whole cell at once; the key names no
    function, so one draw serves every function, on the batch's functions
    axis.  Returns (estimates, minimizer draws or None), each of shape
    (functions, cells, replicates); each replicate's estimate is the one it
    would get run alone, on one function and its own seeds.  Raises
    ScheduleError when the budget cannot support the round schedule, and
    ValueError when the functions mix families with fixed specs.
    """
    if isinstance(algs[0], BinarySearchSpec):
        (bs,) = algs  # a binary search runs on a batch of its own
        epochs_schedule(T, bs.r)  # fail fast before drawing anything
    env_seeds, noise_seeds = (
        [ss for k in keys for ss in replicate_seeds(master_seed, k, replicates, stream)]
        for stream in (0, 1))
    xstar, x0 = _draw_environment(functions, algs, initial_interval, env_seeds)
    specs = tuple(f.template if isinstance(f, FunctionFamily) else f for f in functions)
    batch = OracleBatch(specs, xstar, initial_interval, sigma, T, noise_seeds)
    if isinstance(algs[0], BinarySearchSpec):
        estimates = run_binary_search(batch, algs[0])
    else:
        estimates = run_sgd(batch, algs, x0)
    shape = (len(functions), len(algs), replicates)
    return estimates.reshape(shape), None if xstar is None else xstar.reshape(shape)


def _unit_rows(configs: tuple[ExperimentConfig, ...], a_idxs: tuple[int, ...],
               t_idx: int) -> list[list[RiskRow]]:
    """Risk rows, per config, of one unit of work at budget index t_idx: the
    cell of one binary search, or the budget group of the SGD algorithms
    a_idxs, on every config's function at once: the mean distance of the
    replicates' estimates to their own function's minimizer set, and its
    standard error."""
    first = configs[0]
    algs = tuple(first.algorithms[a] for a in a_idxs)
    T = first.T_grid[t_idx]
    functions = tuple(c.function for c in configs)
    try:
        estimates, xstar = replicate_runs(
            functions, first.initial_interval, first.sigma, T, algs, first.replicates,
            first.master_seed, tuple((a, t_idx) for a in a_idxs))
    except ScheduleError:
        return [[RiskRow(function_id(f), alg.algorithm_id, T, None, None, 0) for alg in algs]
                for f in functions]
    n = first.replicates
    rows = []
    for p, function in enumerate(functions):
        spec, x_star = ((function.template, xstar[p]) if isinstance(function, FunctionFamily)
                        else (function, None))  # a fixed spec's interval broadcasts
        errs = distance((estimates[p], estimates[p]),
                        minimizer_interval(spec, first.initial_interval, x_star))
        rows.append([RiskRow(function_id(function), alg.algorithm_id, T, float(np.mean(e)),
                             float(np.std(e, ddof=1) / math.sqrt(n)) if n > 1 else 0.0, n)
                     for alg, e in zip(algs, errs)])
    return rows


def estimate_risks(configs, jobs: int = 1) -> list[RiskTable]:
    """Monte-Carlo risk tables, one per config in order, of configs that
    differ only in their function.

    Each (algorithm, budget) unit runs once, over every config's function,
    and each table equals its config's ``estimate_risk``.  Deterministic
    given the master seed: independent of ``jobs`` and of the order in which
    units of work run.  Cells whose schedule is infeasible appear with
    mean_err = None rather than crashing the run.  Raises ValueError when the
    configs differ in anything but ``function``, or mix families with fixed
    specs.
    """
    configs = tuple(configs)
    if not configs:
        raise ValueError("need at least one config")
    first = configs[0]
    if any(replace(c, function=first.function) != first for c in configs):
        raise ValueError("configs that share their runs may differ only in function")
    n_a, n_t = len(first.algorithms), len(first.T_grid)
    sgd = tuple(a for a in range(n_a) if isinstance(first.algorithms[a], SgdSpec))
    units = [((a,), t) for a in range(n_a) if a not in sgd for t in range(n_t)]
    units += [(sgd, t) for t in range(n_t)] if sgd else []
    # longest first, so that no large unit starts last and leaves cores idle
    units.sort(key=lambda u: first.T_grid[u[1]] * len(u[0]), reverse=True)
    if jobs <= 1 or len(units) <= 1:
        results = [_unit_rows(configs, a_idxs, t) for a_idxs, t in units]
    else:  # fork starts every worker at once: no more than there are units
        with ProcessPoolExecutor(max_workers=min(jobs, len(units))) as ex:
            results = list(ex.map(partial(_unit_rows, configs), *zip(*units)))
    rows = {(p, a, t): row for (a_idxs, t), unit in zip(units, results)
            for p, fn_rows in enumerate(unit) for a, row in zip(a_idxs, fn_rows)}
    return [RiskTable(tuple(rows[p, a, t] for a in range(n_a) for t in range(n_t)))
            for p in range(len(configs))]


def estimate_risk(config: ExperimentConfig, jobs: int = 1) -> RiskTable:
    """Monte-Carlo risk table over all (algorithm, budget) cells of one
    config: the one-config case of ``estimate_risks``."""
    (table,) = estimate_risks((config,), jobs)
    return table


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

# The tilted-risk bound, derived here; PAPER.md holds only the paper's abstract,
# which states that a superefficiency result exists but not its form.  So what
# is checked is this derivation (and the test suite checks the inequality on
# Monte-Carlo reports); what is not is whether the paper's theorem bounds the
# mean or the RMS error at f, and whether its d is omega_f(eps_T).
#
# A tilt g = f + eps * x adds eps to f', so it shifts the mean of every
# N(f'(x), sigma^2) reading by eps wherever the algorithm queries (by at most
# |eps| at a kink, where the reading is the min-norm subgradient).  The chi^2
# affinity of the two T-query transcripts is then E_f[(dP_g/dP_f)^2] <=
# exp(T eps^2 / sigma^2), adaptive queries or not, and at eps_T,
# T eps_T^2 / sigma^2 = ln(1/(8 delta^2)) makes the bound 1/(8 delta^2).
# For any estimate x, d(f, g) <= dist(x, M_f) + dist(x, M_g); take E_g of it
# and bound E_g[dist(x, M_f)] by Cauchy-Schwarz under P_f:
#   R_g >= d - rms_f * sqrt(1/(8 delta^2)) = d - rms_f / (2 sqrt(2) delta),
# with rms_f the root-mean-square error at f (Brown & Low, "A constrained risk
# inequality with applications to nonparametric functional estimation", Ann.
# Statist. 1996).  An estimator with rms_f <= delta * d thus pays
# R_g >= (1 - 1/(2 sqrt(2))) d = ((4 - sqrt(2))/4) d.

# the delta at which T eps_T^2 / sigma^2 = ln(1/(8 delta^2)) = 1, sqrt(1/(8e)):
# below it, eps_T exceeds sigma / sqrt(T), the standard error of T readings' mean
DELTA_MAX = math.sqrt(1.0 / (8.0 * math.e))

# R_g >= LOWER_BOUND_CONSTANT * d for every estimator with rms_f <= delta * d
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


def check_superefficiency_inputs(estimator, delta: float, T: int, sigma: float,
                                 replicates: int, master_seed: int,
                                 initial_interval: tuple[float, float] = (-2.0, 2.0),
                                 modulus_scale: float = 1.0):
    """Raise ValueError for inputs ``superefficiency_experiment`` cannot run,
    before anything is drawn: a delta outside (0, DELTA_MAX), a budget below
    1 or past the float range, no replicate, a sigma, master_seed or
    modulus_scale out of range, a domain that is not finite with a < b, a
    constant estimate outside it, or a budget too small for a binary
    search's rounds."""
    if not 0.0 < delta < DELTA_MAX:
        raise ValueError(
            f"delta must lie in (0, {DELTA_MAX:.6f}), got {delta}"
        )
    if T < 1:
        raise ValueError("T must be >= 1")
    if T > sys.float_info.max:  # eps_T divides by T as a float
        raise ValueError(f"T must be at most {sys.float_info.max!r}")
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    if not 0 <= master_seed < 2**64:  # as ExperimentConfig
        raise ValueError(f"master_seed must fit in 64 unsigned bits, got {master_seed}")
    if not (math.isfinite(modulus_scale) and modulus_scale > 0):
        raise ValueError(f"modulus_scale must be finite and > 0, got {modulus_scale}")
    a, b = initial_interval
    if not (a < b and math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"domain must be finite with a < b, got [{a}, {b}]")
    if (isinstance(estimator, ConstantEstimator) and not isinstance(estimator.x_hat, str)
            and not a <= estimator.x_hat <= b):
        raise ValueError(f"x_hat must lie in the domain [{a}, {b}], got {estimator.x_hat}")
    if isinstance(estimator, BinarySearchSpec):
        epochs_schedule(T, estimator.r)


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
    forces inflated risk at one of the tilted functions (see the derivation
    above ``DELTA_MAX``).  The report holds one ``TiltedAlternative`` row for
    g+ = f + eps_T * x and one for g- = f - eps_T * x; each carries its
    reference modulus for comparison, the closed form ``modulus_analytic``
    of g at modulus_scale * eps_T on the domain, which
    ``check_superefficiency_inputs`` checks first.  Nothing about the bound
    is asserted, it is descriptive output.  A binary search
    or SGD runs f, g+ and g- as three configs of one ``estimate_risks`` call:
    its risk at each is that config's ``estimate_risk`` alone, and the three
    share their replicates' draws.  A constant estimator draws nothing; its
    risk is its distance to each minimizer set.  Its default x_hat is resolved
    here to the midpoint of f's minimizer set, the number the report's id names.
    """
    check_superefficiency_inputs(estimator, delta, T, sigma, replicates, master_seed,
                                 initial_interval, modulus_scale)
    eps_t = math.sqrt(sigma * sigma * math.log(1.0 / (8.0 * delta * delta)) / T)
    tilts = (eps_t, -eps_t)
    specs = (spec, *(Tilt(spec, tilt) for tilt in tilts))
    minimizers = [minimizer_interval(s, initial_interval) for s in specs]
    if isinstance(estimator, ConstantEstimator):
        if isinstance(estimator.x_hat, str):
            estimator = ConstantEstimator(0.5 * (minimizers[0][0] + minimizers[0][1]))
        x = estimator.x_hat
        risks = [(float(distance((x, x), m)), 0.0) for m in minimizers]
    else:
        tables = estimate_risks(ExperimentConfig(s, (estimator,), (T,), replicates, sigma,
                                                 master_seed, initial_interval)
                                for s in specs)
        risks = [(t.rows[0].mean_err, t.rows[0].stderr) for t in tables]
    ref_eps = modulus_scale * eps_t  # 0 when sigma is 0: no flat set to measure
    (risk_f, se_f), *alt_risks = risks
    alternatives = tuple(TiltedAlternative(
        tilt, risk, stderr, d=float(distance(minimizers[0], m)),
        omega_ref=modulus_analytic(g, ref_eps, initial_interval) if ref_eps > 0 else 0.0,
    ) for tilt, g, m, (risk, stderr) in zip(tilts, specs[1:], minimizers[1:], alt_risks))
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
        alternatives=alternatives,
    )
