"""Optimization algorithms driven by the noisy first-order oracle.

Two algorithms: a sign-testing binary search that averages a block of noisy
derivative readings at the interval midpoint each round, and projected
stochastic gradient descent with 1/t or 1/sqrt(t) step sizes.

Each is written once, as ``run_binary_search`` and ``run_sgd``, over an
``OracleBatch`` of R independent replicates advanced in lockstep, on arrays
of the batch's ``shape``: (R,), or (P, R) when P functions share the batch's
noise.  The experiment harness calls them with R replicates;
``sign_test_binary_search`` and ``sgd`` run them on a one-replicate batch and
turn the trace into ``RoundRecord``s.  ``BinarySearchSpec`` and
``SgdSpec`` are the only parameter types.  The search and projection interval
is the batch's domain, which ``OracleBatch`` has checked with
``functions.check_domain`` (finite, a < b) and stored as floats.

The binary search stores its interval as (left endpoint, width) and halves
the width each round with an exact multiply by 0.5, so the width after round
e equals 2^-e times the domain's width bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FieldError, ScheduleError
from .functions import FunctionSpec, check_domain, clamped_level_set, minimizer_interval
from .oracle import OracleBatch, check_budget, check_sigma

__all__ = [
    "BinarySearchSpec",
    "SgdSpec",
    "RoundRecord",
    "RunResult",
    "epochs_schedule",
    "run_binary_search",
    "run_sgd",
    "sign_test_binary_search",
    "flat_set_diagnostics",
    "sgd",
    "MAX_T0",
    "UNIFORM_START",
]

# the longest round a schedule may have: each thread of query_block_all holds
# a whole row of T0 readings in its tile (two with several functions), as a
# round's mean is numpy's sum over one contiguous row; 2^27 readings are 1 GiB
# per thread, and budgets to 1e8 fit
MAX_T0 = 2**27

# sentinel for "draw the SGD starting point uniformly over the projection
# interval"; resolved by the experiment harness, never inside run_sgd() itself
UNIFORM_START = "uniform"


def _id_number(x: float) -> str:
    return repr(float(x)).removesuffix(".0")  # shortest round trip; 1.0 as 1


def _check_positive(name: str, value: float):
    if not (value > 0 and math.isfinite(value)):
        raise FieldError(name, f"{name} must be positive and finite, got {value}")


def _check_number_or_word(name: str, value: float | str, word: str):
    if not (value == word if isinstance(value, str) else math.isfinite(value)):
        raise FieldError(name, f"{name} must be finite or {word!r}, got {value!r}")


@dataclass(frozen=True)
class BinarySearchSpec:
    r: float  # round-count coefficient: E = floor(r ln T) rounds

    def __post_init__(self):
        _check_positive("r", self.r)

    @property
    def algorithm_id(self) -> str:
        return f"binary-search(r={_id_number(self.r)})"


@dataclass(frozen=True)
class SgdSpec:
    schedule: str  # "1/t" or "1/sqrt(t)"
    scale: float = 1.0
    iterate: str = "last"  # "last" or "average"
    x0: float | str = UNIFORM_START

    def __post_init__(self):
        if self.schedule not in ("1/t", "1/sqrt(t)"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        _check_positive("scale", self.scale)
        if self.iterate not in ("last", "average"):
            raise ValueError(f"iterate must be 'last' or 'average', got {self.iterate!r}")
        _check_number_or_word("x0", self.x0, UNIFORM_START)

    @property
    def algorithm_id(self) -> str:
        extras = []
        if self.scale != 1.0:
            extras.append(f"scale={_id_number(self.scale)}")
        if self.iterate != "last":
            extras.append("avg")
        if self.x0 != UNIFORM_START:
            extras.append(f"x0={_id_number(self.x0)}")
        tail = (";" + ";".join(extras)) if extras else ""
        return f"sgd({self.schedule}{tail})"


@dataclass(frozen=True)
class RoundRecord:
    round: int
    query_point: float
    mean_gradient: float
    interval: tuple[float, float]  # after this round's update
    width: float


@dataclass(frozen=True)
class RunResult:
    estimate: float
    queries_used: int
    trace: tuple[RoundRecord, ...] = ()


def epochs_schedule(T: int, r: float) -> tuple[int, int]:
    """Split a budget of T queries into E rounds of T0 queries each.

    E = floor(r * ln T), T0 = floor(T / E).  Natural logarithm; r absorbs the
    base.  Raises ScheduleError when T is too small for this r, and
    ValueError when ``check_budget`` refuses T or T0 exceeds MAX_T0.
    """
    T = check_budget(T)
    _check_positive("r", r)
    E = math.floor(r * math.log(T))
    if E < 1:
        raise ScheduleError(f"floor(r*ln T) = 0 for T={T}, r={r}: budget too small")
    T0 = T // E
    if T0 < 1:
        raise ScheduleError(f"T0 = floor(T/E) = 0 for T={T}, E={E}")
    if T0 > MAX_T0:  # a ValueError, not a ScheduleError: no cell may skip it
        raise ValueError(f"T={T} with r={r} gives rounds of T0={T0} queries, "
                         f"more than the {MAX_T0} one block read may hold")
    return E, T0


def run_binary_search(
    batch: OracleBatch,
    spec: BinarySearchSpec,
    trace: list | None = None,
) -> np.ndarray:
    """E rounds of bisection of the batch's domain, steered by the sign of an
    averaged derivative.

    Each round queries the midpoint of every replicate's current interval
    T0 times, keeps the left half where the average reading is positive and
    the right half otherwise (ties go right).  ``query_block_all`` returns
    those averages without holding all R x T0 readings at once: a round's
    memory is O(R) plus one tile of at most max(oracle.TILE_VALUES, 2 T0)
    values per reading thread, at most one thread per usable core, whatever
    the budget.  The schedule (E, T0) comes from the batch's budget.
    Returns the midpoints of the final intervals, of the batch's shape (one
    search per function and replicate).  When ``trace`` is a list, each round
    appends (query points, mean readings, left ends after the update, width).
    """
    a0, b0 = batch.domain
    E, T0 = epochs_schedule(batch.budget, spec.r)
    a = np.full(batch.shape, a0)
    width = b0 - a0
    for _ in range(E):
        x = a + 0.5 * width
        z_bar = batch.query_block_all(x, T0)
        width = width * 0.5  # exact
        a = np.where(z_bar > 0, a, x)
        if trace is not None:
            trace.append((x, z_bar, a, width))
    return a + 0.5 * width


def run_sgd(
    batch: OracleBatch,
    specs: tuple[SgdSpec, ...],
    x0: np.ndarray,
    trace: list | None = None,
) -> np.ndarray:
    """Projected stochastic gradient descent using the whole oracle budget.

    The batch's replicates form one contiguous block of equal size per spec
    in ``specs``, along the last axis of the batch's shape, each block
    following its own spec.  Step t (starting at 1) queries each replicate's
    current iterate and moves against the returned noisy subgradient with its
    spec's step size scale/t or scale/sqrt(t), all readings scaled in one
    multiply by a row of the R step sizes.  Starts ``x0`` (shape (R,),
    broadcast to the batch's shape) and iterates are projected onto the
    batch's domain before every query.  Returns the last iterates, or the
    running averages of the query points for blocks whose spec has iterate
    == "average", of the batch's shape.
    When ``trace`` is a list, each step appends (query points, readings).

    SGD does not adapt to the flat set: where f' vanishes faster than linearly
    at the minimizer, 1/t steps creep even without noise (u' = -u|u|/t on
    sym-k3, so 1/|u| grows like ln t), and the error is bias.  On the fig2
    families with 1/t steps the noiseless path carries nearly all of sym-k3's
    risk and most of asym-1.5-3's, and none of sym-k2's, where the first step
    lands on the minimizer and the error is all noise; ``tests/test_algorithms.py``
    pins both (``test_sgd_error_is_bias_on_flat_panels_and_noise_on_the_quadratic``).
    """
    lo, hi = batch.domain
    T = batch.budget
    size = batch.n_replicates // len(specs)
    blocks = [(np.s_[..., j * size:(j + 1) * size], spec) for j, spec in enumerate(specs)]
    averaged = [block for block, spec in blocks if spec.iterate == "average"]
    x = np.clip(np.full(batch.shape, x0, dtype=float), lo, hi)
    total = np.zeros_like(x)
    eta = np.empty(batch.n_replicates)  # this step's step size, per replicate
    batch.begin_steps(T)
    for t in range(1, T + 1):
        v = batch.query_all(x)
        if trace is not None:
            trace.append((x.copy(), v.copy()))
        for block in averaged:
            total[block] += x[block]
        for block, spec in blocks:
            eta[block] = spec.scale / (t if spec.schedule == "1/t" else math.sqrt(t))
        v *= eta  # one multiply for every function and block
        x -= v
        np.minimum(np.maximum(x, lo, out=x), hi, out=x)  # np.clip, less overhead
    for block in averaged:
        x[block] = total[block] / T
    return x


def _one_replicate(batch: OracleBatch, record, run, *args) -> RunResult:
    """One-replicate ``run(batch, *args, trace=...)``; ``record(n, *entry)`` per entry."""
    if batch.n_replicates != 1:
        raise ValueError(f"need a one-replicate batch, got {batch.n_replicates} replicates")
    used = batch.queries_used
    trace = []
    estimate = run(batch, *args, trace=trace)
    return RunResult(float(estimate[0]), batch.queries_used - used,
                     tuple(record(n, *entry) for n, entry in enumerate(trace, start=1)))


def sign_test_binary_search(batch: OracleBatch, spec: BinarySearchSpec) -> RunResult:
    """``run_binary_search`` on one replicate; the trace has one entry per round."""
    def record(e, x, z_bar, a, width):
        return RoundRecord(round=e, query_point=float(x[0]), mean_gradient=float(z_bar[0]),
                           interval=(float(a[0]), float(a[0]) + width), width=width)
    return _one_replicate(batch, record, run_binary_search, spec)


def flat_set_diagnostics(
    spec: FunctionSpec,
    domain: tuple[float, float],
    T: int,
    search: BinarySearchSpec,
    sigma: float,
    delta: float,
) -> tuple[float, tuple[float, float], float]:
    """Quantities governing where ``search`` lands on ``spec`` over ``domain``.

    Returns (C_delta, I_delta, radius_bound) for the caller's failure
    probability delta in (0, 1): the noise-deviation constant C_delta =
    sigma * sqrt(2 ln(E/delta)); the interval I_delta where the subgradient
    magnitude is below C_delta/sqrt(T0), read in closed form off the level
    sets at -/+ that threshold as ``modulus.modulus_analytic`` reads the flat
    set; and the bisection resolution 2^-E times the width of the domain, the
    interval the search bisects.  With probability at least 1 - delta the
    search output lies within radius_bound of I_delta.
    """
    a0, b0 = domain = check_domain(domain)
    check_sigma(sigma)
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    E, T0 = epochs_schedule(T, search.r)
    c_delta = sigma * math.sqrt(2.0 * math.log(E / delta))
    threshold = c_delta / math.sqrt(T0)
    if threshold > 0:
        i_delta = (clamped_level_set(spec, -threshold, domain)[1],
                   clamped_level_set(spec, threshold, domain)[0])
    else:  # sigma = 0 or delta -> 1 with E = 1: the ends at -/+0 would cross
        i_delta = minimizer_interval(spec, domain)
    radius_bound = (b0 - a0) * 0.5**E
    return c_delta, i_delta, radius_bound


def sgd(batch: OracleBatch, spec: SgdSpec) -> RunResult:
    """``run_sgd`` on a one-replicate batch from the numeric start ``spec.x0``;
    the trace has one entry per step."""
    if isinstance(spec.x0, str):
        raise ValueError("spec.x0 must be a number before calling sgd(); draw the uniform "
                         "start in the harness")
    lo, hi = batch.domain

    def record(t, x, v):
        return RoundRecord(round=t, query_point=float(x[0]), mean_gradient=float(v[0]),
                           interval=(lo, hi), width=hi - lo)
    return _one_replicate(batch, record, run_sgd, (spec,), np.array([float(spec.x0)]))
