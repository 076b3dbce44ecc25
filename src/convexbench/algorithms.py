"""Optimization algorithms driven by the noisy first-order oracle.

Two algorithms: a sign-testing binary search that averages a block of noisy
derivative readings at the interval midpoint each round, and projected
stochastic gradient descent with 1/t or 1/sqrt(t) step sizes.

Each is written once, as ``run_binary_search`` and ``run_sgd``, over an
``OracleBatch`` of R independent replicates advanced in lockstep.  The
experiment harness calls them with R replicates; ``sign_test_binary_search``
and ``sgd`` run them on an ``OracleSession`` (the R = 1 batch) and turn the
optional trace into ``RoundRecord``s.  ``BinarySearchSpec`` and ``SgdSpec``
are the only parameter types; the search or projection interval is an
argument of the run.

The binary search stores its interval as (left endpoint, width) and halves
the width each round with an exact multiply by 0.5, so the width after round
e equals 2^-e times the initial width bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ScheduleError
from .functions import ConvexFunction1D
from .modulus import flat_set
from .oracle import OracleBatch, OracleSession

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
    "UNIFORM_START",
]

# sentinel for "draw the SGD starting point uniformly over the projection
# interval"; resolved by the experiment harness, never inside run_sgd() itself
UNIFORM_START = "uniform"


@dataclass(frozen=True)
class BinarySearchSpec:
    r: float  # round-count coefficient: E = floor(r ln T) rounds
    delta: float = 0.05  # failure probability used by the diagnostics

    def __post_init__(self):
        if not (self.r > 0 and math.isfinite(self.r)):
            raise ValueError(f"r must be positive and finite, got {self.r}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0,1), got {self.delta}")

    @property
    def algorithm_id(self) -> str:
        return f"binary-search(r={self.r:g})"


@dataclass(frozen=True)
class SgdSpec:
    schedule: str  # "1/t" or "1/sqrt(t)"
    scale: float = 1.0
    iterate: str = "last"  # "last" or "average"
    x0: float | str = UNIFORM_START

    def __post_init__(self):
        if self.schedule not in ("1/t", "1/sqrt(t)"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if self.iterate not in ("last", "average"):
            raise ValueError(f"iterate must be 'last' or 'average', got {self.iterate!r}")
        if isinstance(self.x0, str) and self.x0 != UNIFORM_START:
            raise ValueError(f"x0 must be a number or {UNIFORM_START!r}, got {self.x0!r}")

    @property
    def algorithm_id(self) -> str:
        extras = []
        if self.scale != 1.0:
            extras.append(f"scale={self.scale:g}")
        if self.iterate != "last":
            extras.append("avg")
        if self.x0 != UNIFORM_START:
            extras.append(f"x0={self.x0:g}")
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
    base.  Raises ScheduleError when T is too small for this r.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if r <= 0:
        raise ValueError(f"r must be positive, got {r}")
    E = math.floor(r * math.log(T))
    if E < 1:
        raise ScheduleError(f"floor(r*ln T) = 0 for T={T}, r={r}: budget too small")
    T0 = T // E
    if T0 < 1:
        raise ScheduleError(f"T0 = floor(T/E) = 0 for T={T}, E={E}")
    return E, T0


def _checked_interval(interval: tuple[float, float]) -> tuple[float, float]:
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError(f"need a < b in the interval, got ({a}, {b})")
    return a, b


def run_binary_search(
    batch: OracleBatch,
    spec: BinarySearchSpec,
    interval: tuple[float, float],
    trace: list | None = None,
) -> np.ndarray:
    """E rounds of bisection steered by the sign of an averaged derivative.

    Each round queries the midpoint of every replicate's current interval
    T0 times, keeps the left half where the average reading is positive and
    the right half otherwise (ties go right).  The schedule (E, T0) comes
    from the batch's budget.  Returns the midpoints of the final intervals,
    shape (R,).  When ``trace`` is a list, each round appends
    (query points, mean readings, left ends after the update, width).
    """
    a0, b0 = _checked_interval(interval)
    E, T0 = epochs_schedule(batch.budget, spec.r)
    a = np.full(batch.n_replicates, a0)
    width = b0 - a0
    for _ in range(E):
        x = a + 0.5 * width
        z_bar = batch.query_block_all(x, T0).mean(axis=1)
        width = width * 0.5  # exact
        a = np.where(z_bar > 0, a, x)
        if trace is not None:
            trace.append((x, z_bar, a, width))
    return a + 0.5 * width


def run_sgd(
    batch: OracleBatch,
    specs: tuple[SgdSpec, ...],
    x0: np.ndarray,
    interval: tuple[float, float],
    trace: list | None = None,
) -> np.ndarray:
    """Projected stochastic gradient descent using the whole oracle budget.

    The batch's replicates form one contiguous block of equal size per spec
    in ``specs``, each block following its own spec.  Step t (starting at 1)
    queries each replicate's current iterate and moves against the returned
    noisy subgradient with its spec's step size scale/t or scale/sqrt(t).
    Starts ``x0`` (shape (R,)) and iterates are projected onto the interval
    before every query.  Returns the last iterates, or the running averages
    of the query points for blocks whose spec has iterate == "average".
    When ``trace`` is a list, each step appends (query points, readings).
    """
    lo, hi = _checked_interval(interval)
    T = batch.budget
    size = batch.n_replicates // len(specs)
    blocks = [(slice(j * size, (j + 1) * size), spec) for j, spec in enumerate(specs)]
    averaged = [block for block, spec in blocks if spec.iterate == "average"]
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    total = np.zeros_like(x)
    batch.begin_steps(T)
    for t in range(1, T + 1):
        v = batch.query_all(x)
        if trace is not None:
            trace.append((x.copy(), v.copy()))
        for block in averaged:
            total[block] += x[block]
        for block, spec in blocks:
            vb = v[block]
            vb *= spec.scale / (t if spec.schedule == "1/t" else math.sqrt(t))
        x -= v
        np.minimum(np.maximum(x, lo, out=x), hi, out=x)  # np.clip, less overhead
    for block in averaged:
        x[block] = total[block] / T
    return x


def sign_test_binary_search(
    session: OracleSession, spec: BinarySearchSpec, interval: tuple[float, float]
) -> RunResult:
    """``run_binary_search`` on one session; the trace has one entry per round."""
    used = session.queries_used
    rounds = []
    estimate = run_binary_search(session.batch, spec, interval, trace=rounds)
    records = tuple(
        RoundRecord(round=e, query_point=float(x[0]), mean_gradient=float(z_bar[0]),
                    interval=(float(a[0]), float(a[0]) + width), width=width)
        for e, (x, z_bar, a, width) in enumerate(rounds, start=1)
    )
    return RunResult(float(estimate[0]), session.queries_used - used, records)


def flat_set_diagnostics(
    f: ConvexFunction1D,
    T: int,
    r: float,
    delta: float,
    sigma: float,
    initial_interval: tuple[float, float] | None = None,
) -> tuple[float, tuple[float, float], float]:
    """Quantities governing where the binary search lands.

    Returns (C_delta, I_delta, radius_bound): the noise-deviation constant
    C_delta = sigma * sqrt(2 ln(E/delta)), the interval I_delta where the
    subgradient magnitude is below C_delta/sqrt(T0), and the bisection
    resolution 2^-E times the initial interval width.  With probability at
    least 1 - delta the search output lies within radius_bound of I_delta
    whenever the initial interval meets it.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    E, T0 = epochs_schedule(T, r)
    c_delta = sigma * math.sqrt(2.0 * math.log(E / delta))
    threshold = c_delta / math.sqrt(T0)
    if threshold > 0:
        i_delta = flat_set(f, threshold)
    else:  # sigma = 0 or delta -> 1 with E = 1: the flat set degenerates
        i_delta = f.minimizer_set
    a0, b0 = initial_interval if initial_interval is not None else f.domain
    radius_bound = (b0 - a0) * 0.5**E
    return c_delta, i_delta, radius_bound


def sgd(
    session: OracleSession,
    spec: SgdSpec,
    interval: tuple[float, float],
    record_trace: bool = False,
) -> RunResult:
    """``run_sgd`` on one session from the numeric start ``spec.x0``; with
    ``record_trace`` the trace has one entry per step."""
    if isinstance(spec.x0, str):
        raise ValueError(
            "spec.x0 must be a number before calling sgd(); draw the uniform "
            "start in the harness"
        )
    used = session.queries_used
    steps = [] if record_trace else None
    estimate = run_sgd(session.batch, (spec,), np.array([float(spec.x0)]), interval,
                       trace=steps)
    lo, hi = interval
    records = tuple(
        RoundRecord(round=t, query_point=float(x[0]), mean_gradient=float(v[0]),
                    interval=(lo, hi), width=hi - lo)
        for t, (x, v) in enumerate(steps or (), start=1)
    )
    return RunResult(float(estimate[0]), session.queries_used - used, records)
