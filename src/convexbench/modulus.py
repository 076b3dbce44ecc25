"""Difficulty modulus of 1-D convex functions under subgradient perturbation.

For a convex f with nondecreasing min-norm subgradient f', the modulus at
level eps is the largest distance from the minimizer set achievable inside
the "flat set" {y : |f'(y)| < eps}.  Closed forms exist for the power-growth
catalog; the numeric path computes flat-set endpoints by monotone bisection
and is the cross-check for everything else.

All functions here are pure and operate on immutable inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, SlopeRangeError, UnsupportedSpecError
from .functions import (
    AsymmetricPower,
    ConvexFunction1D,
    FunctionSpec,
    GrowthProfile,
    SymmetricPower,
)

__all__ = [
    "ModulusCurve",
    "ModulusSample",
    "modulus_analytic",
    "modulus_numeric",
    "flat_set",
    "conjugate_subdifferential",
    "big_H",
    "modulus_bounds_from_growth",
    "fit_growth_exponent",
    "sample_modulus_curve",
    "DEFAULT_BISECTION_TOL",
]

# absolute tolerance, in x units; far below every acceptance tolerance
DEFAULT_BISECTION_TOL = 1e-12


@dataclass(frozen=True)
class ModulusSample:
    epsilon: float
    omega: float
    method: str  # "analytic" | "numeric"


@dataclass(frozen=True)
class ModulusCurve:
    """Sampled modulus values with provenance and an optional fitted exponent."""

    samples: tuple[ModulusSample, ...]
    fitted_alpha: float | None = None


def modulus_analytic(
    spec: FunctionSpec, epsilon: float, domain: tuple[float, float]
) -> float:
    """Closed-form modulus for unit-normalized power specs.

    eps^(1/(k-1)) with k the (larger) growth exponent, capped at the distance
    from the minimizer to the farther domain endpoint.  Other spec variants
    raise UnsupportedSpecError; callers fall back to modulus_numeric.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if isinstance(spec, SymmetricPower):
        k, x0 = spec.k, spec.x_star
    elif isinstance(spec, AsymmetricPower):
        k, x0 = max(spec.k_l, spec.k_r), spec.x_star
    else:
        raise UnsupportedSpecError(
            f"no analytic modulus for {type(spec).__name__}; use modulus_numeric"
        )
    cap = max(x0 - domain[0], domain[1] - x0)
    return min(epsilon ** (1.0 / (k - 1.0)), cap)


def _bisect_left_true(pred, lo: float, hi: float, tol: float) -> float:
    """Leftmost x in [lo, hi] with pred(x) true, given pred monotone
    false->true; pred(hi) must be true."""
    if pred(lo):
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # float resolution reached
            break
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _bisect_right_true(pred, lo: float, hi: float, tol: float) -> float:
    """Rightmost x in [lo, hi] with pred(x) true, given pred monotone
    true->false; pred(lo) must be true."""
    if pred(hi):
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo


def conjugate_subdifferential(
    f: ConvexFunction1D, s: float, tol: float = DEFAULT_BISECTION_TOL
) -> tuple[float, float]:
    """{x in domain : s in subdifferential f(x)} as a closed interval.

    Computed by monotone bisection on f'(x) - s; for s = 0 this reproduces
    the minimizer set (within tol).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a, b = f.domain
    slope_lo, slope_hi = f.slope_range()
    if s < slope_lo or s > slope_hi:
        raise SlopeRangeError(
            f"slope {s} outside attained range [{slope_lo}, {slope_hi}]"
        )
    g = f.subgrad
    # left endpoint: leftmost x with f'(x) >= s (kinks make f' jump past s)
    if g(b) < s:
        left = b
    else:
        left = _bisect_left_true(lambda x: g(x) >= s, a, b, tol)
    # right endpoint: rightmost x with f'(x) <= s
    if g(a) > s:
        right = a
    else:
        right = _bisect_right_true(lambda x: g(x) <= s, a, b, tol)
    if left > right:  # singleton located from both sides, off by <= tol
        left = right = 0.5 * (left + right)
    return (left, right)


def flat_set(
    f: ConvexFunction1D, epsilon: float, tol: float = DEFAULT_BISECTION_TOL
) -> tuple[float, float]:
    """Closure of {y in domain : |f'(y)| < epsilon}, clamped to the domain.

    The left end is the upper endpoint of the conjugate subdifferential at
    -epsilon and the right end the lower endpoint at +epsilon; when the
    threshold exceeds the slopes attained on a side, that end clamps to the
    domain boundary.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    a, b = f.domain
    try:
        left = conjugate_subdifferential(f, -epsilon, tol)[1]
    except SlopeRangeError:
        left = a
    try:
        right = conjugate_subdifferential(f, epsilon, tol)[0]
    except SlopeRangeError:
        right = b
    if left > right:  # degenerate flat set (a single kink), off by <= tol
        left = right = 0.5 * (left + right)
    return (left, right)


def modulus_numeric(
    f: ConvexFunction1D, epsilon: float, tol: float = DEFAULT_BISECTION_TOL
) -> float:
    """Larger distance from the minimizer set over the flat-set closure."""
    lo, hi = flat_set(f, epsilon, tol)
    xl, xr = f.minimizer_set
    d_lo = max(0.0, xl - lo, lo - xr)
    d_hi = max(0.0, xl - hi, hi - xr)
    return max(d_lo, d_hi)


def big_H(
    f: ConvexFunction1D, epsilon: float, tol: float = DEFAULT_BISECTION_TOL
) -> float:
    """max of the distances from the conjugate subdifferentials at +/-epsilon
    to the one at 0."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    base = conjugate_subdifferential(f, 0.0, tol)
    up = conjugate_subdifferential(f, epsilon, tol)
    dn = conjugate_subdifferential(f, -epsilon, tol)

    def dist(p, q):
        return max(0.0, q[0] - p[1], p[0] - q[1])

    return max(dist(up, base), dist(dn, base))


def modulus_bounds_from_growth(
    profile: GrowthProfile, epsilon: float, C: float
) -> tuple[float, float]:
    """Two-sided sandwich for the modulus from a local growth profile.

    Valid for small enough epsilon (the threshold is function-specific and
    not computed here; the test suite pins an empirical range).
    """
    if C <= 1.0:
        raise ValueError(f"C must exceed 1, got {C}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    k = max(profile.k_l, profile.k_r)
    if profile.k_l > profile.k_r:
        lam = profile.lambda_l
    elif profile.k_r > profile.k_l:
        lam = profile.lambda_r
    else:
        lam = max(profile.lambda_l, profile.lambda_r)
    p = 1.0 / (k - 1.0)
    lo = (epsilon / (C * lam * k)) ** p
    hi = (C * epsilon / lam) ** p
    return lo, hi


def fit_growth_exponent(curve: ModulusCurve, min_omega: float = 0.0) -> float:
    """Least-squares slope of log omega against log epsilon.

    Recovers 1/(k-1) exactly for power-law curves.  Requires at least three
    samples with strictly positive omega; ``min_omega`` additionally drops
    values at or below a resolution floor (numeric samples are only accurate
    to the bisection tolerance).
    """
    pts = [(s.epsilon, s.omega) for s in curve.samples
           if s.omega > 0 and s.omega > min_omega]
    if len(pts) < 3:
        raise DataError(
            f"need >= 3 samples with positive omega to fit, got {len(pts)}"
        )
    le = np.log([p[0] for p in pts])
    lo = np.log([p[1] for p in pts])
    slope = float(np.polyfit(le, lo, 1)[0])
    return slope


def sample_modulus_curve(
    f: ConvexFunction1D,
    epsilons,
    tol: float = DEFAULT_BISECTION_TOL,
    include_analytic: bool = True,
) -> ModulusCurve:
    """Evaluate the modulus over a grid, attaching analytic values when the
    spec supports them, and fit the growth exponent from the numeric samples."""
    samples: list[ModulusSample] = []
    eps_sorted = sorted(float(e) for e in epsilons)
    for e in eps_sorted:
        if include_analytic:
            try:
                w = modulus_analytic(f.spec, e, f.domain)
                samples.append(ModulusSample(e, w, "analytic"))
            except UnsupportedSpecError:
                pass
        samples.append(ModulusSample(e, modulus_numeric(f, e, tol), "numeric"))
    numeric_curve = ModulusCurve(
        tuple(s for s in samples if s.method == "numeric")
    )
    try:
        alpha = fit_growth_exponent(numeric_curve, min_omega=10.0 * tol)
    except DataError:
        alpha = None
    return ModulusCurve(tuple(samples), fitted_alpha=alpha)

