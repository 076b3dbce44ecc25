"""Difficulty modulus of 1-D convex functions under subgradient perturbation.

For a convex f with nondecreasing min-norm subgradient f', the modulus at
level eps is the largest distance from the minimizer set achievable inside
the "flat set" {y : |f'(y)| < eps}.  ``modulus_analytic`` is exact for every
catalog spec: it reads the flat set's ends off the closed-form level sets of
``functions.level_set``.  ``modulus_numeric`` finds the same ends by monotone
bisection on f'; it is the independent cross-check, and the value that
fitted growth exponents and superefficiency reports are computed from.

All functions here are pure and operate on immutable inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, SlopeRangeError
from .functions import (
    ConvexFunction1D,
    FunctionSpec,
    GrowthProfile,
    clamped_level_set,
    distance,
    minimizer_interval,
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
]

# absolute bisection tolerance, in x units; far below every acceptance tolerance
_BISECTION_TOL = 1e-12


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


def _check_epsilon(epsilon: float):
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")


def _farthest(interval: tuple[float, float], lo: float, hi: float) -> float:
    """Largest distance from ``interval`` of a point in [lo, hi]: that of
    an end."""
    return float(max(distance((lo, lo), interval),
                     distance((hi, hi), interval)))


def modulus_analytic(
    spec: FunctionSpec, epsilon: float, domain: tuple[float, float]
) -> float:
    """Exact modulus of any catalog spec on ``domain``.

    The flat set runs from the upper end of the level set at -eps to the
    lower end of the level set at +eps, each clamped to the domain; a level
    set that is empty lies at -inf or +inf, so it clamps to the correct end.
    """
    _check_epsilon(epsilon)
    lo = clamped_level_set(spec, -epsilon, domain)[1]
    hi = clamped_level_set(spec, epsilon, domain)[0]
    return _farthest(minimizer_interval(spec, domain), lo, hi)


def _bisect_left_true(pred, lo: float, hi: float) -> float:
    """Leftmost x in [lo, hi] with pred(x) true, given pred monotone
    false->true; pred(hi) must be true."""
    if pred(lo):
        return lo
    while hi - lo > _BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # float resolution reached
            break
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _bisect_right_true(pred, lo: float, hi: float) -> float:
    """Rightmost x in [lo, hi] with pred(x) true, given pred monotone
    true->false; pred(lo) must be true."""
    if pred(hi):
        return hi
    while hi - lo > _BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo


def conjugate_subdifferential(f: ConvexFunction1D, s: float) -> tuple[float, float]:
    """{x in domain : s in subdifferential f(x)} as a closed interval.

    Computed by monotone bisection on f'(x) - s; for s = 0 this reproduces
    the minimizer set (within the bisection tolerance).
    """
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
        left = _bisect_left_true(lambda x: g(x) >= s, a, b)
    # right endpoint: rightmost x with f'(x) <= s
    if g(a) > s:
        right = a
    else:
        right = _bisect_right_true(lambda x: g(x) <= s, a, b)
    if left > right:  # singleton located from both sides, within the tolerance
        left = right = 0.5 * (left + right)
    return (left, right)


def flat_set(f: ConvexFunction1D, epsilon: float) -> tuple[float, float]:
    """Closure of {y in domain : |f'(y)| < epsilon}, clamped to the domain.

    The left end is the upper endpoint of the conjugate subdifferential at
    -epsilon and the right end the lower endpoint at +epsilon.  A threshold
    below every slope attained on the domain puts its end at the left
    domain boundary, one above every slope at the right boundary.
    """
    _check_epsilon(epsilon)
    a, b = f.domain
    slope_lo, slope_hi = f.slope_range()

    def end(s: float, side: int) -> float:
        if s < slope_lo:
            return a
        if s > slope_hi:
            return b
        return conjugate_subdifferential(f, s)[side]

    left, right = end(-epsilon, 1), end(epsilon, 0)
    if left > right:  # degenerate flat set (a single kink), within the tolerance
        left = right = 0.5 * (left + right)
    return (left, right)


def modulus_numeric(f: ConvexFunction1D, epsilon: float) -> float:
    """Larger distance from the minimizer set over the flat-set closure."""
    return _farthest(f.minimizer_set, *flat_set(f, epsilon))


def big_H(f: ConvexFunction1D, epsilon: float) -> float:
    """max of the distances from the conjugate subdifferentials at +/-epsilon
    to the one at 0, each read off ``level_set`` and clamped to the domain as
    in ``modulus_analytic``."""
    _check_epsilon(epsilon)
    base, up, dn = (clamped_level_set(f.spec, s, f.domain)
                    for s in (0.0, epsilon, -epsilon))
    return float(max(distance(up, base), distance(dn, base)))


def modulus_bounds_from_growth(
    profile: GrowthProfile, epsilon: float, C: float
) -> tuple[float, float]:
    """Two-sided sandwich for the modulus from a local growth profile.

    Valid for small enough epsilon (the threshold is function-specific and
    not computed here; the test suite pins an empirical range).
    """
    if C <= 1.0:
        raise ValueError(f"C must exceed 1, got {C}")
    _check_epsilon(epsilon)
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


def sample_modulus_curve(f: ConvexFunction1D, epsilons) -> ModulusCurve:
    """Evaluate the modulus over a grid, the closed form ("analytic") next to
    the bisection ("numeric") at each epsilon, and fit the growth exponent
    from the numeric samples."""
    samples: list[ModulusSample] = []
    for e in sorted(float(e) for e in epsilons):
        samples.append(ModulusSample(e, modulus_analytic(f.spec, e, f.domain), "analytic"))
        samples.append(ModulusSample(e, modulus_numeric(f, e), "numeric"))
    try:
        alpha = fit_growth_exponent(ModulusCurve(tuple(samples[1::2])),
                                    min_omega=10.0 * _BISECTION_TOL)
    except DataError:
        alpha = None
    return ModulusCurve(tuple(samples), fitted_alpha=alpha)
