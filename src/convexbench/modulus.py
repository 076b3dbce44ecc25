"""Difficulty modulus of 1-D convex functions under subgradient perturbation.

For a convex f with nondecreasing min-norm subgradient f', the modulus at
level eps is the largest distance from the minimizer set achievable inside
the "flat set" {y : |f'(y)| < eps}.  ``modulus_analytic`` is exact for every
catalog spec: it reads the flat set's ends off the closed-form level sets of
``functions.clamped_level_set``, and an array of thresholds takes one call.
The superefficiency reports' reference moduli are computed from it.
``modulus_numeric`` finds the same ends by monotone bisection on f'; it is
the independent cross-check.  ``sample_modulus_curve`` puts both on one
sorted grid, as arrays, and fits the growth exponent from the bisection's
column with ``fit_loglog``, the one log-log least-squares fit of the package
(``cli.slopes_csv_text`` fits the risk curves with it too).

The bisection runs in lockstep: ``flat_set`` and ``modulus_numeric`` take a
scalar or an array, and every end of every threshold of one call (left and
right ends, at -eps and +eps) bisects in one loop of array subgradient
evaluations.  A threshold outside the slopes the domain attains needs no
branch: its end starts frozen at the domain end where the subgradient comes
nearest to it.  Each element stops exactly where a scalar bisection would,
so an array call equals the scalar calls bit for bit, and a scalar call
returns Python floats.

All functions here are pure and operate on immutable inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .functions import (
    ConvexFunction1D,
    FunctionSpec,
    _like,
    clamped_level_set,
    distance,
    minimizer_interval,
    subgrad_spec,
)

__all__ = [
    "ModulusCurve",
    "modulus_analytic",
    "modulus_numeric",
    "flat_set",
    "fit_loglog",
    "sample_modulus_curve",
]

# absolute bisection tolerance, in x units.  It does not bound the error: where
# f' rounds onto a threshold over a stretch of x, rounding decides the steps,
# and modulus_numeric of Tilt(SymmetricPower(3.0), 0.5) on (-1, 1) at eps = 0.5
# misses the exact sqrt(0.5) by 5.3e-9 (x|x| + 0.5 == 0.5 for |x| < 7.5e-9)
_BISECTION_TOL = 1e-12


@dataclass(frozen=True)
class ModulusCurve:
    """A modulus curve on a sorted epsilon grid: the closed form and the
    bisection at each epsilon, as arrays, and the growth exponent fitted from
    the bisection (None when too few of its values clear the resolution floor)."""

    epsilon: np.ndarray
    analytic: np.ndarray
    numeric: np.ndarray
    fitted_alpha: float | None


def _check_epsilon(epsilon):
    if not np.all(np.asarray(epsilon) > 0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")


def _farthest(interval: tuple[float, float], lo, hi):
    """Largest distance from ``interval`` of a point in [lo, hi]: that of
    an end (array-safe)."""
    return np.maximum(distance((lo, lo), interval), distance((hi, hi), interval))


def modulus_analytic(spec: FunctionSpec, epsilon, domain: tuple[float, float]):
    """Exact modulus of any catalog spec on ``domain``.

    The flat set runs from the upper end of the level set at -eps to the
    lower end of the level set at +eps, each clamped to the domain; a level
    set that is empty lies at -inf or +inf, so it clamps to the correct end.
    An array ``epsilon`` gives an array equal to the scalar calls; a scalar
    gives a Python float.

    At the noise level it is a computational analogue of the Fisher
    information: where f is C^2 at its minimizer, omega_f(sigma/sqrt(T)) ->
    sigma/(f'' sqrt(T)), the standard deviation of an efficient estimate,
    whose risk tends to sqrt(2/pi) omega_f(sigma/sqrt(T)).  Tests in
    ``tests/test_modulus.py`` pin the limit, the risk exactly on the quadratic,
    and curvature-matched SGD's risk by Monte Carlo
    (``test_modulus_is_epsilon_over_the_curvature``,
    ``test_efficient_risk_is_the_modulus_at_the_noise_level_exactly``,
    ``test_curvature_matched_sgd_reaches_the_efficient_risk``).
    """
    _check_epsilon(epsilon)
    eps = np.asarray(epsilon, dtype=float)
    lo = clamped_level_set(spec, -eps, domain)[1]
    hi = clamped_level_set(spec, eps, domain)[0]
    return _like(epsilon, _farthest(minimizer_interval(spec, domain), lo, hi))


def _conjugate_ends(f: ConvexFunction1D, s: np.ndarray):
    """Both ends of {x in domain : s in subdifferential f(x)}, clamped to
    the domain, at every threshold of the 1-D array ``s``.

    The left end is the leftmost x with f'(x) >= s (kinks make f' jump past
    s), the right end the rightmost x with f'(x) <= s.  All of them bisect
    [a, b] in one lockstep loop; an element freezes where a scalar bisection
    would stop, once ``hi - lo <= _BISECTION_TOL`` or once ``mid`` no longer
    falls strictly between ``lo`` and ``hi``.  Any threshold is allowed: an
    element whose answer is already an end of the domain starts frozen
    there, so both ends of a threshold below every attained slope sit at a,
    and both ends of one above every attained slope at b.
    """
    a, b = f.domain
    ga, gb = float(subgrad_spec(f.spec, a)), float(subgrad_spec(f.spec, b))
    is_left = np.arange(2 * s.size) < s.size  # left ends first, then right ends
    t = np.concatenate([s, s])
    at_a = np.where(is_left, ga >= t, ga > t)
    at_b = np.where(is_left, gb < t, gb <= t)
    # an end found without a step starts as the point interval it is
    lo = np.where(at_b, b, a)
    hi = np.where(at_a, a, b)
    # a left end lies left of mid where f'(mid) >= t, a right end where
    # f'(mid) > t: both read f'(mid) > t_down, with t_down the float below t
    # for left ends
    t_down = np.where(is_left, np.nextafter(t, -np.inf), t)
    while True:
        mid = 0.5 * (lo + hi)
        active = (mid > lo) & (mid < hi) & (hi - lo > _BISECTION_TOL)
        if not active.any():
            break
        down = active & (subgrad_spec(f.spec, mid) > t_down)
        hi = np.where(down, mid, hi)
        lo = np.where(active ^ down, mid, lo)
    # a singleton located from both sides, within the tolerance
    return _meet(*np.where(is_left, hi, lo).reshape(2, s.size))


def _meet(left, right):
    """Ends that crossed (arrays), both moved to their midpoint."""
    crossed = left > right
    mid = 0.5 * (left + right)
    return np.where(crossed, mid, left), np.where(crossed, mid, right)


def flat_set(f: ConvexFunction1D, epsilon):
    """Closure of {y in domain : |f'(y)| < epsilon}, clamped to the domain.

    The left end is the right end of the conjugate subdifferential at
    -epsilon and the right end its left end at +epsilon.  A threshold
    below every slope attained on the domain puts its end at the left
    domain boundary, one above every slope at the right boundary.
    ``epsilon`` may be an array, giving the (lo, hi) arrays of every flat
    set in one bisection.
    """
    _check_epsilon(epsilon)
    eps = np.asarray(epsilon, dtype=float)
    lower, upper = _conjugate_ends(f, np.concatenate([-eps.ravel(), eps.ravel()]))
    # degenerate flat set (a single kink), within the tolerance
    left, right = _meet(upper[:eps.size], lower[eps.size:])
    return _like(epsilon, left.reshape(eps.shape)), _like(epsilon, right.reshape(eps.shape))


def modulus_numeric(f: ConvexFunction1D, epsilon):
    """Larger distance from the minimizer set over the flat-set closure;
    an array ``epsilon`` gives an array.  The bisection can miss by far more
    than ``_BISECTION_TOL`` (5.3e-9 on a tilted cubic; see there), while
    ``modulus_analytic`` is exact."""
    return _like(epsilon, _farthest(f.minimizer_set, *flat_set(f, epsilon)))


def fit_loglog(x, y) -> tuple[float, float, float]:
    """Least-squares line of ln y against ln x: (slope, intercept, standard
    error of the slope), by the formulas of ``scipy.stats.linregress`` in the
    same order of operations.  Needs at least three points, all positive, and
    two distinct x; a constant y has no correlation, so its stderr is nan."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.size < 3 or not (np.all(x > 0) and np.all(y > 0)):
        raise DataError(f"need >= 3 points, all positive, to fit, got {x.size} points")
    lx, ly = np.log(x), np.log(y)
    ssxm, ssxym, _, ssym = np.cov(lx, ly, bias=True).flat
    if ssxm == 0.0:
        raise DataError(f"need two distinct x values to fit, got only {x[0]!r}")
    slope = ssxym / ssxm
    if ssym == 0.0:
        r = np.nan if ssxym == 0 else 0.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    return (float(slope), float(np.mean(ly) - slope * np.mean(lx)),
            float(np.sqrt((1 - r**2) * ssym / ssxm / (x.size - 2))))


def sample_modulus_curve(f: ConvexFunction1D, epsilons) -> ModulusCurve:
    """Both moduli on the sorted grid, and the growth exponent fitted from the
    bisection where it exceeds 10 * _BISECTION_TOL, below which it is not
    resolved; recovers 1/(k-1) for power laws."""
    grid = np.sort(np.asarray(epsilons, dtype=float))
    numeric = modulus_numeric(f, grid)
    resolved = numeric > 10.0 * _BISECTION_TOL
    try:
        alpha = fit_loglog(grid[resolved], numeric[resolved])[0]
    except DataError:
        alpha = None
    return ModulusCurve(grid, modulus_analytic(f.spec, grid, f.domain), numeric, alpha)
