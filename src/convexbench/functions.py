"""One-dimensional convex test functions with exact min-norm subgradients.

The catalog is a small family of closed-form convex functions (power growth,
absolute value, piecewise linear, linear tilts of any of these).  Every spec
knows its full subdifferential interval at every point, so the min-norm
subgradient selection, minimizer intervals and slope level sets are all
computed analytically.  All spec types are frozen dataclasses: immutable,
hashable, picklable.

Formulas are written once, on numpy arrays, and shared by the scalar and the
vectorized (many replicates at once) code paths, so both produce bitwise
identical values.  That holds for the subgradient kernels and for the slope
level sets, whose roots |s|^(1/(k-1)) are the same powers.  A power |u|^e
with e = 1, 2 or 1/2 is one exact operation (|u|, ``np.square``,
``np.sqrt``; signed, u, u |u| and ``np.copysign``): each is correctly
rounded, and ``np.power`` returns that same value, so every output byte is
unchanged (``tests/test_functions.py`` pins it).  Other powers are
``np.power`` ufunc calls, not ``**``: on a numpy scalar ``**`` takes the C
library's ``pow``, which can differ from the array loop in the last bit.
A level-set reader's domain needs a < b (``_check_ordered``; the whole line
is allowed), a run's domain finite ends too (``check_domain``).

A power spec's slope is one formula, ``power_slope``, of the shift u = x -
x_star and the exponents (e_l, e_r) of ``power_terms``: sign(u) |u|^e when
e_l = e_r = e, else max(u, 0)^e_r - (-min(u, 0))^e_l.  Each form keeps the
bits of -|u|^e_l left of the minimizer and |u|^e_r right of it: the
symmetric forms are correctly rounded and odd; in the other, the side that u
is not on reads a zero, and y - 0 = y and 0 - y = -y exactly; ``+ 0.0`` then
clears a zero's sign.  ``subgrad_spec`` and the oracle's functions-axis
kernel both call it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .errors import DomainError, FieldError

__all__ = [
    "SymmetricPower",
    "AsymmetricPower",
    "Absolute",
    "PiecewiseLinear",
    "Tilt",
    "FunctionSpec",
    "ConvexFunction1D",
    "build_function",
    "distance",
    "spec_id",
    "with_x_star",
]


def _check_ordered(domain) -> tuple[float, float]:
    a, b = float(domain[0]), float(domain[1])
    if not a < b:
        raise FieldError("initial_interval", f"domain must have a < b, got [{a}, {b}]")
    return a, b


def check_domain(domain) -> tuple[float, float]:
    """The ends of a run's domain as floats; FieldError unless finite with a < b."""
    a, b = float(domain[0]), float(domain[1])
    if not -math.inf < a < b < math.inf:
        raise FieldError("initial_interval",
                         f"domain must be finite with a < b, got [{a}, {b}]")
    return a, b


def _check_finite(spec, *names):
    """ValueError unless every number in the named fields of ``spec`` is finite."""
    for name in names:
        value = getattr(spec, name)
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{type(spec).__name__} needs finite {name}, got {value}")


@dataclass(frozen=True)
class SymmetricPower:
    """f(x) = |x - x_star|^k / k with k > 1."""

    k: float
    x_star: float = 0.0

    def __post_init__(self):
        _check_finite(self, "k", "x_star")
        if not self.k > 1.0:
            raise ValueError(f"SymmetricPower requires k > 1, got k={self.k}")


@dataclass(frozen=True)
class AsymmetricPower:
    """|u|^k_l/k_l left of x_star, |u|^k_r/k_r right of it, k_l, k_r > 1."""

    k_l: float
    k_r: float
    x_star: float = 0.0

    def __post_init__(self):
        _check_finite(self, "k_l", "k_r", "x_star")
        if not (self.k_l > 1.0 and self.k_r > 1.0):
            raise ValueError(
                f"AsymmetricPower requires k_l, k_r > 1, got ({self.k_l}, {self.k_r})"
            )


@dataclass(frozen=True)
class Absolute:
    """f(x) = |x - x_star|."""

    x_star: float = 0.0

    def __post_init__(self):
        _check_finite(self, "x_star")


@dataclass(frozen=True)
class PiecewiseLinear:
    """Convex piecewise-linear function.

    ``slopes`` has one more entry than ``breakpoints`` and must be
    nondecreasing; slope ``slopes[i]`` applies between ``breakpoints[i-1]``
    and ``breakpoints[i]`` (extended to the left/right at the ends).
    The function is anchored to value 0 at the first breakpoint.
    """

    breakpoints: tuple[float, ...]
    slopes: tuple[float, ...]

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        sl = tuple(float(s) for s in self.slopes)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "slopes", sl)
        _check_finite(self, "breakpoints", "slopes")
        if len(bp) < 1:
            raise ValueError("PiecewiseLinear needs at least one breakpoint")
        if len(sl) != len(bp) + 1:
            raise ValueError("need len(slopes) == len(breakpoints) + 1")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(s2 < s1 for s1, s2 in zip(sl, sl[1:])):
            raise ValueError("slopes must be nondecreasing (convexity)")


@dataclass(frozen=True)
class Tilt:
    """base(x) + eps * x."""

    base: "FunctionSpec"
    eps: float

    def __post_init__(self):
        _check_finite(self, "eps")
        if isinstance(self.base, Tilt):
            # collapse nested tilts so spec equality is structural
            object.__setattr__(self, "eps", self.eps + self.base.eps)
            object.__setattr__(self, "base", self.base.base)


FunctionSpec = Union[SymmetricPower, AsymmetricPower, Absolute, PiecewiseLinear, Tilt]


# ---------------------------------------------------------------------------
# core formula kernels (array-safe; scalars go through the same code)
# ---------------------------------------------------------------------------


def _power(au, e: float):
    """au^e for au >= 0: for e = 1, 2 and 1/2 the one correctly rounded
    operation whose value np.power returns, np.power for every other e."""
    if e == 1.0:
        return au
    if e == 2.0:
        return np.square(au)
    return np.sqrt(au) if e == 0.5 else np.power(au, e)


def power_terms(spec: FunctionSpec) -> tuple[float, float, float, float] | None:
    """(x_star, e_l, e_r, eps) of a power spec or its tilt, whose min-norm
    subgradient at x is power_slope(x - x_star, e_l, e_r) + eps + 0.0, the
    exponents k - 1 left and right of the minimizer; None for other kinds."""
    base, eps = (spec.base, spec.eps) if isinstance(spec, Tilt) else (spec, 0.0)
    if isinstance(base, SymmetricPower):
        return base.x_star, base.k - 1.0, base.k - 1.0, eps
    if isinstance(base, AsymmetricPower):
        return base.x_star, base.k_l - 1.0, base.k_r - 1.0, eps
    return None


def power_slope(u, e_l: float, e_r: float, out=None):
    """The slope of a power spec at the shift u = x - x_star, the one power
    formula (see the module docstring), written into ``out`` when it is
    given; ``out`` may be u.  A zero's sign is left for ``+ 0.0``."""
    if e_l != e_r:
        right = _power(np.maximum(u, 0.0), e_r)
        return np.subtract(right, _power(-np.minimum(u, 0.0), e_l), out=out)
    if e_l == 1.0:
        return np.positive(u, out=out)
    if e_l == 2.0:
        return np.multiply(u, np.abs(u), out=out)
    return np.copysign(_power(np.abs(u), e_l), u, out=out)


def subdiff_interval(spec: FunctionSpec, x, x_star=None):
    """Subdifferential [lo, hi] of the defining formula at ``x`` (array-safe)."""
    if isinstance(spec, Tilt):
        lo, hi = subdiff_interval(spec.base, x, x_star)
        if lo is hi:  # keep a point interval a point, for subgrad_spec
            v = lo + spec.eps
            return v, v
        return lo + spec.eps, hi + spec.eps
    if isinstance(spec, PiecewiseLinear):
        if x_star is not None:
            raise ValueError("PiecewiseLinear has no x_star parameter")
        bp = np.asarray(spec.breakpoints)
        sl = np.asarray(spec.slopes)
        xa = np.asarray(x)
        idx = np.searchsorted(bp, xa, side="left")
        safe = np.clip(idx, 0, len(bp) - 1)
        at_bp = (idx < len(bp)) & (bp[safe] == xa)
        lo = sl[idx]
        hi = sl[idx + at_bp.astype(int)]
        return lo, hi
    if not isinstance(spec, (SymmetricPower, AsymmetricPower, Absolute)):
        raise TypeError(f"unknown spec type {type(spec)!r}")
    u = np.asarray(x) - (spec.x_star if x_star is None else x_star)
    if isinstance(spec, Absolute):
        return np.where(u > 0, 1.0, -1.0), np.where(u < 0, -1.0, 1.0)
    _, e_l, e_r, _ = power_terms(spec)
    v = power_slope(u, e_l, e_r)
    return v, v


def subgrad_spec(spec: FunctionSpec, x, x_star=None, out=None):
    """Min-norm subgradient of the formula (no domain check; array-safe): the
    element of the subdifferential [lo, hi] closest to zero, written into
    ``out`` when it is given.

    A point interval (``lo is hi``, as power specs and their tilts return)
    is its own element; ``+ 0.0`` maps -0.0 to 0.0.
    """
    lo, hi = subdiff_interval(spec, x, x_star)
    if lo is not hi:
        lo = np.where(lo > 0, lo, np.where(hi < 0, hi, 0.0))
    return np.add(lo, 0.0, out=out)


def _like(arg, value):
    """``value`` as a Python float when ``arg`` is a scalar."""
    return float(value) if np.ndim(arg) == 0 else value


def _root(s, k: float):
    """|s|^(1/(k-1)) by ``_power`` (array-safe), inf past the float range."""
    with np.errstate(over="ignore"):
        return _power(np.abs(s), 1.0 / (k - 1.0))


def _level_set(spec: FunctionSpec, s):
    """``clamped_level_set`` on the whole line, as (lo, hi) arrays."""
    if isinstance(spec, SymmetricPower):
        p = spec.x_star + np.sign(s) * _root(s, spec.k)
        return p, p
    if isinstance(spec, AsymmetricPower):
        p = np.where(s < 0, spec.x_star - _root(s, spec.k_l),
                     np.where(s > 0, spec.x_star + _root(s, spec.k_r), spec.x_star))
        return p, p
    if isinstance(spec, Absolute):  # slopes -1 and 1 with a kink at x_star
        bp, sl = (spec.x_star,), (-1.0, 1.0)
    elif isinstance(spec, PiecewiseLinear):
        bp, sl = spec.breakpoints, spec.slopes
    elif isinstance(spec, Tilt):
        return _level_set(spec.base, s - spec.eps)
    else:
        raise TypeError(f"unknown spec type {type(spec)!r}")
    # s is attained on segments first..last (first = last + 1 when s falls
    # strictly between adjacent slopes, at the breakpoint between them);
    # segment i runs from ends[i] to ends[i + 1]
    ends = np.array([-np.inf, *bp, np.inf])
    first = np.searchsorted(sl, s, side="left")
    last = np.searchsorted(sl, s, side="right") - 1
    return ends[first], ends[last + 1]


def clamped_level_set(spec: FunctionSpec, s, domain: tuple[float, float]):
    """{x in domain : s in subdifferential(x)} as (lo, hi), the one level-set
    primitive; flat sets and minimizer intervals read it.

    On the domain (-inf, inf) an end may be +/-inf (an eventually affine spec,
    or past the float range), and an empty set is (-inf, -inf) below every
    slope of the spec, (inf, inf) above them.  Clamping collapses a set wholly
    outside the domain, or empty, onto the end where the subgradient comes
    nearest to s.  An array ``s`` gives (lo, hi) arrays equal to the scalar
    calls, which return Python floats.  The domain needs a < b."""
    a, b = _check_ordered(domain)
    lo, hi = _level_set(spec, np.asarray(s, dtype=float))
    return _like(s, np.clip(lo, a, b)), _like(s, np.clip(hi, a, b))


def minimizer_interval(spec: FunctionSpec, domain: tuple[float, float], x_star=None):
    """Argmin of the spec over the domain, as a closed interval.

    ``x_star`` optionally moves the spec's minimizer to each entry of an
    array, giving the intervals of a whole family of shifted copies at once
    as (lo, hi) arrays: a shifted copy's slope-0 level set is the template's
    level set at x_star = 0, shifted, then clamped the same way.
    """
    if x_star is None:
        return clamped_level_set(spec, 0.0, domain)
    a, b = _check_ordered(domain)
    lo, hi = _level_set(with_x_star(spec, 0.0), 0.0)
    return np.clip(x_star + lo, a, b), np.clip(x_star + hi, a, b)


def with_x_star(spec: FunctionSpec, v: float) -> FunctionSpec:
    """Copy of ``spec`` with its minimizer location moved to ``v``."""
    if isinstance(spec, Tilt):
        return Tilt(with_x_star(spec.base, v), spec.eps)
    if isinstance(spec, PiecewiseLinear):
        raise ValueError(f"{type(spec).__name__} has no x_star parameter")
    return replace(spec, x_star=v)


def _fmt(v: float) -> str:
    return repr(float(v))


def spec_id(spec: FunctionSpec) -> str:
    """Stable human-readable identifier used in CSV output."""
    if isinstance(spec, SymmetricPower):
        return f"sym-power(k={_fmt(spec.k)};x*={_fmt(spec.x_star)})"
    if isinstance(spec, AsymmetricPower):
        return (
            f"asym-power(kl={_fmt(spec.k_l)};kr={_fmt(spec.k_r)};"
            f"x*={_fmt(spec.x_star)})"
        )
    if isinstance(spec, Absolute):
        return f"absolute(x*={_fmt(spec.x_star)})"
    if isinstance(spec, PiecewiseLinear):
        bp = " ".join(_fmt(b) for b in spec.breakpoints)
        sl = " ".join(_fmt(s) for s in spec.slopes)
        return f"piecewise-linear(bp=[{bp}];slopes=[{sl}])"
    if isinstance(spec, Tilt):
        return f"tilt({spec_id(spec.base)};eps={_fmt(spec.eps)})"
    raise TypeError(f"unknown spec type {type(spec)!r}")


# ---------------------------------------------------------------------------
# built function object
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvexFunction1D:
    """A catalog spec bound to a compact domain.

    Immutable and safe to share across threads.  Queries outside the domain
    raise DomainError rather than clamping, so harness bugs surface loudly.
    """

    spec: FunctionSpec
    domain: tuple[float, float]
    minimizer_set: tuple[float, float]

    def subgrad(self, x: float) -> float:
        """Min-norm subgradient; deterministic by construction."""
        a, b = self.domain
        if not (a <= x <= b):
            raise DomainError(f"x={x} outside domain [{a}, {b}]")
        return float(subgrad_spec(self.spec, x))


def build_function(spec: FunctionSpec, domain: tuple[float, float]) -> ConvexFunction1D:
    a, b = check_domain(domain)
    ml, mr = minimizer_interval(spec, (a, b))
    return ConvexFunction1D(spec=spec, domain=(a, b), minimizer_set=(float(ml), float(mr)))


# ---------------------------------------------------------------------------
# distance between intervals
# ---------------------------------------------------------------------------


def distance(p, q):
    """Distance between the closed intervals p = (lo, hi) and q (array-safe);
    a point x is the interval (x, x).  ``+ 0.0`` maps -0.0 to 0.0."""
    return np.maximum(0.0, np.maximum(q[0] - p[1], p[0] - q[1])) + 0.0

