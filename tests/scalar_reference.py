"""Plain scalar loops that the batched code is checked against.

Independent of ``convexbench.oracle`` and of ``convexbench.algorithms``: the
oracle is ``f.subgrad(x) + sigma * z`` with z from its own generator, and
each algorithm is a loop over Python floats.  A batched replicate with the
same seed and the same start must reproduce these values bit for bit.

The flat-set bisection is here too, one threshold at a time on
``f.subgrad``: the lockstep array bisection of ``convexbench.modulus`` must
reproduce it bit for bit.

Function values and kinks, which the package itself never needs, are here
as references for the convexity and bisection tests.
"""
import math

import numpy as np

from convexbench import (
    Absolute,
    AsymmetricPower,
    PiecewiseLinear,
    SlopeRangeError,
    SymmetricPower,
    Tilt,
    epochs_schedule,
)
from convexbench.functions import distance
from convexbench.modulus import _BISECTION_TOL


def eval_spec(spec, x):
    """Function value; ``x`` may be a float or ndarray."""
    if isinstance(spec, SymmetricPower):
        u = np.asarray(x) - spec.x_star
        return np.power(np.abs(u), spec.k) / spec.k
    if isinstance(spec, AsymmetricPower):
        u = np.asarray(x) - spec.x_star
        au = np.abs(u)
        return np.where(u < 0, np.power(au, spec.k_l) / spec.k_l,
                        np.power(au, spec.k_r) / spec.k_r)
    if isinstance(spec, Absolute):
        return np.abs(np.asarray(x) - spec.x_star)
    if isinstance(spec, PiecewiseLinear):
        bp = np.asarray(spec.breakpoints)
        sl = np.asarray(spec.slopes)
        knot_vals = np.concatenate([[0.0], np.cumsum(sl[1:-1] * np.diff(bp))])
        xa = np.asarray(x)
        idx = np.searchsorted(bp, xa, side="right")  # segment index of x
        left_knot = bp[np.clip(idx - 1, 0, len(bp) - 1)]
        base_val = knot_vals[np.clip(idx - 1, 0, len(bp) - 1)]
        return base_val + sl[idx] * (xa - left_knot)
    if isinstance(spec, Tilt):
        return eval_spec(spec.base, x) + spec.eps * np.asarray(x)
    raise TypeError(f"unknown spec type {type(spec)!r}")


def kinks_of(spec):
    """Points where the spec is not differentiable."""
    if isinstance(spec, Absolute):
        return (spec.x_star,)
    if isinstance(spec, PiecewiseLinear):
        return tuple(
            b
            for b, s1, s2 in zip(spec.breakpoints, spec.slopes, spec.slopes[1:])
            if s1 != s2
        )
    if isinstance(spec, Tilt):
        return kinks_of(spec.base)
    return ()


class ReferenceOracle:
    """One function, one noise stream: ``f.subgrad(x) + sigma * z``."""

    def __init__(self, f, sigma, seed):
        self.f = f
        self.sigma = sigma
        self.rng = np.random.Generator(np.random.PCG64(seed))

    def query(self, x):
        return self.f.subgrad(x) + self.sigma * self.rng.standard_normal()

    def query_block(self, x, n):
        return self.f.subgrad(x) + self.sigma * self.rng.standard_normal(n)


def binary_search(oracle, T, r, interval):
    """Midpoint of the final interval after floor(r ln T) sign-test rounds."""
    E, T0 = epochs_schedule(T, r)
    a, b0 = interval
    width = b0 - a
    for _ in range(E):
        x = a + 0.5 * width
        z_bar = float(np.mean(oracle.query_block(x, T0)))
        width = width * 0.5
        if not z_bar > 0:
            a = x
    return a + 0.5 * width


def sgd(oracle, T, schedule, scale, iterate, x0, interval):
    """Projected SGD from x0; last iterate or average of the query points."""
    lo, hi = interval
    x = min(max(x0, lo), hi)
    total = 0.0
    for t in range(1, T + 1):
        v = oracle.query(x)
        total += x
        eta = scale / t if schedule == "1/t" else scale / math.sqrt(t)
        x = min(max(x - eta * v, lo), hi)
    return total / T if iterate == "average" else x


def bisect_left_true(pred, lo, hi):
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


def bisect_right_true(pred, lo, hi):
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


def conjugate_subdifferential(f, s):
    """{x in domain : s in subdifferential f(x)} by two scalar bisections."""
    a, b = f.domain
    slope_lo, slope_hi = f.slope_range()
    if s < slope_lo or s > slope_hi:
        raise SlopeRangeError(f"slope {s} outside attained range")
    g = f.subgrad
    # left endpoint: leftmost x with f'(x) >= s (kinks make f' jump past s)
    if g(b) < s:
        left = b
    else:
        left = bisect_left_true(lambda x: g(x) >= s, a, b)
    # right endpoint: rightmost x with f'(x) <= s
    if g(a) > s:
        right = a
    else:
        right = bisect_right_true(lambda x: g(x) <= s, a, b)
    if left > right:  # singleton located from both sides, within the tolerance
        left = right = 0.5 * (left + right)
    return (left, right)


def flat_set(f, epsilon):
    """Closure of {y in domain : |f'(y)| < epsilon}, one threshold at a time."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    a, b = f.domain
    slope_lo, slope_hi = f.slope_range()

    def end(s, side):
        if s < slope_lo:
            return a
        if s > slope_hi:
            return b
        return conjugate_subdifferential(f, s)[side]

    left, right = end(-epsilon, 1), end(epsilon, 0)
    if left > right:  # degenerate flat set (a single kink), within the tolerance
        left = right = 0.5 * (left + right)
    return (left, right)


def modulus_numeric(f, epsilon):
    """Larger distance from the minimizer set of the two flat-set ends."""
    lo, hi = flat_set(f, epsilon)
    return float(max(distance((lo, lo), f.minimizer_set),
                     distance((hi, hi), f.minimizer_set)))
