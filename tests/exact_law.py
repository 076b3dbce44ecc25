"""Exact risk references that Monte-Carlo risk rows are checked against.

SGD on the quadratic sym-k2 (f'(x) = x - x*, scale 1).  With 1/t steps the
first step lands on x* - sigma z_1 whatever the start, and the error after T
steps is -(sigma/T) sum z_t: N(0, sigma^2/T) for every x* and every start.
With 1/sqrt(t) steps the error after T steps is N(0, sigma^2 v), with v = 0
before the first step and v <- (1 - 1/sqrt(t))^2 v + 1/t for t = 1..T.  The
risk is the mean of a half-normal, sd sqrt(2/pi).  Projection onto (-2, 2)
acts only when an error passes 1 = 10 sigma, below 1e-18 per run at
sigma = 0.1.

The binary search at one fixed minimizer.  A round's mean reading at its
midpoint x is exactly N(f'(x), sigma^2/T0), since all T0 readings are at one
point, so the round keeps the left half with probability
Phi(f'(x) sqrt(T0)/sigma) and moves right with probability
Phi(-f'(x) sqrt(T0)/sigma), each from its own tail.  The law is carried as
arrays of (left end, probability); the two children of a left end a are a
and a + w/2, formed as ``run_binary_search`` forms them, so the query points
are the search's own floats.  The children of distinct parents never
coincide, so no merge is needed; states of probability below ``prune`` are
dropped and their mass reported.
"""
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from convexbench import epochs_schedule
from convexbench.functions import distance, minimizer_interval, subgrad_spec

# the mean and sd of |Z| for a standard normal Z
HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)
HALF_NORMAL_SD = math.sqrt(1.0 - 2.0 / math.pi)


@dataclass(frozen=True)
class ExactRisk:
    """The law of one run's error: its mean (the risk), its standard
    deviation, and the probability mass left out of both."""

    mean: float
    sd: float
    pruned: float = 0.0

    def z(self, mean_err: float, replicates: int) -> float:
        """The z-score of a Monte-Carlo mean of ``replicates`` errors."""
        return (mean_err - self.mean) / (self.sd / math.sqrt(replicates))


def sgd_quadratic_risk(schedule: str, T: int, sigma: float) -> ExactRisk:
    """SGD's exact risk after T steps on sym-k2 with scale 1, the last iterate."""
    if schedule == "1/t":
        v = 1.0 / T
    else:
        v = 0.0
        for t in range(1, T + 1):
            v = (1.0 - 1.0 / math.sqrt(t)) ** 2 * v + 1.0 / t
    sd = sigma * math.sqrt(v)
    return ExactRisk(sd * HALF_NORMAL_MEAN, sd * HALF_NORMAL_SD)


def binary_search_law(spec, r: float, T: int, sigma: float,
                      interval: tuple[float, float], prune: float = 1e-16):
    """The law of the binary search's output at the fixed spec: (final
    midpoints, their probabilities, the mass pruned)."""
    a0, b0 = float(interval[0]), float(interval[1])
    E, T0 = epochs_schedule(T, r)
    scale = math.sqrt(T0) / sigma
    a, p = np.array([a0]), np.array([1.0])
    width, pruned = b0 - a0, 0.0
    for _ in range(E):
        x = a + 0.5 * width
        s = subgrad_spec(spec, x) * scale
        width = width * 0.5
        a = np.concatenate([a, x])  # keep the left half, or move to x
        p = np.concatenate([p * ndtr(s), p * ndtr(-s)])
        keep = p >= prune
        pruned += float(p[~keep].sum())
        a, p = a[keep], p[keep]
    return a + 0.5 * width, p, pruned


def binary_search_risk(spec, r: float, T: int, sigma: float,
                       interval: tuple[float, float]) -> ExactRisk:
    """The binary search's exact risk at the fixed spec: the mean distance of
    its output to the minimizer set on the interval."""
    points, p, pruned = binary_search_law(spec, r, T, sigma, interval)
    d = distance((points, points), minimizer_interval(spec, interval))
    mean = float(p @ d)
    return ExactRisk(mean, math.sqrt(max(float(p @ d**2) - mean**2, 0.0)), pruned)
