"""Plain scalar loops that the batched code is checked against.

Independent of ``convexbench.oracle`` and of ``convexbench.algorithms``: the
oracle is ``f.subgrad(x) + sigma * z`` with z from its own generator, and
each algorithm is a loop over Python floats.  A batched replicate with the
same seed and the same start must reproduce these values bit for bit.
"""
import math

import numpy as np

from convexbench import epochs_schedule


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
