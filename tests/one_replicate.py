"""A single oracle run: the ``OracleBatch`` of one replicate.

The R = 1 adapters (``sign_test_binary_search``, ``sgd``) and the oracle
tests that follow one stream use this batch, seeded by
``SeedSequence(seed)``.
"""
import numpy as np

from convexbench import OracleBatch


def one_replicate(f, sigma, budget, seed):
    """One replicate of the function ``f`` over its domain."""
    return OracleBatch(f.spec, None, f.domain, sigma, budget,
                       [np.random.SeedSequence(seed)])


def query(batch, x):
    """One noisy reading at the float ``x``; counts one query."""
    return float(batch.query_all(np.array([x]))[0])
