"""Budgeted, seeded Gaussian first-order oracle.

An oracle answers queries at points x with ``f'(x) + sigma * z`` where f'
is the function's min-norm subgradient and z is a standard normal draw from
a private stream.  The budget is enforced here, not trusted to the
algorithms, so query accounting in experiments is trustworthy.

There is one oracle, ``OracleBatch``: R independent replicates advanced in
lockstep, replicate r answering from its own stream seeded by a pure
function of (master_seed, replicate index) via ``numpy.random.SeedSequence``
spawn keys, whose words ``replicate_seeds`` computes for a whole cell at
once.  Sigma, budget, domain and NaN checks and noise draws live there only;
a single run is the one-replicate batch.  Step noise (``begin_steps``) comes
in chunks of at most ``STEP_CHUNK`` steps and ``CHUNK_VALUES`` values, n-query
block noise in tiles of at most max(``CHUNK_VALUES``, n) values, so noise
memory is bounded whatever the budget and replicates; sigma scales each chunk
or tile once as it is drawn.  Rows of at least ``THREAD_MIN_ROW`` queries are
read on one thread per usable core, each filling its own slice of the buffer
(numpy drops the GIL as it draws); results do not depend on the thread count.
On two cores, two threads drew rows of 262 values at 0.6x the speed of one, of
769 at 1.5x and of 2,048 at 1.7x.
"""
from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from functools import cache, partial
from typing import TYPE_CHECKING

import numpy as np

from .errors import BudgetError, DomainError
from .functions import FunctionSpec, subgrad_spec

if TYPE_CHECKING:
    from numpy.random.bit_generator import ISeedSequence

__all__ = ["OracleBatch", "replicate_seed", "replicate_seeds", "STEP_CHUNK",
           "CHUNK_VALUES", "THREAD_MIN_ROW", "usable_cores"]

# steps of noise that OracleBatch draws at once for begin_steps, and the most
# noise values (steps * replicates) one such chunk may hold
STEP_CHUNK = 1024
CHUNK_VALUES = 2**19

# replicates whose chunk rows are transposed together into step-major order
_TILE = 64
# the shortest block row that query_block_all draws on several threads
THREAD_MIN_ROW = 1024


def usable_cores() -> int:
    """The cores this process may run on: its CPU affinity, else the count."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def replicate_seed(master_seed: int, *indices: int) -> np.random.SeedSequence:
    """Deterministic per-replicate seed, a pure function of its arguments."""
    return np.random.SeedSequence(master_seed, spawn_key=tuple(indices))


# numpy's SeedSequence hash constants, kept stable by NEP 19
_INIT_A, _MULT_A, _MIX_L = 0x43B0D7E5, 0x931E8875, 0xCA01F9DD
_INIT_B, _MULT_B, _MIX_R = 0x8B51F9DD, 0x58F38DED, 0x4973F715


@cache
def _replicate_seed_type():
    """The ISeedSequence that hands PCG64 one replicate's precomputed words,
    defined on first use: importing this module leaves numpy.random unloaded."""
    from numpy.random.bit_generator import ISeedSequence

    class ReplicateSeed(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("a replicate seed holds only "
                                 "generate_state(4, np.uint64)")
            return self.words

    return ReplicateSeed


def replicate_seeds(master_seed: int, key: tuple[int, ...], replicates: int,
                    stream: int) -> list[ISeedSequence]:
    """The seeds ``SeedSequence(master_seed, spawn_key=(*key, r, stream))``
    for r < replicates, as the words PCG64 reads, hashed for every r at once
    by numpy's entropy assembly and hash in vectorized uint32 arithmetic."""
    if min(master_seed, *key, stream) < 0:
        raise ValueError("seed entropy must be non-negative")
    run, *spawn = [[n >> b & 0xFFFFFFFF for b in range(0, max(n.bit_length(), 1), 32)]
                   for n in map(operator.index, (master_seed, *key))]  # low word first
    r = np.arange(replicates, dtype=np.uint32)
    fixed = run + [0] * (4 - len(run)) + sum(spawn, [])  # run padded to the pool
    entropy = [np.full_like(r, w) for w in fixed] + [r, np.full_like(r, stream)]
    h = _INIT_A  # the hash constant steps alike for every r

    def hashmix(v, mult=_MULT_A):
        nonlocal h
        v = v ^ h
        h = h * mult & 0xFFFFFFFF
        v = v * h
        return v ^ v >> 16

    pool = [hashmix(w) for w in entropy[:4]]
    # mix each pool word into the others, then each word beyond the pool
    for src in range(len(entropy)):
        for dst in range(4):
            if src != dst:
                y = hashmix(pool[src] if src < 4 else entropy[src])
                v = pool[dst] * _MIX_L - y * _MIX_R
                pool[dst] = v ^ v >> 16
    h = _INIT_B  # generate_state: 8 uint32 words read cyclically from the pool
    state = np.array([hashmix(pool[i % 4], _MULT_B) for i in range(8)])
    words = np.ascontiguousarray(state.T, "<u4").view("<u8").astype(np.uint64)
    words.flags.writeable = False
    return list(map(_replicate_seed_type(), words))


class OracleBatch:
    """Many independent oracles advanced in lockstep.

    Replicate r answers from its own stream seeded by ``seeds[r]``, as if it
    were queried alone, so the same seeds and query points replay bit for
    bit.  The budget applies per replicate (all replicates consume together).
    """

    def __init__(
        self,
        spec: FunctionSpec,
        x_star: np.ndarray | None,
        domain: tuple[float, float],
        sigma: float,
        budget: int,
        seeds: list[ISeedSequence],
    ):
        self.spec = spec
        self.x_star = None if x_star is None else np.asarray(x_star, dtype=float)
        a, b = self.domain = (float(domain[0]), float(domain[1]))
        if not -math.inf < a < b < math.inf:
            raise ValueError(f"domain must be finite with a < b, got [{a}, {b}]")
        self.sigma = float(sigma)
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
        if not (budget >= 1 and budget % 1 == 0):  # false on NaN, inf and 2.5
            raise ValueError(f"budget must be an integer >= 1, got {budget}")
        self.budget = int(budget)
        self.queries_used = 0
        self._gens = [np.random.Generator(np.random.PCG64(s)) for s in seeds]
        self.n_replicates = len(seeds)
        self._subgrad = partial(subgrad_spec, spec, x_star=self.x_star)
        self._steps = np.empty((0, self.n_replicates))  # drawn step noise, (chunk, R)
        self._step_pos = 0  # next unread row of _steps
        self._steps_ahead = 0  # reserved steps whose noise is not drawn yet
        self._block = np.empty(0)  # block readings of one tile, reused

    def _take(self, n: int):
        if n < 1:
            raise ValueError(f"need at least one query, got {n}")
        if self.queries_used + n > self.budget:
            raise BudgetError(
                f"budget exhausted: {self.queries_used} used of {self.budget}, "
                f"{n} more requested"
            )

    def _check_domain(self, x: np.ndarray):
        if x.shape != (self.n_replicates,):  # one point per replicate
            raise ValueError(f"x needs shape ({self.n_replicates},), got {x.shape}")
        a, b = self.domain
        if not (x.min() >= a and x.max() <= b):  # also false on NaN
            bad = x[~((x >= a) & (x <= b))][0]
            raise DomainError(f"x={bad} outside domain [{a}, {b}]")

    def _noise_rows(self, z: np.ndarray, first: int) -> np.ndarray:
        """Draw replicate first + j's next noise into row j of z; returns them."""
        gens = self._gens[first:first + len(z)]
        for row, g in zip(z, gens):
            g.standard_normal(out=row)
        return z[:len(gens)]

    def _step_chunk(self, n: int) -> np.ndarray:
        """Next n step noises per replicate, step-major: row j is step j's."""
        z = np.empty((n, self.n_replicates))
        for i in range(0, self.n_replicates, _TILE):
            rows = np.empty((min(_TILE, self.n_replicates - i), n))
            z[:, i:i + _TILE] = self._noise_rows(rows, i).T
        return z

    def query_block_all(self, x: np.ndarray, n: int) -> np.ndarray:
        """n queries at per-replicate points x (shape (R,)); returns the means.

        Checks and charges the n queries before any draw, then draws the
        readings in tiles of at most max(CHUNK_VALUES, n) values, one reused
        buffer, and averages each tile's rows into the result.  From n =
        THREAD_MIN_ROW on, one thread per usable core reads a share of them.
        """
        self._take(n)
        x = np.asarray(x, dtype=float)
        self._check_domain(x)
        g = self._subgrad(x)
        self.queries_used += n
        tile = min(max(CHUNK_VALUES // n, 1), self.n_replicates)
        if self._block.size < tile * n:
            self._block = np.empty(tile * n)
        means = np.empty(self.n_replicates)
        threads = min(usable_cores(), tile) if n >= THREAD_MIN_ROW else 1
        tiles = self._block[:tile // threads * threads * n].reshape(threads, -1, n)
        ends = [self.n_replicates * k // threads for k in range(threads + 1)]
        shares = [partial(self._read_share, *share, g, means)
                  for share in zip(tiles, ends, ends[1:])]
        if threads == 1:
            shares[0]()
        else:
            with ThreadPoolExecutor(threads - 1) as pool:
                futures = [pool.submit(share) for share in shares[1:]]
                shares[0]()
                for f in futures:
                    f.result()  # re-raises a thread's failure
        return means

    def _read_share(self, tile, lo, hi, g, means):
        """Mean readings of replicates lo..hi-1 into means, a tile at a time."""
        for i in range(lo, hi, len(tile)):
            z = self._noise_rows(tile[:hi - i], i)
            z *= self.sigma
            z += g[i:i + len(z), None]
            z.mean(axis=1, out=means[i:i + len(z)])

    def begin_steps(self, n: int):
        """Reserve the next n single-point queries per replicate.

        Their noise is drawn ahead as ``query_all`` consumes it, in chunks of
        at most STEP_CHUNK steps and CHUNK_VALUES values, so memory is
        O(min(R * STEP_CHUNK, CHUNK_VALUES)), not O(R * n).
        """
        self._take(n)  # reserve-check only; queries still counted one by one
        self._steps = np.empty((0, self.n_replicates))
        self._step_pos = 0
        self._steps_ahead = n

    def query_all(self, x: np.ndarray) -> np.ndarray:
        """One query per replicate at points x (shape (R,)); returns (R,).

        The result is the caller's own array, free to update in place.
        """
        self._take(1)
        x = np.asarray(x, dtype=float)
        self._check_domain(x)
        g = self._subgrad(x)
        if self._step_pos == len(self._steps):
            # a query beyond the reserved steps draws for itself alone
            cap = max(min(STEP_CHUNK, CHUNK_VALUES // self.n_replicates), 1)
            n = min(max(self._steps_ahead, 1), cap)
            self._steps = self._step_chunk(n)
            self._steps *= self.sigma
            self._step_pos = 0
            self._steps_ahead = max(self._steps_ahead - n, 0)
        z = self._steps[self._step_pos]
        self._step_pos += 1
        self.queries_used += 1
        z += g
        return z
