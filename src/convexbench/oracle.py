"""Budgeted, seeded Gaussian first-order oracle.

An oracle answers queries at points x with ``f'(x) + sigma * z`` where f' is
the function's min-norm subgradient and z is a standard normal draw from a
private stream.  The budget is enforced here, not trusted to the algorithms,
so query accounting in experiments is trustworthy.  Input rules have one
owner each: ``check_replicates``, ``check_sigma``, ``check_budget``,
``functions.check_domain``.

There is one oracle, ``OracleBatch``: R independent replicates advanced in
lockstep, replicate r answering from its own stream seeded by a pure function
of (master_seed, replicate index) via ``numpy.random.SeedSequence`` spawn
keys, whose words ``replicate_seeds`` computes for a whole cell at once.
Noise draws and the checks of query points live there only; a single run is
the one-replicate batch.  A batch may also carry a functions axis: given a
tuple of P specs it takes points of shape (P, R), and replicate r's one noise
draw per query serves all P functions, function p adding its own f' at its own
point (common random numbers: each function reads exactly what it would read
in a batch of its own).  The P subgradients are one pass over the functions
axis: the shifts x - x_star of all rows at once, one ``functions.power_slope``
call per power row, ``subgrad_spec`` per row of another kind, and one add of
the tilts and ``+ 0.0``, bit for bit ``subgrad_spec`` row by row.  Step noise
comes in chunks of at most ``CHUNK_VALUES`` values (2^18, 2 MiB), whatever R:
each replicate's next steps, drawn straight into its own row by one
``standard_normal`` call (0.66 us plus 13.4 ns a value), so ``query_all``
reads a column.  Steps reserved by ``begin_steps`` must all be read before the
batch draws anything else: a block read or another reservation before then is
a ValueError, so no reading depends on the chunk size.  n-query block noise
comes in tiles, one per reading thread, each of at most max(``TILE_VALUES``,
n) values, or max(``TILE_VALUES``, 2n) when P > 1, which holds the noise and
the readings of one function; so noise memory is bounded whatever the budget,
replicates and functions, and block reads hold at most threads *
max(``TILE_VALUES``, 2n) values.  Sigma scales each chunk or tile once as it
is drawn.  Rows of at least ``THREAD_MIN_ROW`` queries are read on one thread
per usable core (no more threads than replicates), each filling its own tile
(numpy drops the GIL as it draws); results do not depend on the thread count
or the tile size.  On two cores, two threads drew rows of 262 values at 0.6x
the speed of one, of 769 at 1.5x and of 2,048 at 1.7x.
"""
from __future__ import annotations

import math
import operator
import os
from functools import cache, partial
from typing import TYPE_CHECKING

import numpy as np

from .errors import BudgetError, DomainError, FieldError
from .functions import FunctionSpec, check_domain, power_slope, power_terms, subgrad_spec

if TYPE_CHECKING:
    from numpy.random.bit_generator import ISeedSequence

__all__ = ["OracleBatch", "replicate_seed", "replicate_seeds", "check_budget",
           "check_replicates", "check_sigma", "CHUNK_VALUES", "TILE_VALUES",
           "THREAD_MIN_ROW", "usable_cores"]

# the most step-noise values (steps * replicates) one chunk of begin_steps
# holds: 2 MiB, so fig2's 2,000 SGD replicates draw rows of 131 steps.  Each
# standard_normal call costs 0.66 us plus 13.4 ns a value, so against 2^19
# (rows of 262 steps, 4 MiB) the half chunk adds about 0.09 s over fig2's 37 M
# step draws, which the one-pass power kernel of _subgrads more than repays
# (2-core x86_64 host)
CHUNK_VALUES = 2**18
# the most values one thread's block tile holds (its noise and, when P > 1,
# one function's readings) unless one row is longer: 512 KiB, well inside a
# core's 2 MiB L2.  Against one 4 MiB tile of 2^19 values shared by the
# threads, bisect-deep's rows drew no slower at 2^15, 2^16 or 2^17 (2-core
# x86_64 host).  Step chunks keep CHUNK_VALUES: at fig2's 2,000 SGD
# replicates, 2^16 values make rows of 32 steps, drawn at 34 ns a value
# against 16 ns at 262 steps
TILE_VALUES = 2**16

# the shortest block row that query_block_all draws on several threads.  At
# 512, bisect-deep's 769-query rows ran 3.5% faster (4.77 -> 4.61 s, median of
# 6 alternating pairs on a 2-core host), inside its run-to-run spread, while
# fig2-allcores read 2.69, 2.48 and 2.10 s against 2.42, 2.16 and 2.14 s: its
# pool workers, one per core, would each start threads too
THREAD_MIN_ROW = 1024


def usable_cores() -> int:
    """The cores this process may run on: its CPU affinity, else the count."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def check_sigma(sigma: float) -> float:
    """The noise level as a float; FieldError unless finite and >= 0."""
    if not (math.isfinite(sigma) and sigma >= 0):
        raise FieldError("sigma", f"sigma must be finite and >= 0, got {sigma}")
    return float(sigma)


def check_replicates(replicates: int) -> int:
    """The replicate count; FieldError unless it is at least 1."""
    if replicates < 1:
        raise FieldError("replicates", f"replicates must be >= 1, got {replicates}")
    return replicates


def check_budget(budget) -> int:
    """A query budget as an int; FieldError unless an integer >= 1."""
    if not (budget >= 1 and budget % 1 == 0):  # false on NaN, inf and 2.5
        raise FieldError("T_grid", f"budget must be an integer >= 1, got {budget}")
    return int(budget)


def replicate_seed(master_seed: int, *indices: int) -> np.random.SeedSequence:
    """Deterministic per-replicate seed, a pure function of its arguments."""
    return np.random.SeedSequence(master_seed, spawn_key=tuple(indices))


# numpy's SeedSequence hash constants, kept stable by NEP 19
_INIT_A, _MULT_A, _MIX_L = 0x43B0D7E5, 0x931E8875, 0xCA01F9DD
_INIT_B, _MULT_B, _MIX_R = 0x8B51F9DD, 0x58F38DED, 0x4973F715


@cache
def _replicate_seed_type():
    """The ISeedSequence that hands PCG64 one replicate's precomputed words,
    defined on first use: importing this module leaves numpy.random unloaded.
    It is registered, not derived: ISeedSequence has no __slots__, so a
    subclass would carry a __dict__ per replicate."""
    from numpy.random.bit_generator import ISeedSequence

    class ReplicateSeed:
        __slots__ = ("words", "row")

        def __init__(self, words: np.ndarray, row: int):
            self.words, self.row = words, row

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("a replicate seed holds only "
                                 "generate_state(4, np.uint64)")
            return self.words[self.row]

    ISeedSequence.register(ReplicateSeed)
    return ReplicateSeed


def replicate_seeds(master_seed: int, key: tuple[int, ...], replicates: int,
                    stream: int) -> list[ISeedSequence]:
    """The seeds ``SeedSequence(master_seed, spawn_key=(*key, r, stream))``
    for r < replicates, as the words PCG64 reads, hashed for every r at once
    by numpy's entropy assembly and hash in vectorized uint32 arithmetic.
    Seed r is a two-slot object, (the cell's read-only (R, 4) words, r), which
    hands PCG64 row r: a generator keeps its seed, so a replicate's seed is
    part of what its stream holds for the whole run."""
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
    return list(map(partial(_replicate_seed_type(), words), range(replicates)))


def _plan(specs: tuple[FunctionSpec, ...]):
    """What ``_subgrads`` reads of the specs: a (P, 1) column of their fixed
    minimizers and one of eps + 0.0 per power spec or its tilt (0.0 in any
    other row), the power rows (p, e_l, e_r) and the other rows (p, spec)."""
    x_col, tilt = np.zeros((len(specs), 1)), np.zeros((len(specs), 1))
    powers, others = [], []
    for p, spec in enumerate(specs):
        terms = power_terms(spec)
        if terms is None:
            others.append((p, spec))
        else:
            x_star, e_l, e_r, eps = terms
            x_col[p], tilt[p] = x_star, eps + 0.0
            powers.append((p, e_l, e_r))
    return x_col, tilt, powers, others


def _subgrads(plan, x_star: np.ndarray | None, x: np.ndarray) -> np.ndarray:
    """Row p: spec p's min-norm subgradient at row p of x, its minimizer moved
    to row p of x_star when x_star is given, in one new (P, R) array.

    The shifts u = x - x_star of every row are formed at once, from x_star or
    the plan's column of fixed minimizers; each power row's slope is written
    over its shifts, each other row by ``subgrad_spec``.  One add of the tilt
    column then tilts the power rows and maps their -0.0 to 0.0, as
    ``subgrad_spec``'s ``+ 0.0`` does: (v + eps) + 0.0 = v + (eps + 0.0).
    """
    x_col, tilt, powers, others = plan
    g = np.subtract(x, x_col if x_star is None else x_star)
    for p, e_l, e_r in powers:
        power_slope(g[p], e_l, e_r, out=g[p])
    for p, spec in others:
        subgrad_spec(spec, x[p], None if x_star is None else x_star[p], out=g[p])
    g += tilt
    return g


class OracleBatch:
    """Many independent oracles advanced in lockstep.

    Replicate r answers from its own stream seeded by ``seeds[r]``, as if it
    were queried alone, so the same seeds and query points replay bit for
    bit.  The budget applies per replicate (all replicates consume together).
    ``spec`` is one function, queried at points of shape (R,), or a tuple of
    P functions, queried at points of shape (P, R) that share each noise
    draw; ``x_star``, when given, moves each minimizer and has the points'
    shape.  Readings take the shape of the points, ``shape``.
    """

    def __init__(
        self,
        spec: FunctionSpec | tuple[FunctionSpec, ...],
        x_star: np.ndarray | None,
        domain: tuple[float, float],
        sigma: float,
        budget: int,
        seeds: list[ISeedSequence],
    ):
        many = isinstance(spec, tuple)
        specs = spec if many else (spec,)
        self.n_replicates = check_replicates(len(seeds))  # one seed per replicate
        self.shape = (len(specs), self.n_replicates) if many else (self.n_replicates,)
        if x_star is not None:
            x_star = np.asarray(x_star, dtype=float)
            if x_star.shape != self.shape:
                raise ValueError(f"x_star needs shape {self.shape}, got {x_star.shape}")
        self.domain = check_domain(domain)
        self.sigma = check_sigma(sigma)
        self.budget = check_budget(budget)
        self.queries_used = 0
        self._gens = [np.random.Generator(np.random.PCG64(s)) for s in seeds]
        x_rows = None if x_star is None else x_star.reshape(len(specs), -1)
        # a module function, not a method: the batch holds no reference to itself
        self._subgrad = partial(_subgrads, _plan(specs), x_rows)
        self._steps = np.empty((self.n_replicates, 0))  # drawn step noise, (R, chunk)
        self._step_pos = 0  # next unread column of _steps
        self._reserved = 0  # steps reserved by begin_steps and not read yet
        # every thread's tile of block noise and readings, reused: a fresh tile
        # per share read raised bisect-deep's peak RSS from 44.6 to 50.3 MB
        self._block = np.empty(0)

    def _take(self, n: int):
        if n < 1:
            raise ValueError(f"need at least one query, got {n}")
        if self.queries_used + n > self.budget:
            raise BudgetError(
                f"budget exhausted: {self.queries_used} used of {self.budget}, "
                f"{n} more requested"
            )

    def _refuse_while_reserved(self):
        if self._reserved:
            raise ValueError(f"{self._reserved} steps reserved by begin_steps are "
                             "unread; query_all must read them first")

    def _rows(self, x) -> np.ndarray:
        """The points x as (P, R) rows, one per function, once their shape and
        domain are checked."""
        x = np.asarray(x, dtype=float)
        if x.shape != self.shape:  # one point per function and replicate
            raise ValueError(f"x needs shape {self.shape}, got {x.shape}")
        a, b = self.domain
        if not (x.min() >= a and x.max() <= b):  # also false on NaN
            bad = x[~((x >= a) & (x <= b))][0]
            raise DomainError(f"x={bad} outside domain [{a}, {b}]")
        return x.reshape(-1, self.n_replicates)

    def _noise_rows(self, z: np.ndarray, first: int) -> np.ndarray:
        """Draw replicate first + j's next noise into row j of z; returns them."""
        gens = self._gens[first:first + len(z)]
        for row, g in zip(z, gens):
            g.standard_normal(out=row)
        return z[:len(gens)]

    def query_block_all(self, x: np.ndarray, n: int) -> np.ndarray:
        """n queries at the points x (of shape ``shape``); returns the means.

        Refuses (ValueError) while steps reserved by ``begin_steps`` are
        unread.  Checks and charges the n queries before any draw, then draws
        each replicate's readings once for every function.  From n =
        THREAD_MIN_ROW on, one thread per usable core, but no more than there
        are replicates, reads a share of the replicates; below it the caller
        reads them all.  Each thread reads its share in tiles of its own, of
        at most max(TILE_VALUES, n) values, in one reused buffer of at most
        threads * max(TILE_VALUES, 2n) values: with P > 1 functions a tile
        has half the rows, the other half of the thread's values holding one
        function's readings at a time.  Each function's row means are taken
        over the same C-contiguous rows as in a batch of its own, whatever
        the tile size.
        """
        self._refuse_while_reserved()
        self._take(n)
        x = self._rows(x)
        g = self._subgrad(x)
        self.queries_used += n
        R = self.n_replicates
        threads = min(usable_cores(), R) if n >= THREAD_MIN_ROW else 1
        buffers = min(len(g), 2)  # the noise, and one function's readings
        # rows per tile, no more than the longest share has
        rows = min(max(TILE_VALUES // (buffers * n), 1), -(-R // threads))
        size = buffers * threads * rows * n
        if self._block.size < size:
            self._block = np.empty(size)
        means = np.empty(g.shape)
        blocks = self._block[:size].reshape(buffers, threads, rows, n)
        tiles, spares = blocks[0], blocks[-1]
        ends = [R * k // threads for k in range(threads + 1)]
        shares = [partial(self._read_share, tile, lo, hi, spare, g, means)
                  for tile, spare, lo, hi in zip(tiles, spares, ends, ends[1:])]
        if threads == 1:
            shares[0]()
        else:
            # imported here: a run that reads no long row never loads
            # concurrent.futures
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(threads - 1) as pool:
                futures = [pool.submit(share) for share in shares[1:]]
                shares[0]()
                for f in futures:
                    f.result()  # re-raises a thread's failure
        return means.reshape(self.shape)

    def _read_share(self, tile, lo, hi, spare, g, means):
        """Mean readings of replicates lo..hi-1 into means, a tile at a time.

        tile is this thread's own: at most max(TILE_VALUES, n) values, or
        max(TILE_VALUES, 2n) with spare when P > 1.  Each tile of noise is
        drawn and scaled once; function p's readings,
        its subgradients plus that noise, are formed in spare, the last
        function's in the tile itself (spare is the tile when P = 1).
        """
        for i in range(lo, hi, len(tile)):
            z = self._noise_rows(tile[:hi - i], i)
            z *= self.sigma
            rows = slice(i, i + len(z))
            for p in range(len(g)):
                readings = z if p == len(g) - 1 else spare[:len(z)]
                np.add(z, g[p, rows, None], out=readings)
                readings.mean(axis=1, out=means[p, rows])

    def begin_steps(self, n: int):
        """Reserve the next n single-point queries per replicate.

        Their noise is drawn ahead as ``query_all`` consumes it, in chunks
        that hold each replicate's next steps in its own row, at most
        CHUNK_VALUES values in all, so memory is O(min(R * n, CHUNK_VALUES))
        whatever R.  All n must be read before the batch draws anything else:
        until then this call and ``query_block_all`` raise ValueError.
        """
        self._refuse_while_reserved()
        self._take(n)  # reserve-check only; queries still counted one by one
        self._reserved = n

    def query_all(self, x: np.ndarray) -> np.ndarray:
        """One query per function and replicate at the points x (of shape
        ``shape``); returns the readings, of that shape.

        Replicate r's one noise value of this step, column t of the chunk, is
        added to every function's subgradient; the shared chunk of noise is
        left as drawn.  The result is the caller's own array, free to update
        in place.
        """
        self._take(1)
        g = self._subgrad(self._rows(x))
        if self._step_pos == self._steps.shape[1]:
            # a query beyond the reserved steps draws for itself alone
            R = self.n_replicates
            n = min(max(self._reserved, 1), max(CHUNK_VALUES // R, 1))
            self._steps = None  # readings are fresh arrays: the spent chunk can go first
            self._steps = self._noise_rows(np.empty((R, n)), 0)
            self._steps *= self.sigma
            self._step_pos = 0
        z = self._steps[:, self._step_pos]
        self._step_pos += 1
        self._reserved = max(self._reserved - 1, 0)
        self.queries_used += 1
        g += z  # g is fresh: z + g, bit for bit
        return g.reshape(self.shape)
