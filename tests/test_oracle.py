"""Oracle tests: exactness at zero noise, replay, budget, statistics."""
import gc
import sys
import threading
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest
import scalar_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st
from random_specs import ordered_pairs, piecewise_linears, tilt_sizes, x_star_specs
from scipy import stats

from convexbench import (
    Absolute,
    AsymmetricPower,
    BinarySearchSpec,
    BudgetError,
    DomainError,
    FunctionFamily,
    OracleBatch,
    PiecewiseLinear,
    SgdSpec,
    SymmetricPower,
    Tilt,
    UniformDist,
    build_function,
    epochs_schedule,
    replicate_seed,
    run_binary_search,
)
from convexbench import oracle
from convexbench.experiments import replicate_runs
from convexbench.functions import subgrad_spec
from convexbench.oracle import CHUNK_VALUES, replicate_seeds
from one_replicate import one_replicate, query

F = build_function(SymmetricPower(k=2.0, x_star=0.0), (-2.0, 2.0))


def make_oracle(sigma=0.1, budget=1000, seed=12345):
    return one_replicate(F, sigma, budget, seed)


def readings(batch, x, n):
    """n single queries per replicate at x, shape (n, R)."""
    batch.begin_steps(n)
    x = np.full(batch.n_replicates, x)
    return np.array([batch.query_all(x) for _ in range(n)])


class TestQuery:
    def test_zero_noise_returns_exact_subgradient(self):
        s = make_oracle(sigma=0.0)
        assert query(s, 1.0) == 1.0  # f'(x) = x for the quadratic
        assert query(s, -0.5) == -0.5

    def test_fixed_seed_value_replays(self):
        a = query(make_oracle(), 1.0)
        b = query(make_oracle(), 1.0)
        assert a == b
        z = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(12345))
        ).standard_normal()
        assert a == 1.0 + 0.1 * z

    def test_large_sample_mean_near_subgradient(self):
        # four standard errors at n = 1e6, sigma = 0.1
        s = make_oracle(sigma=0.1, budget=1_000_000, seed=777)
        mean = s.query_block_all(np.array([1.0]), 1_000_000)[0]
        assert abs(mean - 1.0) < 4 * (0.1 / 1000.0)

    def test_increments_counter(self):
        s = make_oracle()
        query(s, 0.3)
        assert s.queries_used == 1
        s.query_block_all(np.array([0.3]), 10)
        assert s.queries_used == 11

    def test_domain_error_does_not_consume_budget(self):
        s = make_oracle(budget=5)
        with pytest.raises(DomainError):
            query(s, 10.0)
        assert s.queries_used == 0


class TestBudget:
    def test_budget_error_is_distinct_from_domain_error(self):
        s = make_oracle(budget=1)
        query(s, 0.0)
        with pytest.raises(BudgetError):
            query(s, 0.0)
        assert not issubclass(BudgetError, DomainError)

    def test_block_overrun_rejected_without_partial_consumption(self):
        s = make_oracle(budget=10)
        with pytest.raises(BudgetError):
            s.query_block_all(np.array([0.0]), 11)
        assert s.queries_used == 0

    @pytest.mark.parametrize("sigma, budget, match", [
        (-0.1, 10, "sigma"), (0.1, 0, "budget"), (0.1, -4, "budget"),
        (0.1, float("inf"), "budget"), (0.1, float("nan"), "budget"),
        (0.1, 2.5, "budget"),  # not truncated to 2
    ])
    def test_config_validation(self, sigma, budget, match):
        with pytest.raises(ValueError, match=match):
            make_oracle(sigma=sigma, budget=budget)

    @pytest.mark.parametrize("domain", [(1.0, -1.0), (0.0, 0.0), (-np.inf, 1.0),
                                        (-1.0, np.nan)])
    def test_domain_must_be_finite_with_a_below_b(self, domain):
        with pytest.raises(ValueError, match="domain"):
            OracleBatch(F.spec, None, domain, 0.1, 10, [np.random.SeedSequence(0)])

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), float("-inf")])
    def test_sigma_must_be_finite(self, sigma):
        with pytest.raises(ValueError, match="finite"):
            make_oracle(sigma=sigma, budget=10)


class TestReplay:
    def test_identical_seed_and_queries_bitwise_identical(self):
        pts = [0.1, -0.7, 0.3, 0.3, 1.9]
        out1 = [query(make_oracle(seed=99), p) for p in [pts[0]]]
        s1, s2 = make_oracle(seed=99), make_oracle(seed=99)
        a = [query(s1, p) for p in pts]
        b = [query(s2, p) for p in pts]
        assert a == b
        assert out1[0] == a[0]

    def test_block_matches_scalar_stream(self):
        s1, s2 = make_oracle(seed=5), make_oracle(seed=5)
        block = s1.query_block_all(np.array([0.4]), 40)
        singles = [query(s2, 0.4) for _ in range(40)]
        assert block[0] == np.mean(singles)
        # the stream continues identically after a block
        assert query(s1, -0.2) == query(s2, -0.2)

    def test_different_seeds_differ(self):
        assert query(make_oracle(seed=1), 0.5) != query(make_oracle(seed=2), 0.5)


class TestStatistics:
    def test_empirical_variance_within_5_percent(self):
        n = 100_000
        vals = readings(make_oracle(sigma=0.1, budget=n, seed=2024), 0.7, n)
        assert np.var(vals, ddof=1) == pytest.approx(0.01, rel=0.05)

    def test_welch_means_agree_across_seeds(self):
        # the streams of seeds 11 and 22, one replicate each, read in lockstep
        n = 100_000
        seeds = [np.random.SeedSequence(11), np.random.SeedSequence(22)]
        vals = readings(OracleBatch(F.spec, None, F.domain, 0.1, n, seeds), 1.0, n)
        t = stats.ttest_ind(vals[:, 0], vals[:, 1], equal_var=False)
        assert t.pvalue > 0.001


class TestOracleBatch:
    def test_matches_scalar_sessions_bitwise(self):
        R, n = 6, 40
        seeds = [replicate_seed(321, 0, 0, r).spawn(2)[1] for r in range(R)]
        batch = OracleBatch(
            spec=F.spec, x_star=None, domain=F.domain,
            sigma=0.1, budget=100, seeds=seeds,
        )
        x = np.linspace(-1.0, 1.0, R)
        got = batch.query_block_all(x, n)
        for r in range(R):
            s = ref.ReferenceOracle(F, 0.1, seeds[r])
            assert got[r] == np.mean(s.query_block(float(x[r]), n))

    def test_single_queries_match_scalar(self):
        R = 4
        seeds = [replicate_seed(55, r).spawn(2)[1] for r in range(R)]
        batch = OracleBatch(F.spec, None, F.domain, 0.2, 10, seeds)
        batch.begin_steps(3)
        xs = np.array([0.1, 0.2, 0.3, 0.4])
        cols = [batch.query_all(xs) for _ in range(3)]
        for r in range(R):
            s = ref.ReferenceOracle(F, 0.2, seeds[r])
            for j in range(3):
                assert cols[j][r] == s.query(float(xs[r]))

    def test_budget_enforced(self):
        seeds = [replicate_seed(1, r) for r in range(3)]
        batch = OracleBatch(F.spec, None, F.domain, 0.1, 5, seeds)
        batch.query_block_all(np.zeros(3), 5)
        with pytest.raises(BudgetError):
            batch.query_all(np.zeros(3))

    def test_domain_enforced(self):
        seeds = [replicate_seed(1, r) for r in range(2)]
        batch = OracleBatch(F.spec, None, F.domain, 0.1, 5, seeds)
        with pytest.raises(DomainError):
            batch.query_all(np.array([0.0, 3.0]))

    # T = 100, r = 1.5: six rounds of T0 = 16 queries.  40 values make tiles
    # of 2, 2 and 1 replicates; 10 < T0 make one replicate per tile
    @pytest.mark.parametrize("tile_values, R", [(40, 5), (10, 3)])
    def test_block_means_equal_reference_across_tiles(self, monkeypatch,
                                                      tile_values, R):
        monkeypatch.setattr(oracle, "TILE_VALUES", tile_values)
        T, sigma, spec = 100, 0.3, BinarySearchSpec(r=1.5)
        _, T0 = epochs_schedule(T, spec.r)
        seeds = replicate_seeds(4, (1,), R, 0)
        x = np.linspace(-1.0, 1.0, R)
        batch = OracleBatch(F.spec, None, F.domain, sigma, T0, seeds)
        got = batch.query_block_all(x, T0)
        want = []
        for r, seed in enumerate(seeds):
            z = np.random.Generator(np.random.PCG64(seed)).standard_normal(T0)
            want.append((sigma * z + float(F.subgrad(x[r]))).mean())
        assert np.array_equal(got, want)

        est = run_binary_search(OracleBatch(F.spec, None, (-2.0, 1.5), sigma, T, seeds),
                                spec)
        want = [ref.binary_search(ref.ReferenceOracle(F, sigma, seed), T, spec.r,
                                  (-2.0, 1.5)) for seed in seeds]
        assert np.array_equal(est, want)

    @pytest.mark.parametrize("path", ["query_block_all", "query_all"])
    @pytest.mark.parametrize("point, n, error", [
        (np.nan, 2, DomainError), (2.5, 2, DomainError), (0.25, 5, BudgetError),
        # a 1-tuple holds all the points, of a shape other than (3,)
        ((np.zeros(4),), 2, ValueError), ((0.5,), 2, ValueError),
        ((np.zeros((3, 1)),), 2, ValueError),
    ])
    def test_rejected_call_charges_and_draws_nothing(self, path, point, n, error):
        def fresh():
            return OracleBatch(F.spec, None, F.domain, 0.1, 4,
                               replicate_seeds(8, (), 3, 0))

        def ask(target, point, n):
            x = point[0] if isinstance(point, tuple) else np.array([0.5, point, -0.5])
            if path == "query_all":
                return target.query_all(x)
            return target.query_block_all(x, n)

        target, twin = fresh(), fresh()
        if path == "query_all" and error is BudgetError:
            for t in (target, twin):  # spend the budget: one query is too many
                t.query_block_all(np.zeros(3), 4)
        used = target.queries_used
        with pytest.raises(error):
            ask(target, point, n)
        assert target.queries_used == used
        streams = [[g.bit_generator.state for g in t._gens] for t in (target, twin)]
        assert streams[0] == streams[1]
        if target.queries_used < target.budget:
            assert np.array_equal(ask(target, 0.25, 2), ask(twin, 0.25, 2))

    @pytest.mark.parametrize("chunk_values", [CHUNK_VALUES, 7 * 3], ids=["default", "7-steps"])
    @pytest.mark.parametrize("call", ["query_block_all", "begin_steps"])
    def test_reserved_steps_are_read_before_any_other_draw(self, monkeypatch, call,
                                                           chunk_values):
        # with 10 of 20 reserved steps read, a block read or a new reservation
        # would read noise that depends on the chunk size: both are refused,
        # charging and drawing nothing.  The 20 steps read in full, a block
        # read follows each stream, whatever the chunk size
        monkeypatch.setattr(oracle, "CHUNK_VALUES", chunk_values)
        R, sigma, seeds = 3, 0.3, replicate_seeds(8, (), 3, 0)
        batch = OracleBatch(F.spec, None, F.domain, sigma, 30, seeds)
        batch.begin_steps(20)
        steps = [batch.query_all(np.zeros(R)) for _ in range(10)]
        used, states = batch.queries_used, [g.bit_generator.state for g in batch._gens]
        with pytest.raises(ValueError, match="10 steps reserved by begin_steps are unread"):
            if call == "begin_steps":
                batch.begin_steps(5)
            else:
                batch.query_block_all(np.zeros(R), 4)
        assert batch.queries_used == used
        assert [g.bit_generator.state for g in batch._gens] == states
        steps += [batch.query_all(np.zeros(R)) for _ in range(10)]
        x = np.array([-0.5, 0.0, 0.5])
        means = batch.query_block_all(x, 4)
        assert batch.queries_used == 24
        for r, seed in enumerate(seeds):  # f'(0) = 0: a step at 0 reads sigma z
            z = sigma * np.random.Generator(np.random.PCG64(seed)).standard_normal(24)
            assert np.array_equal([v[r] for v in steps], z[:20])
            assert means[r] == (z[20:] + x[r]).mean()

    @pytest.mark.parametrize("n", [0, -3])
    def test_block_needs_a_positive_count(self, n):
        batch = OracleBatch(F.spec, None, F.domain, 0.1, 4,
                            replicate_seeds(8, (), 3, 0))
        with pytest.raises(ValueError, match="at least one query"):
            batch.query_block_all(np.zeros(3), n)
        assert batch.queries_used == 0

    def test_step_noise_follows_each_stream_across_chunks(self, monkeypatch):
        # chunks of 1024 steps of 67 replicates, more steps than one chunk,
        # then one step beyond the reservation; at x = x* the answer is z
        monkeypatch.setattr(oracle, "CHUNK_VALUES", 1024 * 67)
        self.check_step_noise(67, 1024 + 2)

    def test_step_noise_follows_each_stream_across_value_capped_chunks(self):
        # so many replicates that a chunk of CHUNK_VALUES holds 299 steps
        R = CHUNK_VALUES // 300 + 1
        self.check_step_noise(R, CHUNK_VALUES // R + 2)

    @staticmethod
    def check_step_noise(R, n):
        seeds = [replicate_seed(9, r) for r in range(R)]
        batch = OracleBatch(F.spec, None, F.domain, 1.0, n + 1, seeds)
        batch.begin_steps(n)
        got = np.array([batch.query_all(np.zeros(R)) for _ in range(n + 1)])
        for r, seed in enumerate(seeds):
            want = np.random.Generator(np.random.PCG64(seed)).standard_normal(n + 1)
            assert np.array_equal(got[:, r], want)


class TestThreadedBlockReads:
    # 2 * 1029 values make each thread's tiles 2 rows at n = 1024 and 1029, so
    # with R = 7 one core reads tiles of 2, 2, 2 and 1, two cores shares of 3
    # and 4 (the first share's last tile partial), three cores shares of 2, 2
    # and 3 (the last share's last tile partial)
    R = 7

    @pytest.fixture(autouse=True)
    def small_tiles(self, monkeypatch):
        monkeypatch.setattr(oracle, "TILE_VALUES", 2 * 1029)

    def read(self, monkeypatch, cores, n, seeds):
        monkeypatch.setattr(oracle, "usable_cores", lambda: cores)
        batch = OracleBatch(F.spec, None, F.domain, 0.3, 2 * n, seeds)
        x = np.linspace(-1.0, 1.0, self.R)
        means = [batch.query_block_all(x, n), batch.query_block_all(-x, n)]
        return means, [g.bit_generator.state for g in batch._gens]

    @pytest.mark.parametrize("n", [1024, 1029])
    @pytest.mark.parametrize("cores", [2, 3])
    def test_means_and_streams_equal_the_one_core_read(self, monkeypatch, cores, n):
        seeds = replicate_seeds(6, (2,), self.R, 0)
        want, want_states = self.read(monkeypatch, 1, n, seeds)
        threads = threading.active_count()
        got, got_states = self.read(monkeypatch, cores, n, seeds)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert got_states == want_states
        assert threading.active_count() == threads  # no thread outlives a read

    @pytest.mark.parametrize("cores, n, threads", [(2, 1029, 2), (3, 1024, 3),
                                                   (8, 1024, 7), (3, 4 * 1029, 3)])
    def test_each_thread_reads_its_share_through_its_own_slice(self, monkeypatch,
                                                               cores, n, threads):
        # one thread per core, but no more than there are replicates, also
        # when a row is longer than a tile; the shares cover every replicate
        # once, each through tiles of at most max(TILE_VALUES, n) values
        calls = []
        read_share = OracleBatch._read_share

        def record(batch, tile, lo, hi, *args):
            calls.append((lo, hi, tile, batch._block, threading.get_ident()))
            read_share(batch, tile, lo, hi, *args)

        monkeypatch.setattr(OracleBatch, "_read_share", record)
        self.read(monkeypatch, cores, n, replicate_seeds(6, (2,), self.R, 0))
        calls = sorted(calls[:len(calls) // 2], key=lambda c: c[0])  # the first read
        assert [(lo, hi) for lo, hi, *_ in calls] == [
            (self.R * k // threads, self.R * (k + 1) // threads) for k in range(threads)]
        assert calls[0][4] == threading.get_ident()  # the caller reads share 0
        block = calls[0][3]
        assert block.size <= threads * max(oracle.TILE_VALUES, n)
        for i, (_, _, tile, *_) in enumerate(calls):
            assert np.shares_memory(tile, block) and tile.shape[1] == n
            assert tile.size <= max(oracle.TILE_VALUES, n)
            assert not any(np.shares_memory(tile, c[2]) for c in calls[i + 1:])

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_binary_search_equals_scalar_reference(self, monkeypatch, cores):
        monkeypatch.setattr(oracle, "usable_cores", lambda: cores)
        T, sigma, spec = 20000, 0.3, BinarySearchSpec(r=1.5)
        assert epochs_schedule(T, spec.r)[1] >= oracle.THREAD_MIN_ROW
        seeds = replicate_seeds(4, (1,), self.R, 0)
        est = run_binary_search(OracleBatch(F.spec, None, (-2.0, 1.5), sigma, T, seeds),
                                spec)
        want = [ref.binary_search(ref.ReferenceOracle(F, sigma, seed), T, spec.r,
                                  (-2.0, 1.5)) for seed in seeds]
        assert np.array_equal(est, want)

    @pytest.mark.parametrize("P", [1, 4])
    def test_more_threads_than_cores_switching_often(self, monkeypatch, P):
        # eight threads, each through four tiles of two rows, hand the
        # interpreter over every microsecond for 40 reads; a thread writing
        # into another's rows, readings or means would break the equality
        monkeypatch.setattr(oracle, "TILE_VALUES", min(P, 2) * 2 * 1024)
        R, seeds = 64, replicate_seeds(6, (3,), 64, 0)
        specs, shape = (F.spec, (R,)) if P == 1 else (FIXED_SPECS[:P], (P, R))
        x = np.linspace(-1.0, 1.0, P * R).reshape(shape)
        means = {}
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for cores in (1, 8):
                monkeypatch.setattr(oracle, "usable_cores", lambda: cores)
                batch = OracleBatch(specs, None, F.domain, 0.3, 40 * 1024, seeds)
                means[cores] = [batch.query_block_all(x, 1024) for _ in range(40)]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(a, b) for a, b in zip(means[1], means[8]))

    def test_short_rows_start_no_thread(self, monkeypatch):
        def no_threads(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", no_threads)
        monkeypatch.setattr(oracle, "usable_cores", lambda: 3)
        seeds = replicate_seeds(6, (2,), self.R, 0)
        batch = OracleBatch(F.spec, None, F.domain, 0.3, 2048, seeds)
        batch.query_block_all(np.zeros(self.R), oracle.THREAD_MIN_ROW - 1)
        with pytest.raises(AssertionError, match="thread pool"):  # the patch is live
            batch.query_block_all(np.zeros(self.R), oracle.THREAD_MIN_ROW)


# functions that share a batch's noise: fixed specs, one with no x_star, and
# templates whose minimizers the batch moves, one of them tilted
FIXED_SPECS = (SymmetricPower(2.0, 0.3), Tilt(AsymmetricPower(1.5, 3.0, -0.2), 0.05),
               PiecewiseLinear((-0.5, 0.5), (-1.0, 0.0, 2.0)), Absolute(0.1))
TEMPLATES = (SymmetricPower(1.5), Tilt(SymmetricPower(2.0), -0.05),
             AsymmetricPower(2.0, 3.0))


class TestFunctionsAxis:
    # 2 * 1029 values make tiles of 1 row at n = 1024 when P > 1 (half a
    # thread's values hold one function's readings), so R = 7 spans several
    # tiles
    R = 7

    @pytest.fixture(autouse=True)
    def small_tiles(self, monkeypatch):
        monkeypatch.setattr(oracle, "TILE_VALUES", 2 * 1029)

    @staticmethod
    def reads(batch, x, n):
        """Two block reads, then three single queries, at points of x's shape."""
        got = [batch.query_block_all(x, n), batch.query_block_all(-x, n)]
        batch.begin_steps(3)
        return got + [batch.query_all(x / (t + 2)) for t in range(3)]

    @pytest.mark.parametrize("n, cores", [(5, 1), (1024, 1), (1024, 2)])
    @pytest.mark.parametrize("specs, moved", [(FIXED_SPECS, False), (TEMPLATES, True)],
                             ids=["fixed", "moved-minimizers"])
    def test_rows_equal_one_function_batches(self, monkeypatch, specs, moved, n, cores):
        monkeypatch.setattr(oracle, "usable_cores", lambda: cores)
        P, seeds = len(specs), replicate_seeds(5, (4,), self.R, 1)
        x_star = np.random.default_rng(0).uniform(-1.0, 1.0, (P, self.R)) if moved else None
        x = np.linspace(-1.5, 1.5, P * self.R).reshape(P, self.R)
        joint = OracleBatch(specs, x_star, (-2.0, 2.0), 0.3, 2 * n + 3, seeds)
        got = self.reads(joint, x, n)
        assert all(g.shape == (P, self.R) for g in got)
        # the noise and one function's readings share each thread's tile budget
        assert joint._block.size <= cores * max(oracle.TILE_VALUES, 2 * n)
        for p, spec in enumerate(specs):
            alone = OracleBatch(spec, None if x_star is None else x_star[p], (-2.0, 2.0),
                                0.3, 2 * n + 3, seeds)
            want = self.reads(alone, x[p], n)
            assert all(np.array_equal(g[p], w) for g, w in zip(got, want))
            assert ([g.bit_generator.state for g in alone._gens]
                    == [g.bit_generator.state for g in joint._gens])

    def test_points_and_minimizers_need_the_functions_axis(self):
        seeds = replicate_seeds(5, (4,), self.R, 1)
        with pytest.raises(ValueError, match="x_star needs shape"):
            OracleBatch(TEMPLATES, np.zeros(self.R), F.domain, 0.3, 4, seeds)
        batch = OracleBatch(FIXED_SPECS, None, F.domain, 0.3, 4, seeds)
        for path in (lambda x: batch.query_block_all(x, 2), batch.query_all):
            with pytest.raises(ValueError, match="x needs shape"):
                path(np.zeros(self.R))
        assert batch.queries_used == 0

    def test_a_batch_is_freed_without_the_cycle_collector(self):
        # a batch that referred to itself would wait for the cycle collector,
        # holding its noise buffers meanwhile
        x = np.zeros((len(TEMPLATES), self.R))
        batch = OracleBatch(TEMPLATES, x, F.domain, 0.3, 4,
                            replicate_seeds(5, (4,), self.R, 1))
        batch.query_block_all(x, 2)
        batch.begin_steps(2)
        batch.query_all(x)
        alive = weakref.ref(batch)
        gc.disable()
        try:
            del batch
            assert alive() is None
        finally:
            gc.enable()


@pytest.mark.parametrize("cores", [2, 3])
def test_a_row_longer_than_a_tile_reads_on_every_core(monkeypatch, cores):
    # a tile of up to 2^19 values holds one row of 2^18 + 1 queries at most;
    # the shares still go to every core, one replicate each
    n, calls = 2**18 + 1, []
    read_share = OracleBatch._read_share

    def record(batch, tile, lo, hi, *args):
        calls.append((lo, hi, threading.get_ident()))
        read_share(batch, tile, lo, hi, *args)

    monkeypatch.setattr(OracleBatch, "_read_share", record)
    monkeypatch.setattr(oracle, "usable_cores", lambda: cores)
    seeds = replicate_seeds(6, (5,), cores, 0)
    x = np.linspace(-1.0, 1.0, cores)
    got = OracleBatch(F.spec, None, F.domain, 0.3, n, seeds).query_block_all(x, n)
    assert sorted((lo, hi) for lo, hi, _ in calls) == [(k, k + 1) for k in range(cores)]
    caller = [lo for lo, _, ident in calls if ident == threading.get_ident()]
    assert caller == [0]  # every other share ran on a thread of its own pool
    for r, seed in enumerate(seeds):
        z = np.random.Generator(np.random.PCG64(seed)).standard_normal(n)
        assert got[r] == (0.3 * z + float(F.subgrad(x[r]))).mean()


def test_usable_cores_reads_the_affinity_else_the_cpu_count(monkeypatch):
    monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 8)
    assert oracle.usable_cores() == 2
    monkeypatch.delattr(oracle.os, "sched_getaffinity")
    assert oracle.usable_cores() == 8


@pytest.mark.parametrize("n", [769, 2 * oracle.THREAD_MIN_ROW + 3])
@pytest.mark.parametrize("specs", [F.spec, FIXED_SPECS[:3]], ids=["P=1", "P=3"])
def test_block_means_do_not_depend_on_the_tile_bound(monkeypatch, specs, n):
    # a row's mean is numpy's sum over that one row, however many rows share
    # its tile: one-row tiles, a few rows, today's bound and one tile per share
    R = 9
    monkeypatch.setattr(oracle, "usable_cores", lambda: 2)
    seeds = replicate_seeds(7, (6,), R, 0)
    shape = (len(specs), R) if isinstance(specs, tuple) else (R,)
    x = np.linspace(-1.5, 1.5, np.prod(shape)).reshape(shape)
    means = []
    for bound in (1, 4 * n, oracle.TILE_VALUES, R * 2 * n):
        monkeypatch.setattr(oracle, "TILE_VALUES", bound)
        batch = OracleBatch(specs, None, (-2.0, 2.0), 0.3, 2 * n, seeds)
        means.append([batch.query_block_all(x, n), batch.query_block_all(-x, n)])
    for other in means[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(other, means[0]))


random_specs = st.one_of(x_star_specs, piecewise_linears(),
                         st.builds(Tilt, st.one_of(x_star_specs, piecewise_linears()),
                                   tilt_sizes))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_random_function_batches_equal_one_function_batches(data):
    # bound, fixed before the first run: exact equality (==) of every block
    # mean, every step reading and every stream's state afterwards, with rows
    # on both sides of THREAD_MIN_ROW and of the tile bound (P = 1 and P > 1)
    specs = tuple(data.draw(st.lists(random_specs, min_size=1, max_size=4)))
    a, b = data.draw(ordered_pairs)
    R, cores = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    # a thread's values pass the bound at 2n > TILE_VALUES when P > 1
    edge = data.draw(st.sampled_from([oracle.TILE_VALUES // 2, oracle.TILE_VALUES]))
    n = data.draw(st.one_of(st.integers(1, 2 * oracle.THREAD_MIN_ROW),
                            st.integers(edge - 1, edge + 1)))
    steps, seed = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 2**32 - 1))
    u = np.random.default_rng(seed).random((len(specs), R))
    x = np.clip(a + (b - a) * u, a, b)
    seeds = replicate_seeds(seed, (3,), R, 0)
    budget = 2 * n + steps + 1

    def reads(spec, x):
        batch = OracleBatch(spec, None, (a, b), 0.3, budget, seeds)
        got = [batch.query_block_all(x, n), batch.query_block_all(x[..., ::-1], n)]
        batch.begin_steps(steps)
        got += [batch.query_all(x) for _ in range(steps + 1)]  # one beyond
        return got, [g.bit_generator.state for g in batch._gens]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "usable_cores", lambda: cores)
        joint, joint_states = reads(specs, x)
        for p, spec in enumerate(specs):
            alone, states = reads(spec, x[p])
            assert all(np.array_equal(j[p], w) for j, w in zip(joint, alone))
            assert states == joint_states


# points and minimizers: at x_star = +0.0 the shift u = x - x_star is x, so
# u runs over zeros of both signs (-0.0 - 0.0 is -0.0), subnormals and
# magnitudes whose powers overflow
KERNEL_POINTS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.5e-310, -2.2e-308,
                                 1e-300, -1e-160, 1e300, -1e300]) | st.floats(-3.0, 3.0)
KERNEL_MINIMIZERS = st.sampled_from([0.0, 0.0, -0.0, 5e-324, 0.5]) | st.floats(-2.0, 2.0)
# k - 1 outside {1/2, 1, 2} takes np.power, inside it one exact operation
KERNEL_K = st.floats(1.05, 4.5) | st.sampled_from([1.5, 2.0, 3.0])


@st.composite
def kernel_specs(draw, moved):
    """A power spec, k_l = k_r at times, an Absolute or (at fixed minimizers
    only) a PiecewiseLinear, tilted at times, eps = -0.0 among the tilts."""
    kinds = ["sym", "asym", "asym-equal", "absolute"] + ([] if moved else ["pl"])
    kind = draw(st.sampled_from(kinds))
    x_star = draw(KERNEL_MINIMIZERS)
    if kind == "sym":
        spec = SymmetricPower(draw(KERNEL_K), x_star)
    elif kind.startswith("asym"):
        k_l = draw(KERNEL_K)
        spec = AsymmetricPower(k_l, k_l if kind == "asym-equal" else draw(KERNEL_K), x_star)
    elif kind == "absolute":
        spec = Absolute(x_star)
    else:
        spec = draw(piecewise_linears())
    eps = draw(st.sampled_from([None, 0.0, -0.0, -0.0, 0.25, -5e-324, -1e300]) | tilt_sizes)
    return spec if eps is None else Tilt(spec, eps)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_power_kernel_readings_equal_per_row_subgradients_bit_for_bit(data):
    # the functions-axis kernel against one subgrad_spec call per row: at
    # sigma = 0 a reading is f'(x) + 0 z, so every byte of a one-query block
    # mean and of a step reading must equal the row's own subgradient
    moved = data.draw(st.booleans())
    specs = tuple(data.draw(st.lists(kernel_specs(moved), min_size=1, max_size=4)))
    P, R = len(specs), data.draw(st.integers(1, 3))

    def grid(values):
        return np.array(data.draw(st.lists(values, min_size=P * R, max_size=P * R)))

    x = grid(KERNEL_POINTS).reshape(P, R)
    x_star = grid(KERNEL_MINIMIZERS).reshape(P, R) if moved else None
    with np.errstate(over="ignore"):  # |u|^e past the float range is inf in both
        want = np.array([subgrad_spec(spec, x[p], None if x_star is None else x_star[p])
                         for p, spec in enumerate(specs)])
        batch = OracleBatch(specs, x_star, (-2e300, 2e300), 0.0, 2,
                            replicate_seeds(0, (), R, 1))
        block = batch.query_block_all(x, 1)
        batch.begin_steps(1)
        step = batch.query_all(x)
    assert block.tobytes() == want.tobytes()
    assert step.tobytes() == want.tobytes()


class TestReplicateSeeds:
    # 2**128 + 1 is run entropy longer than SeedSequence's four-word pool
    @pytest.mark.parametrize("master_seed", [0, 2**32 - 1, 2**32, 2**64 + 5,
                                             2**128 + 1])
    @pytest.mark.parametrize("R", [1, 2, 1000])
    def test_words_equal_seed_sequence(self, master_seed, R):
        for key in [(), (3, 1), (2**32, 7), (2**70 + 3,)]:
            for stream in (0, 1):
                seeds = replicate_seeds(master_seed, key, R, stream)
                assert len(seeds) == R
                for r, seed in enumerate(seeds):
                    ss = np.random.SeedSequence(master_seed,
                                                spawn_key=(*key, r, stream))
                    assert np.array_equal(seed.generate_state(4, np.uint64),
                                          ss.generate_state(4, np.uint64))

    def test_generators_draw_the_seed_sequence_streams(self):
        seeds = replicate_seeds(7, (1, 2), 50, 0)
        for r, seed in enumerate(seeds):
            ss = np.random.SeedSequence(7, spawn_key=(1, 2, r, 0))
            got = np.random.Generator(np.random.PCG64(seed)).standard_normal(100)
            want = np.random.Generator(np.random.PCG64(ss)).standard_normal(100)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint64),
                                                (2, np.uint64), (8, np.uint32)])
    def test_other_requests_are_errors(self, n_words, dtype):
        seed = replicate_seeds(1, (), 1, 0)[0]
        with pytest.raises(ValueError):
            seed.generate_state(n_words, dtype)

    @pytest.mark.parametrize("master_seed, key", [(-1, ()), (1, (2, -3))])
    def test_negative_entropy_is_an_error(self, master_seed, key):
        with pytest.raises(ValueError):
            np.random.SeedSequence(master_seed, spawn_key=(*key, 0, 0))
        with pytest.raises(ValueError):
            replicate_seeds(master_seed, key, 3, 0)


def test_sgd_cell_memory_does_not_grow_with_budget(monkeypatch):
    # prefetching all step noise at once would add R * dT * 8 bytes (7.2 MB);
    # chunked, at most two chunks of CHUNK_VALUES values are alive at once.
    # CHUNK_VALUES is lowered to 64 steps of the R replicates so that a
    # tenfold budget spans many chunks.
    R, family = 100, FunctionFamily(SymmetricPower(2.0), UniformDist(-1.0, 1.0))
    monkeypatch.setattr(oracle, "CHUNK_VALUES", R * 64)

    def run(T):
        replicate_runs((family,), (-2.0, 2.0), 0.1, T, (SgdSpec("1/t"),), R, 3, ((),))

    run(10)  # one-time allocations land outside both traced runs
    peaks = []
    for T in (10**3, 10**4):
        tracemalloc.start()
        try:
            run(T)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2 * oracle.CHUNK_VALUES * 8


def test_binary_search_cell_memory_does_not_grow_with_budget(monkeypatch):
    # holding a round's R x T0 readings at once would add R * dT0 * 8 bytes
    # (9 MB, T0 = 100 -> 5882); tiled, one buffer of at most
    # cores * max(TILE_VALUES, T0) values holds them, reused round after round
    monkeypatch.setattr(oracle, "TILE_VALUES", 2**13)
    monkeypatch.setattr(oracle, "usable_cores", lambda: 2)
    R, family = 200, FunctionFamily(SymmetricPower(2.0), UniformDist(-1.0, 1.0))

    def run(T):
        replicate_runs((family,), (-2.0, 2.0), 0.1, T, (BinarySearchSpec(1.5),), R, 3,
                       ((),))

    run(10)  # one-time allocations (about 0.8 MB) land outside both traced runs
    peaks = []
    for T in (10**3, 10**5):
        tracemalloc.start()
        try:
            run(T)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2 * oracle.TILE_VALUES * 8


# six fig2-like families on one batch's functions axis
SIX_FAMILIES = tuple(FunctionFamily(spec, UniformDist(-1.0, 1.0)) for spec in (
    SymmetricPower(1.5), SymmetricPower(2.0), SymmetricPower(3.0),
    AsymmetricPower(1.5, 3.0), AsymmetricPower(2.0, 3.0), AsymmetricPower(1.5, 2.0)))


def _replicate_state() -> float:
    """Bytes of a replicate's noise generator and slot seed: its Generator,
    PCG64 and lock, as building them into a list traces; a two-slot object
    with its row index (an int past the small-int cache), 4 words and a list
    pointer."""
    class TwoSlots:
        __slots__ = ("words", "row")

    seeds = replicate_seeds(1, (2,), 1000, 1)
    tracemalloc.start()
    try:
        generators = [np.random.Generator(np.random.PCG64(s)) for s in seeds]
        generator = tracemalloc.get_traced_memory()[0] / len(generators)
    finally:
        tracemalloc.stop()
    return generator + sys.getsizeof(TwoSlots()) + sys.getsizeof(2**20) + 4 * 8 + 8


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("functions, alg, T, T0", [
    (SIX_FAMILIES[1:2], SgdSpec("1/t"), 1, 0),
    (SIX_FAMILIES, BinarySearchSpec(1.5), 100, 16),
], ids=["sgd-1-function", "binary-search-6-functions"])
def test_a_unit_holds_little_per_replicate(functions, alg, T, T0):
    # bound, derived before the first run from what a replicate must hold:
    # its Generator, PCG64 and lock, as building them into a list traces; one
    # slot seed, a two-slot object with its row index (an int past the
    # small-int cache), 4 words and a list pointer; and 8 B per array element
    # it owns: 8 per function (minimizer, iterate or left end, query point,
    # reading or mean, subgradient and up to three numpy temporaries), 8 more
    # (start, step size, step noise, the environment's draws), and 2 T0 in a
    # binary search's tile (a row of noise and one of readings).  Measured
    # as the slope of the traced peak of replicate_runs from R = 1,000 to 3,000
    bound = _replicate_state() + 8 * (8 * len(functions) + 8 + 2 * T0)

    def run(R):
        replicate_runs(functions, (-2.0, 2.0), 0.1, T, (alg,), R, 3, ((0, 0),))

    run(10)  # one-time allocations land outside the traced runs
    peaks = [_traced_peak(partial(run, R)) for R in (1000, 3000)]
    assert (peaks[1] - peaks[0]) / 2000 <= bound


def test_fig2s_largest_sgd_group_holds_one_half_size_chunk():
    # fig2's largest SGD budget group: T = 10^4, six families, two SgdSpecs of
    # R = 1,000 replicates each.  Bound, derived before the first run, of
    # three terms: one chunk of step noise, CHUNK_VALUES * 8 B at 2^18 values,
    # 2 MiB (written as a number, so that a chunk of 2^19 values, 4 MiB, fails);
    # each of the 2,000 replicates' own state as
    # test_a_unit_holds_little_per_replicate states it, its generator, slot
    # seed and 8 values (start, step size, step noise, environment draws);
    # and the (P, R) arrays of one step, 8 values per function and replicate
    # (minimizers, iterates, query points, readings, subgradients and three
    # numpy temporaries)
    R, P, algs = 1000, len(SIX_FAMILIES), (SgdSpec("1/t"), SgdSpec("1/sqrt(t)"))
    bound = 2**18 * 8 + 2 * R * (_replicate_state() + 8 * 8) + 8 * (8 * P * 2 * R)

    def run(T):
        replicate_runs(SIX_FAMILIES, (-2.0, 2.0), 0.1, T, algs, R, 0,
                       ((1, 6), (2, 6)))

    run(10)  # one-time allocations land outside the traced run
    assert _traced_peak(partial(run, 10**4)) <= bound
