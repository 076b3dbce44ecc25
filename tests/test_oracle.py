"""Oracle tests: exactness at zero noise, replay, budget, statistics."""
import gc
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
import scalar_reference as ref
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
from convexbench.oracle import _TILE, CHUNK_VALUES, STEP_CHUNK, replicate_seeds
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
    @pytest.mark.parametrize("chunk_values, R", [(40, 5), (10, 3)])
    def test_block_means_equal_reference_across_tiles(self, monkeypatch,
                                                      chunk_values, R):
        monkeypatch.setattr(oracle, "CHUNK_VALUES", chunk_values)
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

    @pytest.mark.parametrize("n", [0, -3])
    def test_block_needs_a_positive_count(self, n):
        batch = OracleBatch(F.spec, None, F.domain, 0.1, 4,
                            replicate_seeds(8, (), 3, 0))
        with pytest.raises(ValueError, match="at least one query"):
            batch.query_block_all(np.zeros(3), n)
        assert batch.queries_used == 0

    def test_step_noise_follows_each_stream_across_chunks(self):
        # more replicates than one transpose tile, more steps than one chunk,
        # then one step beyond the reservation; at x = x* the answer is z
        self.check_step_noise(_TILE + 3, STEP_CHUNK + 2)

    def test_step_noise_follows_each_stream_across_value_capped_chunks(self):
        # so many replicates that CHUNK_VALUES, not STEP_CHUNK, sets the chunk
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
    # 4 * 1029 values make tiles of 4 rows at n = 1024 and 1029, so with
    # R = 7 one core reads tiles of 4 and 3, two cores shares of 3 and 4 in
    # tiles of 2 (the first share's last one partial), three cores shares of
    # 2, 2 and 3 in tiles of 1
    R = 7

    @pytest.fixture(autouse=True)
    def small_tiles(self, monkeypatch):
        monkeypatch.setattr(oracle, "CHUNK_VALUES", 4 * 1029)

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
                                                   (5, 1024, 4), (3, 4 * 1029, 1)])
    def test_each_thread_reads_its_share_through_its_own_slice(self, monkeypatch,
                                                               cores, n, threads):
        # one thread per core, but no more than a tile has rows (4, or 1 when
        # a row fills CHUNK_VALUES); the shares cover every replicate once
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
        assert block.size <= max(oracle.CHUNK_VALUES, n)
        for i, (_, _, tile, *_) in enumerate(calls):
            assert np.shares_memory(tile, block) and tile.shape[1] == n
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

    def test_more_threads_than_cores_switching_often(self, monkeypatch):
        # eight threads, each through four tiles of two rows, hand the
        # interpreter over every microsecond for 40 reads; a thread writing
        # into another's rows or means would break the equality
        monkeypatch.setattr(oracle, "CHUNK_VALUES", 16 * 1024)
        R, seeds = 64, replicate_seeds(6, (3,), 64, 0)
        x = np.linspace(-1.0, 1.0, R)
        means = {}
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for cores in (1, 8):
                monkeypatch.setattr(oracle, "usable_cores", lambda: cores)
                batch = OracleBatch(F.spec, None, F.domain, 0.3, 40 * 1024, seeds)
                means[cores] = [batch.query_block_all(x, 1024) for _ in range(40)]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(a, b) for a, b in zip(means[1], means[8]))

    def test_short_rows_start_no_thread(self, monkeypatch):
        def no_threads(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(oracle, "ThreadPoolExecutor", no_threads)
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
    # 4 * 1029 values make tiles of 2 rows at n = 1024 when P > 1 (half the
    # buffer holds one function's readings), so R = 7 spans several tiles
    R = 7

    @pytest.fixture(autouse=True)
    def small_tiles(self, monkeypatch):
        monkeypatch.setattr(oracle, "CHUNK_VALUES", 4 * 1029)

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
        # the noise and one function's readings share the one tile budget
        assert joint._block.size <= max(oracle.CHUNK_VALUES, 2 * n)
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


def test_usable_cores_reads_the_affinity_else_the_cpu_count(monkeypatch):
    monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 8)
    assert oracle.usable_cores() == 2
    monkeypatch.delattr(oracle.os, "sched_getaffinity")
    assert oracle.usable_cores() == 8


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


def test_sgd_cell_memory_does_not_grow_with_budget():
    # prefetching all step noise at once would add R * dT * 8 bytes (79 MB);
    # chunked, at most two chunks of R * STEP_CHUNK values are alive at once
    R, family = 100, FunctionFamily(SymmetricPower(2.0), UniformDist(-1.0, 1.0))
    peaks = []
    for T in (10**3, 10**5):
        tracemalloc.start()
        try:
            replicate_runs((family,), (-2.0, 2.0), 0.1, T, (SgdSpec("1/t"),), R, 3, ((),))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2 * R * STEP_CHUNK * 8


def test_binary_search_cell_memory_does_not_grow_with_budget(monkeypatch):
    # holding a round's R x T0 readings at once would add R * dT0 * 8 bytes
    # (9 MB, T0 = 100 -> 5882); tiled, one buffer of at most
    # max(CHUNK_VALUES, T0) values holds them, reused round after round
    monkeypatch.setattr(oracle, "CHUNK_VALUES", 2**14)
    R, family = 200, FunctionFamily(SymmetricPower(2.0), UniformDist(-1.0, 1.0))
    peaks = []
    for T in (10**3, 10**5):
        tracemalloc.start()
        try:
            replicate_runs((family,), (-2.0, 2.0), 0.1, T, (BinarySearchSpec(1.5),), R, 3,
                           ((),))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2 * oracle.CHUNK_VALUES * 8
