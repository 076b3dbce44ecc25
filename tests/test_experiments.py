"""Risk harness: lockstep replicate runs against scalar loops, seeds, jobs,
slope fits, the two-point risk floor."""
import math
import tracemalloc

import numpy as np
import pytest
import scalar_reference as ref

from convexbench import (
    AsymmetricPower,
    BinarySearchSpec,
    ConstantEstimator,
    ExperimentConfig,
    FieldError,
    FunctionFamily,
    RiskRow,
    RiskTable,
    ScheduleError,
    SgdSpec,
    SymmetricPower,
    UniformDist,
    build_function,
    estimate_risk,
    fit_loglog_slope,
    replicate_seed,
    superefficiency_experiment,
    two_point_floor,
    with_x_star,
)
from convexbench.experiments import function_id, replicate_runs
from convexbench.oracle import STEP_CHUNK

INTERVAL = (-2.0, 2.0)
SIGMA = 0.1
SEED = 2024
KEY = (1, 2)
R = 4

FAMILIES = {
    "sym-k1.5": FunctionFamily(SymmetricPower(1.5), UniformDist(-1.0, 1.0)),
    "asym-1.5-3": FunctionFamily(AsymmetricPower(1.5, 3.0), UniformDist(-1.0, 1.0)),
}
ALGORITHMS = {  # every SGD variant starts uniformly over the interval
    "binary-search": BinarySearchSpec(r=1.5),
    "sgd-1/t": SgdSpec("1/t"),
    "sgd-1/sqrt(t)": SgdSpec("1/sqrt(t)"),
    "sgd-1/t-average": SgdSpec("1/t", iterate="average"),
}
# master seeds of two, three and five 32-bit words (five is more than
# SeedSequence's four-word pool) and a cell key entry of two words
SEEDINGS = {
    "seed-2^32": (2**32, KEY),
    "seed-2^64+5": (2**64 + 5, KEY),
    "seed-2^128+1": (2**128 + 1, KEY),
    "key-2^32+7": (SEED, (2**32 + 7, 2)),
}


def scalar_run(function, alg, T, rep, seed=SEED, key=KEY):
    """One replicate through the scalar reference loops, seeded as the
    harness documents: (estimate, minimizer draw or None, minimizer set)."""
    env_seed, noise_seed = replicate_seed(seed, *key, rep).spawn(2)
    env = np.random.Generator(np.random.PCG64(env_seed))
    x_star = None
    if isinstance(function, FunctionFamily):
        x_star = env.uniform(function.x_star.lo, function.x_star.hi)
        function = with_x_star(function.template, x_star)
    f = build_function(function, INTERVAL)
    oracle = ref.ReferenceOracle(f, SIGMA, noise_seed)
    if isinstance(alg, BinarySearchSpec):
        estimate = ref.binary_search(oracle, T, alg.r, INTERVAL)
    else:
        x0 = env.uniform(*INTERVAL) if alg.x0 == "uniform" else alg.x0
        estimate = ref.sgd(oracle, T, alg.schedule, alg.scale, alg.iterate, x0,
                           INTERVAL)
    return estimate, x_star, f.minimizer_set


def scalar_row(config, a, t):
    """Risk row of cell (a, t) from one scalar run per replicate."""
    alg, T = config.algorithms[a], config.T_grid[t]
    fn_id = function_id(config.function)
    try:
        runs = [scalar_run(config.function, alg, T, rep, config.master_seed, (a, t))
                for rep in range(config.replicates)]
    except ScheduleError:
        return RiskRow(fn_id, alg.algorithm_id, T, None, None, 0)
    errs = np.array([max(0.0, lo - est, est - hi) for est, _, (lo, hi) in runs])
    n = len(errs)
    return RiskRow(fn_id, alg.algorithm_id, T, float(np.mean(errs)),
                   float(np.std(errs, ddof=1) / math.sqrt(n)), n)


class TestReplicateRuns:
    @pytest.mark.parametrize("T", [1, STEP_CHUNK, STEP_CHUNK + 1])
    @pytest.mark.parametrize("alg", ALGORITHMS.values(), ids=ALGORITHMS)
    @pytest.mark.parametrize("family", FAMILIES.values(), ids=FAMILIES)
    def test_matches_scalar_sessions_bitwise(self, family, alg, T):
        def batched():
            return replicate_runs(family, INTERVAL, SIGMA, T, (alg,), R, SEED, (KEY,))

        if isinstance(alg, BinarySearchSpec) and T == 1:
            with pytest.raises(ScheduleError):
                batched()
            with pytest.raises(ScheduleError):
                scalar_run(family, alg, T, 0)
            return
        (estimates,), (x_stars,) = batched()
        want = [scalar_run(family, alg, T, rep) for rep in range(R)]
        assert np.array_equal(x_stars, [w[1] for w in want])
        assert np.array_equal(estimates, [w[0] for w in want])

    @pytest.mark.parametrize("alg", [ALGORITHMS["binary-search"], ALGORITHMS["sgd-1/t"]],
                             ids=["binary-search", "sgd-1/t"])
    @pytest.mark.parametrize("seed, key", SEEDINGS.values(), ids=SEEDINGS)
    def test_seedings_match_scalar_sessions_bitwise(self, seed, key, alg):
        family, T = FAMILIES["asym-1.5-3"], 100
        (estimates,), (x_stars,) = replicate_runs(family, INTERVAL, SIGMA, T, (alg,), R,
                                                  seed, (key,))
        want = [scalar_run(family, alg, T, rep, seed, key) for rep in range(R)]
        assert np.array_equal(x_stars, [w[1] for w in want])
        assert np.array_equal(estimates, [w[0] for w in want])

    def test_direct_seeds_equal_spawned_children(self):
        for rep in range(3):
            children = replicate_seed(SEED, *KEY, rep).spawn(2)
            for i, child in enumerate(children):
                direct = np.random.SeedSequence(SEED, spawn_key=(*KEY, rep, i))
                assert np.array_equal(direct.generate_state(8),
                                      child.generate_state(8))


def test_estimate_risk_independent_of_jobs():
    config = ExperimentConfig(
        function=FAMILIES["asym-1.5-3"],
        algorithms=(BinarySearchSpec(r=1.5), SgdSpec("1/t"),
                    SgdSpec("1/sqrt(t)", iterate="average")),
        T_grid=(100, 215),
        replicates=20,
        sigma=SIGMA,
        master_seed=SEED,
        initial_interval=INTERVAL,
    )
    assert estimate_risk(config, jobs=1) == estimate_risk(config, jobs=2)


# three SGD variants (one budget group per T) around a binary search
GROUP_ALGORITHMS = (
    SgdSpec("1/t"),
    BinarySearchSpec(r=1.5),
    SgdSpec("1/sqrt(t)", iterate="average"),
    SgdSpec("1/t", scale=0.5, x0=0.3),
)


class TestBudgetGroups:
    @pytest.mark.parametrize("cap", [None, 7], ids=["step-capped", "value-capped"])
    @pytest.mark.parametrize("function", [FAMILIES["asym-1.5-3"],
                                          SymmetricPower(2.0, x_star=0.3)],
                             ids=["family", "fixed"])
    def test_rows_match_scalar_runs_bitwise(self, function, cap, monkeypatch):
        # T = 1 leaves the binary search a missing cell; the larger budget
        # crosses the edge of the group's first noise chunk, which holds
        # STEP_CHUNK steps or, with the value cap lowered, `cap` steps of
        # the 3 * R replicates
        if cap is None:
            T_grid = (1, STEP_CHUNK + 1)
        else:
            monkeypatch.setattr("convexbench.oracle.CHUNK_VALUES", 3 * R * cap + 2)
            T_grid = (1, 2 * cap + 1)
        config = ExperimentConfig(function, GROUP_ALGORITHMS, T_grid, R, SIGMA, SEED,
                                  INTERVAL)
        want = tuple(scalar_row(config, a, t) for a in range(len(GROUP_ALGORITHMS))
                     for t in range(len(T_grid)))
        assert estimate_risk(config).rows == want

    def test_group_matches_its_cells_run_alone(self):
        algs = tuple(a for a in GROUP_ALGORITHMS if isinstance(a, SgdSpec))
        keys = tuple((a, 5) for a in range(len(algs)))
        family, T = FAMILIES["sym-k1.5"], 50
        estimates, x_stars = replicate_runs(family, INTERVAL, SIGMA, T, algs, R, SEED,
                                            keys)
        assert estimates.shape == x_stars.shape == (len(algs), R)
        for alg, key, est, xs in zip(algs, keys, estimates, x_stars):
            alone = [v[0] for v in replicate_runs(family, INTERVAL, SIGMA, T, (alg,), R,
                                                  SEED, (key,))]
            assert np.array_equal(est, alone[0])
            assert np.array_equal(xs, alone[1])

    def test_rows_independent_of_jobs(self):
        config = ExperimentConfig(
            function=FAMILIES["sym-k1.5"],
            algorithms=GROUP_ALGORITHMS,
            T_grid=(1, 10, 100, 464),
            replicates=30,
            sigma=SIGMA,
            master_seed=SEED,
            initial_interval=INTERVAL,
        )
        assert estimate_risk(config, jobs=1) == estimate_risk(config, jobs=2)

    def test_memory_does_not_grow_with_budget(self, monkeypatch):
        # prefetching all step noise at once would add 2R * dT * 8 bytes
        # (79 MB); chunked, at most two chunks are alive at once.  The value
        # cap is lowered so that it, not STEP_CHUNK, sets the chunk size.
        algs, R = (SgdSpec("1/t"), SgdSpec("1/sqrt(t)")), 50
        chunk_values = 2 * R * STEP_CHUNK // 4
        monkeypatch.setattr("convexbench.oracle.CHUNK_VALUES", chunk_values)

        def run(T):
            replicate_runs(FAMILIES["sym-k1.5"], INTERVAL, SIGMA, T, algs, R, 3,
                           ((0, 0), (1, 0)))

        run(10)  # one-time allocations land outside both traced runs
        peaks = []
        for T in (10**3, 10**5):
            tracemalloc.start()
            try:
                run(T)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2 * chunk_values * 8


def test_loglog_slope_matches_scipy_linregress_bitwise():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(5)
    for case in range(300):
        ts = np.unique(rng.integers(1, 10**6, size=rng.integers(3, 10)))
        if len(ts) < 3:
            continue
        ys = np.full(len(ts), 0.3) if case % 10 == 0 else np.exp(rng.normal(size=len(ts)))
        table = RiskTable(tuple(RiskRow("f", "a", int(t), float(y), 0.0, 1)
                                for t, y in zip(ts, ys)))
        fit = fit_loglog_slope(table, "f", "a")
        want = stats.linregress(np.log(ts.astype(float)), np.log(ys))
        got = (fit.slope, fit.intercept, fit.stderr_slope)
        # nan == nan here: a constant curve has no correlation, so no stderr
        np.testing.assert_array_equal(got, (want.slope, want.intercept, want.stderr))


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_constant_estimator_must_be_finite(value):
    with pytest.raises(ValueError, match="finite"):
        ConstantEstimator(value)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
def test_experiment_sigma_must_be_finite(sigma):
    with pytest.raises(FieldError, match="finite") as info:
        ExperimentConfig(SymmetricPower(2.0), (BinarySearchSpec(r=1.5),), (100,), 3,
                         sigma, 1)
    assert info.value.field == "sigma"


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_experiment_seed_must_fit_in_64_unsigned_bits(seed):
    # serialize_config would write a manifest that parse_config cannot rerun
    with pytest.raises(FieldError) as info:
        ExperimentConfig(SymmetricPower(2.0), (BinarySearchSpec(r=1.5),), (100,), 3, 0.1,
                         seed)
    assert info.value.field == "master_seed"


@pytest.mark.parametrize("field, value", [
    ("replicates", 2.5), ("master_seed", 1.5), ("T_grid", (100.5,)),
    ("T_grid", (100, 215.0)), ("replicates", np.int64(3)),
])
def test_experiment_counts_must_be_integers(field, value):
    # serialize_config would write text that parse_config rejects
    config = dict(function=SymmetricPower(2.0), algorithms=(BinarySearchSpec(r=1.5),),
                  T_grid=(100,), replicates=3, sigma=0.1, master_seed=1)
    with pytest.raises(FieldError, match="needs integers") as info:
        ExperimentConfig(**config | {field: value})
    assert info.value.field == field


def test_experiment_algorithms_must_be_algorithm_specs():
    # a ConstantEstimator has no cell to run and no config line
    with pytest.raises(FieldError) as info:
        ExperimentConfig(SymmetricPower(2.0), (ConstantEstimator(0.1),), (100,), 3, 0.1, 1)
    assert info.value.field == "algorithms"


def test_experiment_algorithm_ids_must_differ():
    # two curves with one id would be merged in risk.csv and fitted as one
    with pytest.raises(FieldError, match=r"share the id sgd\(1/t\)") as info:
        ExperimentConfig(SymmetricPower(2.0), (SgdSpec("1/t"), SgdSpec("1/t")),
                         (100,), 3, 0.1, 1)
    assert info.value.field == "algorithms"


@pytest.mark.parametrize("a, b", [
    (BinarySearchSpec(r=1.5), BinarySearchSpec(r=1.5000001)),
    (BinarySearchSpec(r=1.5), BinarySearchSpec(r=1.5, delta=0.1)),
    (SgdSpec("1/t", scale=2.0), SgdSpec("1/t", scale=2.0000001)),
    (SgdSpec("1/t", x0=0.1), SgdSpec("1/t", x0=0.1000001)),
    (ConstantEstimator(0.1), ConstantEstimator(0.1000001)),
])
def test_distinct_specs_have_distinct_ids(a, b):
    # six significant digits, or an id without delta, would merge these
    assert a.algorithm_id != b.algorithm_id


def test_family_ids_write_exact_bounds():
    # six significant digits would give both families the id ...x*~U(-1,1)
    a = FunctionFamily(SymmetricPower(2.0), UniformDist(-1.0, 1.0))
    b = FunctionFamily(SymmetricPower(2.0), UniformDist(-1.0, 1.0000001))
    assert function_id(a) == "sym-power(k=2.0;x*=0.0);x*~U(-1,1)"  # fig2, bisect-deep
    assert function_id(b) == "sym-power(k=2.0;x*=0.0);x*~U(-1,1.0000001)"


@pytest.mark.parametrize("lo, hi", [
    (-math.inf, 1.0), (-1.0, math.inf), (-math.inf, math.inf), (math.nan, 1.0),
])
def test_uniform_bounds_must_be_finite(lo, hi):
    with pytest.raises(ValueError, match="finite"):
        UniformDist(lo, hi)


@pytest.mark.parametrize("args", [
    (-1.0, 0.1, 100, 0.1), (1.0, -0.1, 100, 0.1), (1.0, 0.1, -1, 0.1),
    (1.0, 0.1, 100, 0.0), (1.0, 0.1, 100, math.nan), (math.nan, 0.1, 100, 0.1),
    (math.inf, 0.1, 100, 0.1), (1.0, math.nan, 100, 0.1), (1.0, 0.1, math.inf, 0.1),
    (1.0, 0.1, 100, math.inf),
])
def test_two_point_floor_rejects_bad_arguments(args):
    with pytest.raises(ValueError):
        two_point_floor(*args)


@pytest.mark.parametrize("k", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("T", [100, 1000])
@pytest.mark.parametrize("estimator", [
    ConstantEstimator(0.0), ConstantEstimator(0.05), BinarySearchSpec(r=1.5),
    SgdSpec("1/t"), SgdSpec("1/sqrt(t)"),
], ids=lambda e: e.algorithm_id)
def test_tilted_pair_risks_respect_two_point_floor(k, T, estimator):
    # the tilts g+- = f +- eps_T * x have subgradients exactly kappa = eps_T
    # apart, so the worse of the risks at f and at g+- obeys the floor
    sigma = 0.1
    rep = superefficiency_experiment(SymmetricPower(k), estimator, 0.05, T, sigma,
                                     400, SEED)
    for risk_g, d in [(g.risk, g.d) for g in rep.alternatives]:
        assert d > 0
        assert max(rep.risk_f, risk_g) >= two_point_floor(d, rep.epsilon_T, T, sigma)
