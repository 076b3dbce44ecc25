"""Risk harness: lockstep replicate runs against scalar loops, seeds, jobs,
slope fits, the two-point risk floor."""
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scalar_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st
from random_specs import (
    X_STAR_SPECS,
    coordinates,
    ordered_pairs,
    piecewise_linears,
    tilt_sizes,
    x_star_specs,
)

from convexbench import (
    Absolute,
    AsymmetricPower,
    BinarySearchSpec,
    ConstantEstimator,
    ExperimentConfig,
    FieldError,
    FunctionFamily,
    PiecewiseLinear,
    RiskRow,
    RiskTable,
    ScheduleError,
    SgdSpec,
    SymmetricPower,
    Tilt,
    UniformDist,
    build_function,
    estimate_risk,
    estimate_risks,
    fit_loglog_slope,
    modulus_analytic,
    modulus_numeric,
    replicate_seed,
    spec_id,
    superefficiency_experiment,
    two_point_floor,
    with_x_star,
)
from convexbench import experiments
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


def scalar_run(function, alg, T, rep, seed=SEED, key=KEY, interval=INTERVAL):
    """One replicate through the scalar reference loops on ``interval``,
    seeded as the harness documents: (estimate, minimizer draw or None,
    minimizer set)."""
    env_seed, noise_seed = replicate_seed(seed, *key, rep).spawn(2)
    env = np.random.Generator(np.random.PCG64(env_seed))
    x_star = None
    if isinstance(function, FunctionFamily):
        x_star = env.uniform(function.x_star.lo, function.x_star.hi)
        function = with_x_star(function.template, x_star)
    f = build_function(function, interval)
    oracle = ref.ReferenceOracle(f, SIGMA, noise_seed)
    if isinstance(alg, BinarySearchSpec):
        estimate = ref.binary_search(oracle, T, alg.r, interval)
    else:
        x0 = env.uniform(*interval) if alg.x0 == "uniform" else alg.x0
        estimate = ref.sgd(oracle, T, alg.schedule, alg.scale, alg.iterate, x0,
                           interval)
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


uniform_laws = ordered_pairs.map(lambda p: UniformDist(*p))
# every catalog kind, as fixed specs and as families whose minimizer law is
# random too; a piecewise-linear spec has no x_star, so no family
RANDOM_FUNCTIONS = {kind: st.one_of(specs, st.builds(FunctionFamily, specs, uniform_laws))
                    for kind, specs in X_STAR_SPECS.items()}
RANDOM_FUNCTIONS["piecewise-linear"] = piecewise_linears()
RANDOM_FUNCTIONS["tilt"] = st.one_of(
    st.builds(Tilt, st.one_of(x_star_specs, piecewise_linears()), tilt_sizes),
    st.builds(FunctionFamily, st.builds(Tilt, x_star_specs, tilt_sizes), uniform_laws))
random_algorithms = st.one_of(
    st.builds(BinarySearchSpec, st.floats(0.2, 3.0)),
    st.builds(SgdSpec, st.sampled_from(["1/t", "1/sqrt(t)"]), st.floats(0.01, 10.0),
              st.sampled_from(["last", "average"]),
              st.one_of(st.just("uniform"), coordinates)),
)


class TestReplicateRuns:
    @pytest.mark.parametrize("T", [1, STEP_CHUNK, STEP_CHUNK + 1])
    @pytest.mark.parametrize("alg", ALGORITHMS.values(), ids=ALGORITHMS)
    @pytest.mark.parametrize("family", FAMILIES.values(), ids=FAMILIES)
    def test_matches_scalar_sessions_bitwise(self, family, alg, T):
        def batched():
            return tuple(v[0] for v in replicate_runs((family,), INTERVAL, SIGMA, T, (alg,),
                                                      R, SEED, (KEY,)))

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
        (estimates,), (x_stars,) = (v[0] for v in replicate_runs((family,), INTERVAL, SIGMA,
                                                                 T, (alg,), R, seed, (key,)))
        want = [scalar_run(family, alg, T, rep, seed, key) for rep in range(R)]
        assert np.array_equal(x_stars, [w[1] for w in want])
        assert np.array_equal(estimates, [w[0] for w in want])

    @pytest.mark.parametrize("functions", RANDOM_FUNCTIONS.values(), ids=RANDOM_FUNCTIONS)
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_units_match_scalar_sessions_bitwise(self, functions, data):
        # bound, fixed before the first run: exact equality (==) of every
        # estimate and minimizer draw, on any domain, budget and algorithm
        function, interval = data.draw(functions), data.draw(ordered_pairs)
        alg, T = data.draw(random_algorithms), data.draw(st.integers(1, 200))
        reps, seed = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2**64 - 1))
        key = data.draw(st.tuples(st.integers(0, 9), st.integers(0, 9)))

        def scalar(rep):
            return scalar_run(function, alg, T, rep, seed, key, interval)

        try:
            estimates, x_stars = replicate_runs((function,), interval, SIGMA, T, (alg,),
                                                reps, seed, (key,))
        except ScheduleError:
            with pytest.raises(ScheduleError):
                scalar(0)
            return
        want = [scalar(rep) for rep in range(reps)]
        assert np.array_equal(estimates[0, 0], [w[0] for w in want])
        if x_stars is None:
            assert not isinstance(function, FunctionFamily)
        else:
            assert np.array_equal(x_stars[0, 0], [w[1] for w in want])

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
        estimates, x_stars = (v[0] for v in replicate_runs((family,), INTERVAL, SIGMA, T,
                                                           algs, R, SEED, keys))
        assert estimates.shape == x_stars.shape == (len(algs), R)
        for alg, key, est, xs in zip(algs, keys, estimates, x_stars):
            alone = [v[0][0] for v in replicate_runs((family,), INTERVAL, SIGMA, T, (alg,),
                                                     R, SEED, (key,))]
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
            replicate_runs((FAMILIES["sym-k1.5"],), INTERVAL, SIGMA, T, algs, R, 3,
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


# functions that share a unit's replicates: families (one with a tilted
# template and a minimizer law of its own), and fixed specs (one with no x_star)
SHARED_FUNCTIONS = {
    "families": (FAMILIES["sym-k1.5"], FAMILIES["asym-1.5-3"],
                 FunctionFamily(Tilt(SymmetricPower(2.0), 0.05), UniformDist(-0.5, 1.0))),
    "fixed": (SymmetricPower(2.0, x_star=0.3), Tilt(AsymmetricPower(1.5, 3.0, -0.2), -0.05),
              PiecewiseLinear((-0.5, 0.5), (-1.0, 0.0, 2.0))),
}
UNITS = {  # the SGD group holds an averaged spec and a numeric start
    "binary-search": (BinarySearchSpec(r=1.5),),
    "sgd-group": tuple(a for a in GROUP_ALGORITHMS if isinstance(a, SgdSpec)),
}


class TestFunctionsAxis:
    @pytest.mark.parametrize("algs", UNITS.values(), ids=UNITS)
    @pytest.mark.parametrize("functions", SHARED_FUNCTIONS.values(), ids=SHARED_FUNCTIONS)
    def test_rows_equal_one_function_runs(self, functions, algs):
        keys, T, R = tuple((a, 2) for a in range(len(algs))), 300, 10
        estimates, x_stars = replicate_runs(functions, INTERVAL, SIGMA, T, algs, R, SEED,
                                            keys)
        assert estimates.shape == (len(functions), len(algs), R)
        for p, function in enumerate(functions):
            alone, alone_x_stars = replicate_runs((function,), INTERVAL, SIGMA, T, algs, R,
                                                  SEED, keys)
            assert np.array_equal(estimates[p], alone[0])
            if x_stars is None:
                assert alone_x_stars is None
            else:
                assert np.array_equal(x_stars[p], alone_x_stars[0])

    @staticmethod
    def configs(functions):
        return [ExperimentConfig(f, GROUP_ALGORITHMS, (1, 10, 100), R, SIGMA, SEED, INTERVAL)
                for f in functions]

    @pytest.mark.parametrize("functions", SHARED_FUNCTIONS.values(), ids=SHARED_FUNCTIONS)
    def test_tables_equal_each_config_run_alone(self, functions):
        # T = 1 leaves the binary search a missing cell in every table
        configs = self.configs(functions)
        tables = estimate_risks(configs, jobs=1)
        assert tables == estimate_risks(configs, jobs=2)
        assert tables == [estimate_risk(c) for c in configs]

    @pytest.mark.parametrize("change", [
        {"sigma": 0.2}, {"replicates": R + 1}, {"master_seed": SEED + 1},
        {"T_grid": (1, 10)}, {"algorithms": GROUP_ALGORITHMS[:2]},
        {"initial_interval": (-1.0, 2.0)},
    ])
    def test_configs_may_differ_only_in_function(self, change):
        config, other = self.configs(SHARED_FUNCTIONS["families"][:2])
        with pytest.raises(ValueError, match="differ only in function"):
            estimate_risks([config, replace(other, **change)])

    def test_families_and_fixed_specs_share_no_replicates(self):
        # a family's replicates draw one value more, so their SGD starts differ
        family, fixed = SHARED_FUNCTIONS["families"][0], SHARED_FUNCTIONS["fixed"][0]
        with pytest.raises(ValueError, match="all be families or all be fixed"):
            estimate_risks(self.configs((family, fixed)))
        with pytest.raises(ValueError, match="all be families or all be fixed"):
            replicate_runs((fixed, family), INTERVAL, SIGMA, 10, UNITS["sgd-group"], R,
                           SEED, ((0, 0), (1, 0), (2, 0)))
        with pytest.raises(ValueError, match="at least one config"):
            estimate_risks([])


def test_pool_has_no_more_workers_than_units(monkeypatch):
    workers = []

    class SerialPool:  # records its size and maps in this process
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
    # one binary-search unit and one SGD budget group at each of two budgets
    config = ExperimentConfig(FAMILIES["sym-k1.5"], GROUP_ALGORITHMS, (10, 100), R,
                              SIGMA, SEED, INTERVAL)
    assert estimate_risk(config, jobs=32) == estimate_risk(config, jobs=1)
    assert workers == [4]
    estimate_risk(config, jobs=3)
    assert workers == [4, 3]


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


def test_experiment_binary_search_rounds_must_fit_one_block_read():
    # rounds of T0 = 24,390,243,902 readings: refused before anything is drawn
    with pytest.raises(FieldError, match="T0=24390243902") as info:
        ExperimentConfig(SymmetricPower(2.0), (SgdSpec("1/t"), BinarySearchSpec(r=1.5)),
                         (2, 100, 10**12), 3, 0.1, 1)
    assert info.value.field == "T_grid"
    # a budget too small for a round is a missing cell, an SGD budget has no rounds
    ExperimentConfig(SymmetricPower(2.0), (BinarySearchSpec(r=1.5),), (2, 10**8), 3,
                     0.1, 1)
    ExperimentConfig(SymmetricPower(2.0), (SgdSpec("1/t"),), (10**12,), 3, 0.1, 1)


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


# -- superefficiency: the report runs on the harness ------------------------

SUPER_DOMAIN = (-1.0, 1.0)
SUPER_T = 1000
SUPER_R = 200


def superefficiency(spec, estimator, delta=0.05):
    return superefficiency_experiment(spec, estimator, delta, SUPER_T, SIGMA, SUPER_R, SEED,
                                      SUPER_DOMAIN)


@pytest.mark.parametrize("estimator", [BinarySearchSpec(r=1.5), SgdSpec("1/t")],
                         ids=lambda e: e.algorithm_id)
def test_superefficiency_rows_are_estimate_risk_rows(estimator):
    spec = AsymmetricPower(1.5, 3.0, 0.3)
    rep = superefficiency(spec, estimator)
    eps = rep.epsilon_T
    assert [g.tilt for g in rep.alternatives] == [eps, -eps]
    reported = [(rep.risk_f, rep.stderr_f), *((g.risk, g.stderr) for g in rep.alternatives)]
    for target, risk in zip((spec, Tilt(spec, eps), Tilt(spec, -eps)), reported):
        (row,) = estimate_risk(ExperimentConfig(target, (estimator,), (SUPER_T,), SUPER_R,
                                                SIGMA, SEED, SUPER_DOMAIN)).rows
        assert risk == (row.mean_err, row.stderr)


def test_sgd_reads_one_risk_at_f_and_its_tilts_on_the_quadratic():
    # common random numbers: on sym-k2 the 1/t iterates' error does not depend
    # on where the minimizer sits, so only rounding separates the three risks
    rep = superefficiency(SymmetricPower(2.0, 0.3), SgdSpec("1/t"))
    for g in rep.alternatives:
        assert g.d > 0
        assert g.risk == pytest.approx(rep.risk_f, rel=1e-12, abs=0.0)


def test_constant_estimator_at_the_minimizer_meets_the_risk_inequality_with_equality():
    spec = AsymmetricPower(1.5, 3.0, 0.3)
    rep = superefficiency(spec, ConstantEstimator(0.3))
    assert (rep.risk_f, rep.stderr_f) == (0.0, 0.0)
    for g in rep.alternatives:
        assert g.d > 0
        assert (g.risk, g.stderr) == (g.d, 0.0)


@pytest.mark.parametrize("x_hat", [-1.5, 5.0])
def test_constant_estimate_outside_the_domain_is_refused(x_hat):
    with pytest.raises(ValueError, match=r"x_hat must lie in the domain \[-1.0, 1.0\]"):
        superefficiency(SymmetricPower(2.0), ConstantEstimator(x_hat))


def test_constant_estimate_at_a_domain_end_is_accepted():
    rep = superefficiency(SymmetricPower(2.0), ConstantEstimator(SUPER_DOMAIN[1]))
    assert rep.risk_f == 1.0


@pytest.mark.parametrize("delta", [0.05, 0.2])
@pytest.mark.parametrize("spec", [
    SymmetricPower(1.5, 0.3), SymmetricPower(2.0, 0.3), SymmetricPower(3.0, 0.3),
    AsymmetricPower(1.5, 3.0, 0.3),
], ids=spec_id)
@pytest.mark.parametrize("estimator", [
    BinarySearchSpec(r=1.5), SgdSpec("1/t"), SgdSpec("1/sqrt(t)"),
], ids=lambda e: e.algorithm_id)
def test_tilted_risks_meet_the_constrained_risk_inequality(delta, spec, estimator):
    # R_g >= d - rms_f / (2 sqrt(2) delta) (see experiments.DELTA_MAX); the
    # Monte-Carlo risk at g may fall short of it by 3 of its standard errors
    rep = superefficiency(spec, estimator, delta)
    rms_f = math.sqrt(rep.risk_f**2 + (SUPER_R - 1) * rep.stderr_f**2)
    for g in rep.alternatives:
        bound = g.d - rms_f / (2.0 * math.sqrt(2.0) * delta)
        assert g.risk >= bound - 3.0 * g.stderr


@pytest.mark.parametrize("domain", [(1.0, -1.0), (-math.inf, 1.0)])
@pytest.mark.parametrize("estimator", [ConstantEstimator(), BinarySearchSpec(r=1.5)],
                         ids=lambda e: type(e).__name__)
def test_superefficiency_refuses_a_domain_not_finite_with_a_below_b(domain, estimator):
    with pytest.raises(ValueError, match=r"domain must be finite with a < b, got \["):
        superefficiency_experiment(SymmetricPower(2.0), estimator, 0.05, SUPER_T, SIGMA,
                                   SUPER_R, SEED, domain)


# the benchmark's superefficiency targets (perfbench/workloads.py), at the
# CLI's defaults: T = 10000, sigma = 0.1, --modulus-scale 1 on (-1, 1)
REFERENCE_TARGETS = [SymmetricPower(1.5), SymmetricPower(2.0), SymmetricPower(3.0),
                     AsymmetricPower(1.5, 2.0), AsymmetricPower(1.5, 3.0),
                     AsymmetricPower(2.0, 3.0), Absolute(),
                     PiecewiseLinear((-0.5, 0.0, 0.5), (-2.0, -0.5, 1.0, 3.0))]


@pytest.mark.parametrize("delta", [0.01, 0.05, 0.1, 0.15, 0.2])
@pytest.mark.parametrize("spec", REFERENCE_TARGETS, ids=spec_id)
def test_reference_moduli_are_the_closed_form(spec, delta):
    rep = superefficiency_experiment(spec, ConstantEstimator(), delta, 10_000, 0.1, 1, SEED,
                                     SUPER_DOMAIN)
    for g in rep.alternatives:
        tilted = Tilt(spec, g.tilt)
        assert g.omega_ref == modulus_analytic(tilted, rep.epsilon_T, SUPER_DOMAIN)
        numeric = modulus_numeric(build_function(tilted, SUPER_DOMAIN), rep.epsilon_T)
        assert abs(g.omega_ref - numeric) <= 1e-9
