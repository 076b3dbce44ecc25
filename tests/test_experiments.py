"""Risk harness: lockstep replicate runs against scalar loops, seeds, jobs,
slope fits."""
import numpy as np
import pytest
import scalar_reference as ref

from convexbench import (
    AsymmetricPower,
    BinarySearchSpec,
    ConstantEstimator,
    ExperimentConfig,
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
    with_x_star,
)
from convexbench.experiments import replicate_runs
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


def scalar_run(family, alg, T, rep):
    """One replicate through the scalar reference loops, seeded as the
    harness documents."""
    env_seed, noise_seed = replicate_seed(SEED, *KEY, rep).spawn(2)
    env = np.random.Generator(np.random.PCG64(env_seed))
    x_star = env.uniform(family.x_star.lo, family.x_star.hi)
    f = build_function(with_x_star(family.template, x_star), INTERVAL)
    oracle = ref.ReferenceOracle(f, SIGMA, noise_seed)
    if isinstance(alg, BinarySearchSpec):
        estimate = ref.binary_search(oracle, T, alg.r, INTERVAL)
    else:
        x0 = env.uniform(*INTERVAL)
        estimate = ref.sgd(oracle, T, alg.schedule, alg.scale, alg.iterate, x0,
                           INTERVAL)
    return estimate, x_star


class TestReplicateRuns:
    @pytest.mark.parametrize("T", [1, STEP_CHUNK, STEP_CHUNK + 1])
    @pytest.mark.parametrize("alg", ALGORITHMS.values(), ids=ALGORITHMS)
    @pytest.mark.parametrize("family", FAMILIES.values(), ids=FAMILIES)
    def test_matches_scalar_sessions_bitwise(self, family, alg, T):
        def batched():
            return replicate_runs(family, INTERVAL, SIGMA, T, alg, R, SEED, KEY)

        if isinstance(alg, BinarySearchSpec) and T == 1:
            with pytest.raises(ScheduleError):
                batched()
            with pytest.raises(ScheduleError):
                scalar_run(family, alg, T, 0)
            return
        estimates, x_stars = batched()
        want = [scalar_run(family, alg, T, rep) for rep in range(R)]
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
