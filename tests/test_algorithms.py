"""Sign-testing binary search, flat-set diagnostics, projected SGD."""
import math

import numpy as np
import pytest
import scalar_reference as ref

from convexbench import (
    Absolute,
    BinarySearchSpec,
    BudgetError,
    OracleBatch,
    ScheduleError,
    SgdSpec,
    SymmetricPower,
    build_function,
    distance,
    epochs_schedule,
    flat_set_diagnostics,
    sgd,
    sign_test_binary_search,
)
from convexbench.algorithms import MAX_T0
from convexbench.experiments import replicate_runs
from convexbench.oracle import replicate_seeds
from one_replicate import one_replicate


def batch_for(spec, sigma, budget, seed=202, domain=(-2.0, 2.0)):
    f = build_function(spec, domain)
    return one_replicate(f, sigma, budget, seed), f


class TestEpochsSchedule:
    def test_reference_values(self):
        assert epochs_schedule(10000, 0.5) == (4, 2500)
        assert epochs_schedule(100, 1.0) == (4, 25)

    def test_too_small_budget(self):
        with pytest.raises(ScheduleError):
            epochs_schedule(2, 0.5)

    def test_total_queries_never_exceed_budget(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            T = int(rng.integers(2, 100_000))
            r = float(rng.uniform(0.05, 4.0))
            try:
                E, T0 = epochs_schedule(T, r)
            except ScheduleError:
                assert math.floor(r * math.log(T)) < 1 or T // max(
                    1, math.floor(r * math.log(T))
                ) < 1
                continue
            assert E >= 1 and T0 >= 1
            assert E * T0 <= T
            assert E == math.floor(r * math.log(T))

    def test_rounds_past_max_t0_are_refused(self):
        # a block read holds a whole round: 1e12 would ask for 182 GiB at once
        with pytest.raises(ValueError, match=r"T=1000000000000 with r=1.5 gives rounds "
                           r"of T0=24390243902 queries") as info:
            epochs_schedule(10**12, 1.5)
        assert not isinstance(info.value, ScheduleError)  # no cell may skip it
        T = MAX_T0 * 21  # floor(ln T) = 21 rounds of exactly MAX_T0
        assert epochs_schedule(T, 1.0) == (21, MAX_T0)
        with pytest.raises(ValueError, match=f"T0={MAX_T0 + 1} "):
            epochs_schedule(T + 21, 1.0)

    @pytest.mark.parametrize("r", [0.06, 1.5])
    def test_every_round_of_a_budget_of_1e8_fits(self, r):
        assert epochs_schedule(10**8, r)[1] <= MAX_T0  # one round of 1e8 at r = 0.06

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            epochs_schedule(0, 1.0)
        with pytest.raises(ValueError):
            epochs_schedule(100, 0.0)

    @pytest.mark.parametrize("r", [math.inf, -math.inf, math.nan])
    def test_r_must_be_finite(self, r):
        with pytest.raises(ValueError, match="r must be positive and finite"):
            epochs_schedule(100, r)
        f = build_function(SymmetricPower(k=2.0), (-2.0, 2.0))
        with pytest.raises(ValueError, match="r must be positive and finite"):
            flat_set_diagnostics(f, T=100, r=r, delta=0.05, sigma=0.1)


class TestBinarySearch:
    def test_noiseless_convergence_bound(self):
        # E = 10 rounds: floor(r ln 100) = 10 with r = 10/ln(100)
        r = 10.0 / math.log(100) + 1e-12
        s, f = batch_for(SymmetricPower(k=2.0, x_star=0.25), 0.0, 100)
        res = sign_test_binary_search(s, BinarySearchSpec(r=r))
        assert res.queries_used == 100  # E*T0 = 10*10
        assert abs(res.estimate - 0.25) <= 2**-10 * 4.0

    def test_single_round_step(self):
        # midpoint 0, subgradient f'(0) = -0.25 < 0 -> keep right half (0, 2)
        s, f = batch_for(SymmetricPower(k=2.0, x_star=0.25), 0.0, 8)
        res = sign_test_binary_search(s, BinarySearchSpec(r=0.5))  # E = floor(0.5 ln 8) = 1
        assert len(res.trace) == 1
        rec = res.trace[0]
        assert rec.query_point == 0.0
        assert rec.mean_gradient == -0.25
        assert rec.interval == (0.0, 2.0)

    def test_interval_width_exactly_halves(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a0 = float(rng.uniform(-3, 0))
            b0 = float(rng.uniform(0.5, 3))
            s, f = batch_for(
                SymmetricPower(k=2.0, x_star=0.1), 0.3, 200, domain=(a0, b0)
            )
            res = sign_test_binary_search(s, BinarySearchSpec(r=1.0))
            for rec in res.trace:
                assert rec.width == (b0 - a0) * 0.5**rec.round

    def test_estimate_is_midpoint_of_final_interval(self):
        s, f = batch_for(SymmetricPower(k=2.0), 0.1, 500)
        res = sign_test_binary_search(s, BinarySearchSpec(r=1.0))
        lo, hi = res.trace[-1].interval
        assert res.estimate == lo + 0.5 * res.trace[-1].width

    def test_query_accounting_exact(self):
        s, f = batch_for(SymmetricPower(k=3.0), 0.1, 1000)
        res = sign_test_binary_search(s, BinarySearchSpec(r=1.5))
        E, T0 = epochs_schedule(1000, 1.5)
        assert res.queries_used == E * T0 == s.queries_used

    def test_budget_error_propagates(self):
        s, f = batch_for(SymmetricPower(k=2.0), 0.1, 100)
        s.query_block_all(np.zeros(1), 99)  # leave less than E*T0
        with pytest.raises(BudgetError):
            sign_test_binary_search(s, BinarySearchSpec(r=1.0))

    def test_schedule_error_propagates(self):
        s, f = batch_for(SymmetricPower(k=2.0), 0.1, 2)
        with pytest.raises(ScheduleError):
            sign_test_binary_search(s, BinarySearchSpec(r=0.5))

    def test_minimizer_outside_interval_converges_to_endpoint(self):
        s, f = batch_for(SymmetricPower(k=2.0, x_star=1.5), 0.0, 100, domain=(-2.0, 0.0))
        res = sign_test_binary_search(s, BinarySearchSpec(r=2.0))
        E, _ = epochs_schedule(100, 2.0)
        assert abs(res.estimate - 0.0) <= 2.0**-E * 2.0  # nearest endpoint region

    def test_noiseless_error_bound_random_targets(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            x_star = float(rng.uniform(-1, 1))
            T = int(rng.integers(50, 2000))
            r = float(rng.uniform(0.8, 2.0))
            try:
                E, T0 = epochs_schedule(T, r)
            except ScheduleError:
                continue
            s, f = batch_for(SymmetricPower(k=2.0, x_star=x_star), 0.0, T)
            res = sign_test_binary_search(s, BinarySearchSpec(r=r))
            assert distance((res.estimate,) * 2, f.minimizer_set) <= 2.0**-E * 4.0


class TestFlatSetDiagnostics:
    def test_reference_constant(self):
        f = build_function(SymmetricPower(k=2.0), (-2.0, 2.0))
        c_delta, i_delta, radius = flat_set_diagnostics(
            f, T=10000, r=0.5, delta=0.05, sigma=0.1
        )
        # sigma * sqrt(2 ln(E/delta)) with E = 4: 0.1 * sqrt(2 ln 80)
        assert c_delta == pytest.approx(0.1 * math.sqrt(2 * math.log(80.0)), rel=1e-12)
        assert c_delta == pytest.approx(0.2960, abs=1e-4)
        thr = c_delta / math.sqrt(2500)
        assert i_delta[0] == pytest.approx(-thr, abs=1e-9)
        assert i_delta[1] == pytest.approx(thr, abs=1e-9)
        assert radius == 2.0**-4 * 4.0

    def test_delta_near_one_shrinks_constant(self):
        f = build_function(SymmetricPower(k=2.0), (-2.0, 2.0))
        c_delta, _, _ = flat_set_diagnostics(
            f, T=8, r=0.5, delta=0.999, sigma=0.1
        )  # E = 1
        assert 0.0 < c_delta < 0.005

    def test_absolute_flat_set_is_minimizer(self):
        f = build_function(Absolute(0.0), (-2.0, 2.0))
        _, (lo, hi), _ = flat_set_diagnostics(f, T=10000, r=0.5, delta=0.05, sigma=0.1)
        assert abs(lo) <= 1e-10 and abs(hi) <= 1e-10

    def test_custom_initial_interval_changes_radius(self):
        f = build_function(SymmetricPower(k=2.0), (-1.0, 1.0))
        _, _, radius = flat_set_diagnostics(
            f, T=10000, r=0.5, delta=0.05, sigma=0.1
        )
        assert radius == 2.0**-4 * 2.0

    def test_schedule_error_propagates(self):
        f = build_function(SymmetricPower(k=2.0), (-2.0, 2.0))
        with pytest.raises(ScheduleError):
            flat_set_diagnostics(f, T=2, r=0.5, delta=0.05, sigma=0.1)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_sigma_must_be_finite(self, sigma):
        f = build_function(SymmetricPower(k=2.0), (-2.0, 2.0))
        with pytest.raises(ValueError, match="finite"):
            flat_set_diagnostics(f, T=10000, r=0.5, delta=0.05, sigma=sigma)

    def test_coverage_empirical(self):
        # the search lands within the resolution bound of the flat interval
        # in all but a delta-fraction of replicates (small pilot; the
        # acceptance suite runs the full-size version)
        n, T, rr, delta, sigma = 200, 10000, 0.5, 0.05, 0.1
        rng = np.random.default_rng(42)
        fails = 0
        for i in range(n):
            x_star = float(rng.uniform(-1, 1))
            s, f = batch_for(
                SymmetricPower(k=2.0, x_star=x_star), sigma, T, seed=1000 + i
            )
            res = sign_test_binary_search(s, BinarySearchSpec(r=rr, delta=delta))
            _, (lo, hi), radius = flat_set_diagnostics(f, T, rr, delta, sigma)
            dist = max(0.0, lo - res.estimate, res.estimate - hi)
            fails += dist > radius
        assert fails / n <= delta + 3 * math.sqrt(delta * (1 - delta) / n)


class TestSgd:
    def test_first_step_cancels_exactly_for_quadratic(self):
        # eta(1) = 1 and the subgradient at x equals x - x_star
        s, f = batch_for(SymmetricPower(k=2.0, x_star=0.0), 0.0, 2)
        spec = SgdSpec(schedule="1/t", x0=0.7)
        res = sgd(s, spec, record_trace=True)
        assert res.trace[0].query_point == 0.7
        assert res.trace[1].query_point == 0.0

    def test_start_point_projected_before_first_query(self):
        s, f = batch_for(SymmetricPower(k=2.0), 0.0, 1)
        spec = SgdSpec(schedule="1/t", x0=-3.0)
        res = sgd(s, spec, record_trace=True)
        assert res.trace[0].query_point == -2.0

    def test_every_query_inside_projection_interval(self):
        s, f = batch_for(SymmetricPower(k=3.0), 0.5, 400)
        spec = SgdSpec(schedule="1/sqrt(t)", x0=1.9)
        res = sgd(s, spec, record_trace=True)
        assert len(res.trace) == 400
        for rec in res.trace:
            assert -2.0 <= rec.query_point <= 2.0
        assert -2.0 <= res.estimate <= 2.0

    def test_consumes_exactly_budget(self):
        s, f = batch_for(SymmetricPower(k=2.0), 0.1, 123)
        res = sgd(s, SgdSpec(schedule="1/t", x0=0.5))
        assert res.queries_used == 123 == s.queries_used == s.budget

    def test_average_iterate(self):
        s, f = batch_for(SymmetricPower(k=2.0), 0.0, 3)
        spec = SgdSpec(schedule="1/t", iterate="average", x0=0.9)
        res = sgd(s, spec, record_trace=True)
        pts = [rec.query_point for rec in res.trace]
        assert res.estimate == pytest.approx(np.mean(pts), rel=1e-15)

    def test_unresolved_uniform_start_rejected(self):
        s, f = batch_for(SymmetricPower(k=2.0), 0.1, 10)
        with pytest.raises(ValueError):
            sgd(s, SgdSpec(schedule="1/t"))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SgdSpec(schedule="1/t^2")
        with pytest.raises(ValueError):
            SgdSpec(schedule="1/t", scale=0.0)
        with pytest.raises(ValueError):
            BinarySearchSpec(r=-1.0)
        with pytest.raises(ValueError):
            BinarySearchSpec(r=1.0, delta=1.5)


class TestSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        {"iterate": "averge"}, {"scale": -1.0}, {"scale": math.inf},
        {"x0": "middle"},
    ])
    def test_sgd_spec_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SgdSpec(schedule="1/t", **kwargs)

    @pytest.mark.parametrize("kwargs", [{"r": math.inf}, {"r": math.nan}])
    def test_binary_search_spec_rejects(self, kwargs):
        with pytest.raises(ValueError):
            BinarySearchSpec(**kwargs)


class TestAdaptersMatchScalarReference:
    """The R = 1 adapters against the plain scalar loops, with noise on."""

    def test_binary_search(self):
        for seed in range(5):
            s, f = batch_for(SymmetricPower(k=1.5, x_star=0.3), 0.1, 1000, seed=seed)
            got = sign_test_binary_search(s, BinarySearchSpec(r=1.5))
            oracle = ref.ReferenceOracle(f, 0.1, np.random.SeedSequence(seed))
            assert got.estimate == ref.binary_search(oracle, 1000, 1.5, (-2.0, 2.0))

    @pytest.mark.parametrize("schedule", ["1/t", "1/sqrt(t)"])
    @pytest.mark.parametrize("iterate", ["last", "average"])
    def test_sgd(self, schedule, iterate):
        for seed in range(3):
            s, f = batch_for(SymmetricPower(k=3.0, x_star=-0.2), 0.1, 1500,
                               seed=seed)
            spec = SgdSpec(schedule, scale=0.5, iterate=iterate, x0=1.2)
            got = sgd(s, spec, record_trace=True)
            oracle = ref.ReferenceOracle(f, 0.1, np.random.SeedSequence(seed))
            assert got.estimate == ref.sgd(oracle, 1500, schedule, 0.5, iterate,
                                           1.2, (-2.0, 2.0))


class TestAdaptersOnOneReplicate:
    """The R = 1 adapters take a one-replicate batch and no other."""

    @pytest.mark.parametrize("run, alg", [
        (sign_test_binary_search, BinarySearchSpec(r=1.0)),
        (sgd, SgdSpec("1/t", x0=0.5)),
    ])
    @pytest.mark.parametrize("R", [0, 2])
    def test_other_sizes_rejected(self, run, alg, R):
        f = build_function(SymmetricPower(k=2.0), (-2.0, 2.0))
        seeds = replicate_seeds(1, (), R, 1)
        batch = OracleBatch(f.spec, None, f.domain, 0.1, 100, seeds)
        with pytest.raises(ValueError, match="one-replicate"):
            run(batch, alg)
        assert batch.queries_used == 0

    # 600 replicates cap a cell's step chunks at 873 steps, one replicate at
    # 1024, so the chunk boundaries differ
    @pytest.mark.parametrize("alg", [
        BinarySearchSpec(r=1.5),
        SgdSpec("1/t", x0=0.5),
        SgdSpec("1/sqrt(t)", scale=0.5, iterate="average", x0=-0.3),
    ])
    def test_replay_a_replicate_of_a_cell(self, alg):
        spec, interval = SymmetricPower(k=1.5, x_star=0.3), (-2.0, 2.0)
        sigma, T, R = 0.1, 2000, 600
        ((cell,),), _ = replicate_runs((spec,), interval, sigma, T, (alg,), R, 7, ((3, 1),))
        seeds = replicate_seeds(7, (3, 1), R, 1)
        run = sign_test_binary_search if isinstance(alg, BinarySearchSpec) else sgd
        for r in (0, 17, R - 1):
            batch = OracleBatch(spec, None, interval, sigma, T, [seeds[r]])
            assert run(batch, alg).estimate == cell[r]
