"""Modulus computations: closed forms, flat sets, conjugate intervals, fits."""
import math

import numpy as np
import pytest
import scalar_reference as ref

from convexbench import (
    Absolute,
    AsymmetricPower,
    DataError,
    GrowthProfile,
    ModulusCurve,
    ModulusSample,
    PiecewiseLinear,
    SlopeRangeError,
    SymmetricPower,
    Tilt,
    big_H,
    build_function,
    conjugate_subdifferential,
    fit_growth_exponent,
    flat_set,
    modulus_analytic,
    modulus_bounds_from_growth,
    modulus_numeric,
    sample_modulus_curve,
)
from convexbench.functions import level_set, subdiff_interval, subgrad_spec

D11 = (-1.0, 1.0)


class TestModulusAnalytic:
    def test_quadratic(self):
        assert modulus_analytic(SymmetricPower(k=2.0), 0.01, D11) == 0.01

    def test_asymmetric_uses_flatter_side(self):
        # eps^(1/(3-1)) = sqrt(0.01) = 0.1
        w = modulus_analytic(AsymmetricPower(1.5, 3.0), 0.01, D11)
        assert w == pytest.approx(0.1, rel=1e-15)

    def test_cubic(self):
        assert modulus_analytic(SymmetricPower(k=3.0), 0.04, D11) == pytest.approx(
            0.2, rel=1e-15
        )

    def test_capped_at_farther_endpoint(self):
        w = modulus_analytic(SymmetricPower(k=2.0, x_star=0.5), 10.0, D11)
        assert w == 1.5

    def test_closed_form_for_every_kind(self):
        # f' = x + 0.1 on the tilt: flat set (-0.11, -0.09), minimizer -0.1
        cases = ((Absolute(), 0.0), (Tilt(SymmetricPower(k=2.0), 0.1), 0.01),
                 (PiecewiseLinear((0.0,), (-1.0, 1.0)), 0.0))
        for spec, expected in cases:
            w = modulus_analytic(spec, 0.01, D11)
            assert w == pytest.approx(expected, abs=1e-15)
            assert w == pytest.approx(
                modulus_numeric(build_function(spec, D11), 0.01), abs=1e-9)

    def test_caps_each_side_by_its_own_domain_end(self):
        # the steep side's flat end lies outside the domain, the flat side's
        # inside it: the modulus is the distance to the nearer domain end
        spec = AsymmetricPower(3.0, 1.5)
        assert modulus_analytic(spec, 0.5, (-0.5, 3.0)) == 0.5
        # past eps = 1 the side with the smaller exponent is the flatter one
        spec = AsymmetricPower(1.5, 3.0)
        assert modulus_analytic(spec, 2.0, (-10.0, 10.0)) == 4.0

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            modulus_analytic(SymmetricPower(k=2.0), 0.0, D11)


class TestModulusNumeric:
    def test_absolute_flat_set_is_minimizer(self):
        f = build_function(Absolute(0.0), D11)
        assert modulus_numeric(f, 0.5) <= 1e-11

    def test_matches_analytic_for_quadratic(self):
        f = build_function(SymmetricPower(k=2.0), D11)
        w = modulus_numeric(f, 0.01)
        assert abs(w - 0.01) <= 1e-10
        # independent check: dense scan of the subgradient magnitude
        xs = np.linspace(-1, 1, 2_000_001)
        inside = xs[np.abs(subgrad_spec(f.spec, xs)) < 0.01]
        assert abs(max(abs(inside[0]), abs(inside[-1])) - w) < 1e-5

    def test_flat_set_capped_at_domain(self):
        f = build_function(SymmetricPower(k=2.0), D11)
        assert modulus_numeric(f, 2.0) == 1.0

    def test_rejects_bad_epsilon(self):
        f = build_function(SymmetricPower(k=2.0), D11)
        with pytest.raises(ValueError):
            modulus_numeric(f, -0.1)

    def test_agreement_with_analytic_on_log_grid(self):
        specs = [SymmetricPower(k=1.5), SymmetricPower(k=2.0), SymmetricPower(k=3.0),
                 AsymmetricPower(1.5, 2.0), AsymmetricPower(1.5, 3.0),
                 AsymmetricPower(2.0, 3.0)]
        for spec in specs:
            f = build_function(spec, D11)
            for eps in np.geomspace(1e-6, 1e-1, 20):
                wa = modulus_analytic(spec, float(eps), D11)
                wn = modulus_numeric(f, float(eps))
                assert abs(wa - wn) <= 1e-6

    def test_monotone_in_epsilon(self):
        f = build_function(AsymmetricPower(1.5, 3.0, x_star=0.2), (-2.0, 2.0))
        ws = [modulus_numeric(f, float(e)) for e in np.geomspace(1e-5, 1.0, 25)]
        assert all(w2 >= w1 - 1e-12 for w1, w2 in zip(ws, ws[1:]))


class TestConjugateSubdifferential:
    def test_quadratic_slope_inverse(self):
        f = build_function(SymmetricPower(k=2.0), D11)
        lo, hi = conjugate_subdifferential(f, 0.3)
        assert lo == pytest.approx(0.3, abs=1e-11)
        assert hi == pytest.approx(0.3, abs=1e-11)

    def test_absolute_kink_absorbs_intermediate_slopes(self):
        f = build_function(Absolute(0.0), D11)
        lo, hi = conjugate_subdifferential(f, 0.5)
        assert abs(lo) <= 1e-11 and abs(hi) <= 1e-11

    def test_cubic_negative_slope(self):
        f = build_function(SymmetricPower(k=3.0), D11)
        lo, hi = conjugate_subdifferential(f, -0.04)
        assert lo == pytest.approx(-0.2, abs=1e-9)
        # verified by substitution back through the subgradient
        assert subgrad_spec(f.spec, lo) == pytest.approx(-0.04, abs=1e-10)

    def test_zero_slope_recovers_minimizer_set(self):
        f = build_function(
            PiecewiseLinear(breakpoints=(-0.25, 0.5), slopes=(-1.0, 0.0, 2.0)),
            D11,
        )
        lo, hi = conjugate_subdifferential(f, 0.0)
        assert lo == pytest.approx(-0.25, abs=1e-11)
        assert hi == pytest.approx(0.5, abs=1e-11)

    def test_range_error(self):
        f = build_function(SymmetricPower(k=2.0), D11)
        with pytest.raises(SlopeRangeError):
            conjugate_subdifferential(f, 2.0)
        with pytest.raises(SlopeRangeError):
            conjugate_subdifferential(f, -1.0000001)

    def test_boundary_level_sets(self):
        f = build_function(Absolute(0.0), D11)
        lo, hi = conjugate_subdifferential(f, 1.0)
        assert lo == pytest.approx(0.0, abs=1e-11)
        assert hi == 1.0


class TestFlatSet:
    def test_flat_set_interval(self):
        f = build_function(SymmetricPower(k=2.0), D11)
        lo, hi = flat_set(f, 0.25)
        assert lo == pytest.approx(-0.25, abs=1e-11)
        assert hi == pytest.approx(0.25, abs=1e-11)

    def test_clamps_to_domain(self):
        f = build_function(SymmetricPower(k=2.0, x_star=0.5), D11)
        lo, hi = flat_set(f, 3.0)
        assert (lo, hi) == (-1.0, 1.0)

    def test_threshold_below_every_slope_is_empty_at_left_end(self):
        # f' = x + 5 lies in [4, 6]: |f'| < 1 nowhere on the domain
        f = build_function(Tilt(SymmetricPower(k=2.0), 5.0), D11)
        assert flat_set(f, 1.0) == (-1.0, -1.0)
        assert modulus_numeric(f, 1.0) == 0.0

    def test_threshold_above_every_slope_is_empty_at_right_end(self):
        # f' = -1 on the whole domain, left of the kink at 0.4
        f = build_function(Absolute(0.4), (-3.0, 0.2))
        assert flat_set(f, 1e-6) == (0.2, 0.2)
        assert modulus_numeric(f, 1e-6) == 0.0


class TestLevelSet:
    def test_slopes_beyond_the_spec_give_an_infinite_point(self):
        cases = ((Absolute(0.3), -1.0, 1.0),
                 (PiecewiseLinear((-0.5, 0.5), (-2.0, 0.0, 3.0)), -2.0, 3.0),
                 (Tilt(Absolute(0.3), 0.5), -0.5, 1.5))
        for spec, lowest, highest in cases:
            assert level_set(spec, lowest - 1e-9) == (-np.inf, -np.inf)
            assert level_set(spec, highest + 1e-9) == (np.inf, np.inf)
            lo, hi = level_set(spec, lowest)
            assert lo == -np.inf and np.isfinite(hi)
            lo, hi = level_set(spec, highest)
            assert np.isfinite(lo) and hi == np.inf


# One spec of each kind and a tilt of each; on the three domains some
# thresholds fall below or above every slope the domain attains.
PWL = PiecewiseLinear((-0.5, 0.0, 0.5), (-2.0, -0.5, 1.0, 3.0))
CROSS_CHECK_SPECS = {
    "sym": SymmetricPower(k=1.5, x_star=0.1),
    "asym": AsymmetricPower(1.5, 3.0, x_star=-0.2),
    "absolute": Absolute(0.4),
    "piecewise-linear": PWL,
    "tilt-sym": Tilt(SymmetricPower(k=2.0), 5.0),
    "tilt-asym": Tilt(AsymmetricPower(3.0, 1.5), -0.05),
    "tilt-absolute": Tilt(Absolute(0.4), 0.3),
    "tilt-piecewise-linear": Tilt(PWL, 2.5),
}


CROSS_CHECK_DOMAINS = [(-1.0, 1.0), (-0.5, 3.0), (-3.0, 0.2)]


@pytest.mark.parametrize("domain", CROSS_CHECK_DOMAINS)
@pytest.mark.parametrize("spec", CROSS_CHECK_SPECS.values(), ids=CROSS_CHECK_SPECS.keys())
def test_closed_form_matches_bisection(spec, domain):
    f = build_function(spec, domain)
    for eps in np.geomspace(1e-6, 10.0, 60):
        exact = modulus_analytic(spec, float(eps), domain)
        assert exact == pytest.approx(modulus_numeric(f, float(eps)), abs=1e-9), eps


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def assert_lockstep_equals_reference(f, eps, slopes):
    want = [ref.flat_set(f, float(e)) for e in eps]
    lo, hi = flat_set(f, eps)
    assert bits(lo) == bits([w[0] for w in want])
    assert bits(hi) == bits([w[1] for w in want])
    assert bits(modulus_numeric(f, eps)) == bits(
        [ref.modulus_numeric(f, float(e)) for e in eps])
    for e, w in zip(eps[::7], want[::7]):
        assert bits(flat_set(f, float(e))) == bits(w)

    want = [ref.conjugate_subdifferential(f, float(v)) for v in slopes]
    lo, hi = conjugate_subdifferential(f, slopes)
    assert bits(lo) == bits([w[0] for w in want])
    assert bits(hi) == bits([w[1] for w in want])


@pytest.mark.parametrize("domain", CROSS_CHECK_DOMAINS)
@pytest.mark.parametrize("spec", CROSS_CHECK_SPECS.values(), ids=CROSS_CHECK_SPECS.keys())
def test_lockstep_bisection_equals_scalar_reference(spec, domain):
    f = build_function(spec, domain)
    slope_lo, slope_hi = f.slope_range()
    # the slopes on either side of each kink, and the ends of the attained
    # range, as thresholds of their own
    kink_slopes = [float(v) for k in f.kinks for v in subdiff_interval(f.spec, k)]
    exact = np.abs([slope_lo, slope_hi, *kink_slopes])
    eps = np.unique(np.concatenate([np.geomspace(1e-6, 10.0, 60), exact[exact > 0],
                                    [2.0 * exact.max()]]))
    # thresholds below and above every attained slope
    assert (-eps < slope_lo).any() and (eps > slope_hi).any()
    s = np.unique(np.concatenate([np.linspace(slope_lo, slope_hi, 33), [0.0],
                                  kink_slopes, -eps, eps]))
    assert_lockstep_equals_reference(f, eps, s[(s >= slope_lo) & (s <= slope_hi)])


@pytest.mark.parametrize("spec,domain", [
    (SymmetricPower(2.0, x_star=9000.0), (0.0, 10000.0)),
    (AsymmetricPower(1.5, 3.0, x_star=5000.0), (-8000.0, 9000.0)),
])
def test_lockstep_bisection_stops_at_float_resolution(spec, domain):
    # past |x| = 8192 floats lie 1.8e-12 apart, more than the tolerance: ends
    # there stop when mid no longer falls between lo and hi, while ends near
    # 0 of the same call bisect on
    f = build_function(spec, domain)
    assert_lockstep_equals_reference(f, np.geomspace(1e-3, 1e4, 50),
                                     np.linspace(*f.slope_range(), 201))


class TestArrayCalls:
    f = build_function(PWL, D11)

    def test_scalar_calls_return_python_floats(self):
        for eps in (0.3, np.float64(0.3), 5.0):
            assert all(type(v) is float for v in flat_set(self.f, eps))
            assert type(modulus_numeric(self.f, eps)) is float
        assert all(type(v) is float for v in conjugate_subdifferential(self.f, 0.3))

    def test_array_keeps_its_shape(self):
        eps = np.array([[0.1, 0.5], [1.0, 5.0]])
        lo, hi = flat_set(self.f, eps)
        assert lo.shape == hi.shape == modulus_numeric(self.f, eps).shape == (2, 2)
        assert (lo[1, 1], hi[1, 1]) == flat_set(self.f, 5.0)
        lo, hi = conjugate_subdifferential(self.f, np.array([[-0.5], [1.0]]))
        assert lo.shape == hi.shape == (2, 1)

    @pytest.mark.parametrize("bad", [0.0, -0.1, float("nan")])
    def test_bad_entry_in_epsilon_array(self, bad):
        eps = np.array([0.1, bad, 0.5])
        with pytest.raises(ValueError, match="epsilon must be positive"):
            flat_set(self.f, eps)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            modulus_numeric(self.f, eps)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            flat_set(self.f, bad)

    @pytest.mark.parametrize("bad", [-2.0000001, 3.5, float("nan")])
    def test_out_of_range_slope_in_array(self, bad):
        # the PWL attains slopes -2 to 3 on D11
        with pytest.raises(SlopeRangeError, match=repr(bad)):
            conjugate_subdifferential(self.f, np.array([-1.0, 0.0, bad, 2.0]))
        with pytest.raises(SlopeRangeError, match=repr(bad)):
            conjugate_subdifferential(self.f, bad)


class TestBigH:
    def test_quadratic(self):
        f = build_function(SymmetricPower(k=2.0), D11)
        assert big_H(f, 0.01) == pytest.approx(0.01, abs=1e-10)

    def test_absolute_is_zero(self):
        f = build_function(Absolute(0.0), D11)
        assert big_H(f, 0.5) <= 1e-10

    def test_asymmetric_dominated_by_flat_side(self):
        f = build_function(AsymmetricPower(1.5, 3.0), D11)
        assert big_H(f, 0.01) == pytest.approx(0.1, abs=1e-9)

    def test_H_below_modulus(self):
        for spec in (SymmetricPower(k=2.0), SymmetricPower(k=3.0),
                     AsymmetricPower(1.5, 3.0), Absolute(0.1),
                     PiecewiseLinear((-0.3, 0.4), (-1.0, 0.0, 1.0)),
                     Tilt(SymmetricPower(k=2.0), 0.3)):
            f = build_function(spec, D11)
            # eps = 2 and 5 exceed every slope the domain attains
            for eps in (1e-4, 1e-3, 1e-2, 0.05, 0.5, 2.0, 5.0):
                assert big_H(f, eps) <= modulus_numeric(f, eps) + 1e-9

    def test_H_equals_modulus_for_strictly_convex(self):
        for spec in (SymmetricPower(k=1.5), SymmetricPower(k=2.0),
                     AsymmetricPower(2.0, 3.0)):
            f = build_function(spec, D11)
            for eps in (1e-4, 1e-2, 2.0):
                assert big_H(f, eps) == pytest.approx(
                    modulus_numeric(f, eps), abs=1e-9
                )


class TestGrowthBounds:
    def test_half_quadratic_example(self):
        profile = GrowthProfile(k_l=2.0, k_r=2.0, lambda_l=0.5, lambda_r=0.5)
        lo, hi = modulus_bounds_from_growth(profile, 0.01, C=2.0)
        assert lo == pytest.approx(0.005, rel=1e-12)
        assert hi == pytest.approx(0.04, rel=1e-12)

    def test_cubic_example(self):
        profile = GrowthProfile(k_l=3.0, k_r=3.0, lambda_l=1 / 3, lambda_r=1 / 3)
        lo, hi = modulus_bounds_from_growth(profile, 1e-4, C=2.0)
        assert lo == pytest.approx(math.sqrt(5e-5), rel=1e-12)
        assert hi == pytest.approx(math.sqrt(6e-4), rel=1e-12)
        # the sandwich contains the numeric modulus
        f = build_function(SymmetricPower(k=3.0), D11)
        assert lo <= modulus_numeric(f, 1e-4) <= hi

    def test_strict_ordering(self):
        profile = GrowthProfile(k_l=1.7, k_r=2.4, lambda_l=0.9, lambda_r=0.3)
        lo, hi = modulus_bounds_from_growth(profile, 0.03, C=1.0 + 1e-9)
        assert lo < hi

    def test_lambda_case_table(self):
        # flatter side wins the exponent; its lambda is used
        p = GrowthProfile(k_l=3.0, k_r=2.0, lambda_l=0.25, lambda_r=9.0)
        lo, hi = modulus_bounds_from_growth(p, 1e-3, C=2.0)
        assert lo == pytest.approx((1e-3 / (2 * 0.25 * 3)) ** 0.5, rel=1e-12)
        assert hi == pytest.approx((2 * 1e-3 / 0.25) ** 0.5, rel=1e-12)

    def test_rejects_bad_arguments(self):
        p = GrowthProfile(2.0, 2.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            modulus_bounds_from_growth(p, 0.01, C=1.0)
        with pytest.raises(ValueError):
            modulus_bounds_from_growth(p, 0.0, C=2.0)

    def test_sandwich_on_catalog(self):
        for spec in (SymmetricPower(k=1.5), SymmetricPower(k=2.0),
                     SymmetricPower(k=3.0), AsymmetricPower(1.5, 3.0),
                     AsymmetricPower(2.0, 3.0)):
            f = build_function(spec, D11)
            assert f.growth is not None
            for eps in np.geomspace(1e-6, 1e-3, 10):
                lo, hi = modulus_bounds_from_growth(f.growth, float(eps), C=2.0)
                w = modulus_numeric(f, float(eps))
                assert lo <= w <= hi


class TestFitGrowthExponent:
    def _curve_from_analytic(self, spec, eps_grid):
        samples = tuple(
            ModulusSample(float(e), modulus_analytic(spec, float(e), D11), "analytic")
            for e in eps_grid
        )
        return ModulusCurve(samples)

    def test_cubic_alpha_half(self):
        curve = self._curve_from_analytic(
            SymmetricPower(k=3.0), np.geomspace(1e-4, 1e-2, 12)
        )
        assert fit_growth_exponent(curve) == pytest.approx(0.5, abs=1e-9)

    def test_quadratic_alpha_one(self):
        curve = self._curve_from_analytic(
            SymmetricPower(k=2.0), np.geomspace(1e-4, 1e-2, 12)
        )
        assert fit_growth_exponent(curve) == pytest.approx(1.0, abs=1e-9)

    def test_all_zero_omegas_rejected(self):
        curve = ModulusCurve(
            tuple(ModulusSample(e, 0.0, "numeric") for e in (1e-3, 1e-2, 1e-1))
        )
        with pytest.raises(DataError):
            fit_growth_exponent(curve)

    def test_too_few_samples_rejected(self):
        curve = ModulusCurve(
            (ModulusSample(1e-3, 1e-3, "numeric"), ModulusSample(1e-2, 1e-2, "numeric"))
        )
        with pytest.raises(DataError):
            fit_growth_exponent(curve)


class TestSampleModulusCurve:
    def test_curve_is_monotone_and_tagged(self):
        f = build_function(SymmetricPower(k=2.0), D11)
        curve = sample_modulus_curve(f, np.geomspace(1e-4, 1e-1, 8))
        methods = {s.method for s in curve.samples}
        assert methods == {"analytic", "numeric"}
        numeric = [s for s in curve.samples if s.method == "numeric"]
        assert all(
            s2.omega >= s1.omega - 1e-12 for s1, s2 in zip(numeric, numeric[1:])
        )
        assert curve.fitted_alpha == pytest.approx(1.0, abs=1e-6)
        domain_diameter = 2.0
        assert all(s.omega <= domain_diameter for s in curve.samples)

    def test_absolute_has_both_methods(self):
        f = build_function(Absolute(0.0), D11)
        curve = sample_modulus_curve(f, (0.1, 0.5, 0.9))
        assert {s.method for s in curve.samples} == {"analytic", "numeric"}
        assert all(s.omega <= 1e-11 for s in curve.samples)
        assert curve.fitted_alpha is None  # all omegas are zero


class TestTiltConjugateIdentity:
    def test_tilt_argmin_matches_conjugate_at_minus_eps(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            k = rng.uniform(1.4, 3.5)
            x0 = rng.uniform(-0.5, 0.5)
            eps = 10 ** rng.uniform(-5, -2)
            f = build_function(SymmetricPower(k=k, x_star=x0), (-2.0, 2.0))
            g = build_function(Tilt(f.spec, eps), (-2.0, 2.0))
            lo, hi = conjugate_subdifferential(f, -eps)
            gl, gr = g.minimizer_set
            # the tilted minimizer (known in closed form) equals the conjugate
            # subdifferential of the base at -eps
            assert gl == pytest.approx(lo, abs=1e-9)
            assert gr == pytest.approx(hi, abs=1e-9)
