"""Modulus computations: closed forms, conjugate intervals, flat sets, fits."""
import bisect
import math

import numpy as np
import pytest
import exact_law
import scalar_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st
from random_specs import (
    X_STAR_SPECS,
    coordinates,
    ordered_pairs,
    piecewise_linears,
    tilt_sizes,
)

from convexbench import (
    Absolute,
    AsymmetricPower,
    DataError,
    ExperimentConfig,
    PiecewiseLinear,
    SgdSpec,
    SymmetricPower,
    Tilt,
    build_function,
    estimate_risk,
    fit_loglog,
    flat_set,
    modulus_analytic,
    modulus_numeric,
    sample_modulus_curve,
)
from convexbench.configfile import DEFAULT_T_GRID
from convexbench.functions import (
    clamped_level_set,
    minimizer_interval,
    subdiff_interval,
    subgrad_spec,
)
from convexbench.modulus import _conjugate_ends

D11 = (-1.0, 1.0)
D22 = (-2.0, 2.0)
LINE = (-np.inf, np.inf)  # clamped to it, a level set keeps its infinite ends


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


def conjugate_ends(f, s):
    """Both ends of the conjugate subdifferential at one slope, as floats."""
    left, right = _conjugate_ends(f, np.array([s], dtype=float))
    return float(left[0]), float(right[0])


class TestConjugateSubdifferential:
    """The ends {x in domain : s in subdifferential f(x)} that ``flat_set``
    reads at -eps and +eps."""

    def test_quadratic_slope_inverse(self):
        f = build_function(SymmetricPower(k=2.0), D11)
        lo, hi = conjugate_ends(f, 0.3)
        assert lo == pytest.approx(0.3, abs=1e-11)
        assert hi == pytest.approx(0.3, abs=1e-11)

    def test_absolute_kink_absorbs_intermediate_slopes(self):
        f = build_function(Absolute(0.0), D11)
        lo, hi = conjugate_ends(f, 0.5)
        assert abs(lo) <= 1e-11 and abs(hi) <= 1e-11

    def test_cubic_negative_slope(self):
        f = build_function(SymmetricPower(k=3.0), D11)
        lo, hi = conjugate_ends(f, -0.04)
        assert lo == pytest.approx(-0.2, abs=1e-9)
        # verified by substitution back through the subgradient
        assert subgrad_spec(f.spec, lo) == pytest.approx(-0.04, abs=1e-10)

    def test_zero_slope_recovers_minimizer_set(self):
        f = build_function(
            PiecewiseLinear(breakpoints=(-0.25, 0.5), slopes=(-1.0, 0.0, 2.0)),
            D11,
        )
        lo, hi = conjugate_ends(f, 0.0)
        assert lo == pytest.approx(-0.25, abs=1e-11)
        assert hi == pytest.approx(0.5, abs=1e-11)

    def test_slopes_outside_the_range_sit_at_a_domain_end(self):
        # f' = x on [-1, 1]
        f = build_function(SymmetricPower(k=2.0), D11)
        assert conjugate_ends(f, -1.0000001) == (-1.0, -1.0)
        assert conjugate_ends(f, 2.0) == (1.0, 1.0)

    def test_boundary_level_sets(self):
        f = build_function(Absolute(0.0), D11)
        lo, hi = conjugate_ends(f, 1.0)
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

    def test_kink_absorbs_thresholds_inside_its_slope_gap(self):
        f = build_function(Absolute(0.0), D11)
        lo, hi = flat_set(f, 0.5)
        assert abs(lo) <= 1e-11 and abs(hi) <= 1e-11
        # at the slope of a whole side the flat set is still the kink; past
        # it, the whole domain
        lo, hi = flat_set(f, 1.0)
        assert abs(lo) <= 1e-11 and abs(hi) <= 1e-11
        assert flat_set(f, 1.0 + 1e-9) == (-1.0, 1.0)

    def test_flat_piece_is_the_minimizer_set(self):
        f = build_function(
            PiecewiseLinear(breakpoints=(-0.25, 0.5), slopes=(-1.0, 0.0, 2.0)),
            D11,
        )
        lo, hi = flat_set(f, 0.5)
        assert lo == pytest.approx(-0.25, abs=1e-11)
        assert hi == pytest.approx(0.5, abs=1e-11)

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
            assert clamped_level_set(spec, lowest - 1e-9, LINE) == (-np.inf, -np.inf)
            assert clamped_level_set(spec, highest + 1e-9, LINE) == (np.inf, np.inf)
            lo, hi = clamped_level_set(spec, lowest, LINE)
            assert lo == -np.inf and np.isfinite(hi)
            lo, hi = clamped_level_set(spec, highest, LINE)
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
    # level sets beyond the float range at large thresholds
    "sym-k1.001": SymmetricPower(k=1.001),
    "tilt-asym-k1.001": Tilt(AsymmetricPower(1.001, 2.0), 0.5),
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


def assert_lockstep_equals_reference(f, eps):
    want = [ref.flat_set(f, float(e)) for e in eps]
    lo, hi = flat_set(f, eps)
    assert bits(lo) == bits([w[0] for w in want])
    assert bits(hi) == bits([w[1] for w in want])
    assert bits(modulus_numeric(f, eps)) == bits(
        [ref.modulus_numeric(f, float(e)) for e in eps])
    for e, w in zip(eps[::7], want[::7]):
        assert bits(flat_set(f, float(e))) == bits(w)


@pytest.mark.parametrize("domain", CROSS_CHECK_DOMAINS)
@pytest.mark.parametrize("spec", CROSS_CHECK_SPECS.values(), ids=CROSS_CHECK_SPECS.keys())
def test_lockstep_bisection_equals_scalar_reference(spec, domain):
    f = build_function(spec, domain)
    slope_lo, slope_hi = ref.slope_range(f)
    # the slopes on either side of each kink, and the ends of the attained
    # range, as thresholds of their own
    kinks = [k for k in ref.kinks_of(spec) if domain[0] <= k <= domain[1]]
    kink_slopes = [float(v) for k in kinks for v in subdiff_interval(spec, k)]
    exact = np.abs([slope_lo, slope_hi, *kink_slopes])
    eps = np.unique(np.concatenate([np.geomspace(1e-6, 10.0, 60), exact[exact > 0],
                                    [2.0 * exact.max()]]))
    # thresholds below and above every attained slope
    assert (-eps < slope_lo).any() and (eps > slope_hi).any()
    assert_lockstep_equals_reference(f, eps)


@pytest.mark.parametrize("spec,domain", [
    (SymmetricPower(2.0, x_star=9000.0), (0.0, 10000.0)),
    (AsymmetricPower(1.5, 3.0, x_star=5000.0), (-8000.0, 9000.0)),
])
def test_lockstep_bisection_stops_at_float_resolution(spec, domain):
    # past |x| = 8192 floats lie 1.8e-12 apart, more than the tolerance: ends
    # there stop when mid no longer falls between lo and hi, while ends near
    # 0 of the same call bisect on
    f = build_function(spec, domain)
    assert_lockstep_equals_reference(f, np.geomspace(1e-3, 1e4, 50))


class TestArrayCalls:
    f = build_function(PWL, D11)

    def test_scalar_calls_return_python_floats(self):
        for eps in (0.3, np.float64(0.3), 5.0):
            assert all(type(v) is float for v in flat_set(self.f, eps))
            assert type(modulus_numeric(self.f, eps)) is float

    def test_array_keeps_its_shape(self):
        eps = np.array([[0.1, 0.5], [1.0, 5.0]])
        lo, hi = flat_set(self.f, eps)
        assert lo.shape == hi.shape == modulus_numeric(self.f, eps).shape == (2, 2)
        assert (lo[1, 1], hi[1, 1]) == flat_set(self.f, 5.0)

    @pytest.mark.parametrize("bad", [0.0, -0.1, float("nan")])
    def test_bad_entry_in_epsilon_array(self, bad):
        eps = np.array([0.1, bad, 0.5])
        with pytest.raises(ValueError, match="epsilon must be positive"):
            flat_set(self.f, eps)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            modulus_numeric(self.f, eps)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            flat_set(self.f, bad)

    @pytest.mark.parametrize("bad", [-2.0000001, 3.5])
    def test_out_of_range_slope_in_array(self, bad):
        # the PWL attains slopes -2 to 3 on D11: a slope past either end sits
        # at that domain end, and the slopes beside it bisect as on their own
        s = np.array([-1.0, 0.0, bad, 2.0])
        end = self.f.domain[0] if bad < 0 else self.f.domain[1]
        want = [ref.conjugate_subdifferential(self.f, float(v)) for v in s]
        want[2] = (end, end)
        lo, hi = _conjugate_ends(self.f, s)
        assert bits(lo) == bits([w[0] for w in want])
        assert bits(hi) == bits([w[1] for w in want])


BASE_SPECS = {**X_STAR_SPECS, "piecewise-linear": piecewise_linears()}
RANDOM_SPECS = {**BASE_SPECS,
                "tilt": st.builds(Tilt, st.one_of(*BASE_SPECS.values()), tilt_sizes)}


def spec_slopes(spec) -> list[float]:
    """The slopes of a kinked spec's pieces, or 0 and 1 for a power, whose
    slopes cover every float; each shifted by the spec's tilt."""
    tilt = spec.eps if isinstance(spec, Tilt) else 0.0
    base = spec.base if isinstance(spec, Tilt) else spec
    if isinstance(base, Absolute):
        return [-1.0 + tilt, 1.0 + tilt]
    return [v + tilt for v in getattr(base, "slopes", (0.0, 1.0))]


def probe_slopes(spec, data) -> list[float]:
    """Zeros of both signs, magnitudes whose roots overflow, slopes below and
    above every slope of the spec, each slope with the floats beside it, and
    up to six drawn floats."""
    slopes = spec_slopes(spec)
    return [0.0, -0.0, 1e300, -1e300, min(slopes) - 1.0, max(slopes) + 1.0, *slopes,
            *np.nextafter(slopes, -np.inf).tolist(), *np.nextafter(slopes, np.inf).tolist(),
            *data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                max_size=6))]


@pytest.mark.parametrize("kind", RANDOM_SPECS)
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_array_calls_equal_scalar_calls(kind, data):
    # bound, fixed before the first run: every end of clamped_level_set, on
    # the whole line and on the domain, and every modulus_analytic of an array call equals
    # (==) the scalar call at that element, and each scalar call, given a
    # Python float or a numpy scalar, returns Python floats
    spec, domain = data.draw(RANDOM_SPECS[kind]), data.draw(ordered_pairs)
    s = probe_slopes(spec, data)
    eps = [abs(v) for v in s if v != 0.0]
    ends = [clamped_level_set(spec, np.array(s), d) for d in (LINE, domain)]
    moduli = modulus_analytic(spec, np.array(eps), domain)
    for i, v in enumerate(s):
        for x in (v, np.float64(v)):
            for scalar, (lo, hi) in zip([clamped_level_set(spec, x, d) for d in (LINE, domain)],
                                        ends):
                assert all(type(e) is float for e in scalar)
                assert scalar == (lo[i], hi[i])
    for i, e in enumerate(eps):
        for x in (e, np.float64(e)):
            scalar = modulus_analytic(spec, x, domain)
            assert type(scalar) is float and scalar == moduli[i]


@pytest.mark.parametrize("kind", RANDOM_SPECS)
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_level_set_ends_hold_the_slope(kind, data):
    # bound, fixed before the first run: each end e of clamped_level_set(spec,
    # s, d) is +/-inf (d the whole line only), an end of d (a domain only), or
    # a finite point inside d at which s is a subgradient up to rounding:
    # lo(e - dx) - ds <= s <= hi(e + dx) + ds for the subdifferential [lo, hi].
    # ds is 4 ulps of max(|s|, |tilt|), for the tilt's subtraction and
    # addition; dx is 4 ulps of max(|e|, |x*|), for the shift by x*, plus
    # (4 + |ln u|) 2^-52 of u = |e - x*| for a power's root u = |s|^(1/(k-1)),
    # whose exponent is rounded: a relative error d in it moves u by
    # d |ln u| relatively
    spec, domain = data.draw(RANDOM_SPECS[kind]), data.draw(ordered_pairs)
    tilt = spec.eps if isinstance(spec, Tilt) else 0.0
    base = spec.base if isinstance(spec, Tilt) else spec
    for s in probe_slopes(spec, data):
        ds = 4 * math.ulp(max(abs(s), abs(tilt)))
        for d in (LINE, domain):
            lo, hi = clamped_level_set(spec, s, d)
            assert d[0] <= lo <= hi <= d[1]
            for e in (lo, hi):
                if e in d:  # +/-inf on the whole line, an end of a domain
                    continue
                x_star = getattr(base, "x_star", e)
                u = abs(e - x_star)
                dx = (4 * math.ulp(max(abs(e), abs(x_star)))
                      + (4 + abs(math.log(u) if u else 0.0)) * u * 2.0**-52)
                with np.errstate(over="ignore"):  # f' past the float range is inf
                    assert subdiff_interval(spec, e - dx)[0] - ds <= s, (s, d, e)
                    assert s <= subdiff_interval(spec, e + dx)[1] + ds, (s, d, e)


@st.composite
def kinked_specs(draw):
    """Absolute, or a PiecewiseLinear whose slopes often repeat, with the
    breakpoints and slopes of its pieces."""
    if draw(st.booleans()):
        x_star = draw(coordinates)
        return Absolute(x_star), (x_star,), (-1.0, 1.0)
    n = draw(st.integers(1, 4))
    breakpoints = tuple(sorted(draw(st.lists(coordinates, min_size=n, max_size=n,
                                             unique=True))))
    slopes = tuple(sorted(draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]) | coordinates,
                                        min_size=n + 1, max_size=n + 1))))
    return PiecewiseLinear(breakpoints, slopes), breakpoints, slopes


@settings(derandomize=True, max_examples=300, deadline=None)
@given(kinked=kinked_specs(), domain=ordered_pairs, data=st.data())
def test_level_set_ends_are_maximal_on_kinked_specs(kinked, domain, data):
    # exact, fixed before the first run: piece i runs from ends[i] to
    # ends[i + 1]; at a slope value s the level set is the whole run of pieces
    # of slope s, strictly between two slopes the breakpoint between them, and
    # below or above every slope (-inf, -inf) or (inf, inf); a domain clips it
    spec, breakpoints, slopes = kinked
    ends = (-math.inf, *breakpoints, math.inf)
    for s in probe_slopes(spec, data):
        if s in slopes:
            first, last = slopes.index(s), len(slopes) - 1 - slopes[::-1].index(s)
            expected = (ends[first], ends[last + 1])
        else:
            i = bisect.bisect(slopes, s)  # slopes[i - 1] < s < slopes[i]
            expected = (ends[i], ends[i])
        for a, b in (LINE, domain):
            clipped = tuple(min(max(e, a), b) for e in expected)
            assert clamped_level_set(spec, s, (a, b)) == clipped, (s, (a, b))


# a tilt of each power moves its minimizer x_f to where f is C^2 with f'' > 0:
# (spec, x_f, f''(x_f), f'''(x_f)), from f' = x|x| + 0.5, sign(x) sqrt|x| + 0.2
# and x^2 - 0.3 (right of 0) in turn
CURVATURE_CASES = {
    "sym-k3-tilt-0.5": (Tilt(SymmetricPower(3.0), 0.5), -math.sqrt(0.5), math.sqrt(2.0),
                        -2.0),
    "sym-k1.5-tilt-0.2": (Tilt(SymmetricPower(1.5), 0.2), -0.04, 2.5, 31.25),
    "asym-1.5-3-tilt--0.3": (Tilt(AsymmetricPower(1.5, 3.0), -0.3), math.sqrt(0.3),
                             2.0 * math.sqrt(0.3), 2.0),
}


@pytest.mark.parametrize("domain", [(1.0, -1.0), (0.5, 0.5), (math.nan, 1.0),
                                    (np.inf, -np.inf)],
                         ids=["reversed", "empty", "nan", "reversed-line"])
def test_level_set_readers_refuse_a_domain_without_a_below_b(domain):
    # a reversed domain read a modulus of 0.0 and a minimizer interval at b;
    # the whole line (LINE) stays allowed
    spec = SymmetricPower(2.0)
    reads = [lambda: clamped_level_set(spec, 0.1, domain),
             lambda: minimizer_interval(spec, domain),
             lambda: minimizer_interval(spec, domain, np.zeros(3)),
             lambda: modulus_analytic(spec, 0.1, domain)]
    for read in reads:
        with pytest.raises(ValueError, match=r"domain must have a < b, got \["):
            read()


@pytest.mark.parametrize("epsilon", [1e-2, 1e-4, 1e-6])
@pytest.mark.parametrize("spec, x_f, f2, f3", CURVATURE_CASES.values(),
                         ids=CURVATURE_CASES)
def test_modulus_is_epsilon_over_the_curvature(spec, x_f, f2, f3, epsilon):
    """omega_f(eps) f''(x_f) / eps -> 1: the modulus relates to the curvature
    of f at its minimizer.

    The inverse h of g = f' near g(x_f) = 0 is h(t) = x_f + t / f'' -
    f''' t^2 / (2 f''^3) + O(t^3), so the flat set's ends lie
    eps / f'' -/+ f''' eps^2 / (2 f''^3) + O(eps^3) right and left of x_f.
    The modulus is the farther one, eps / f'' + |f'''| eps^2 / (2 f''^3)
    + O(eps^3), so omega f'' / eps - 1 = |f'''| eps / (2 f''^2) + O(eps^2).
    The bound |f'''| eps / f''^2 is twice that leading term.  Rounding adds
    about 1e-16 / omega, four orders below it at eps = 1e-6.
    """
    assert minimizer_interval(spec, D11) == pytest.approx((x_f, x_f), abs=1e-15)
    omega = modulus_analytic(spec, epsilon, D11)
    assert abs(omega * f2 / epsilon - 1.0) <= abs(f3) * epsilon / f2**2


@settings(derandomize=True, max_examples=300, deadline=None)
@given(asym=st.booleans(), ks=st.tuples(*[st.one_of(st.sampled_from([1.5, 2.0, 3.0]),
                                                  st.floats(1.25, 4.0))] * 2),
       e=st.floats(1e-3, 4.0), e_sign=st.sampled_from([-1.0, 1.0]), c=st.floats(1e-8, 1e-4))
def test_modulus_is_epsilon_over_the_curvature_at_random_tilts(asym, ks, e, e_sign, c):
    """The limit above over random C^2 minimizers: a tilt e != 0 of a power
    moves the minimizer to x_f = -sign(e) |e|^(1/(k-1)), k the exponent on
    the side e selects, where f'' = (k-1) |x_f|^(k-2) and f''' = (k-1)(k-2)
    sign(x_f) |x_f|^(k-3).  eps = c f'' |x_f| keeps eps / f'' <= 1e-4 |x_f|,
    so the flat set stays off the power's kink at 0.

    Bound, fixed before the first run: |omega f'' / eps - 1| <= |f'''| eps /
    f''^2 + 16 (1 + 1/(k-1)) 2^-52 (1 + |x_f| f'' / eps).  The first term
    is twice the leading term of the expansion; the next one is smaller by a
    factor of order (k-1) eps / (f'' |x_f|) <= 3e-4.  The second is rounding:
    each flat-set end and the minimizer is the root |s - e|^(1/(k-1)) of a
    rounded difference, off by at most (1/(k-1) + 1) ulps of |x_f|, and the
    test's own f'' and products add a few ulps; 16 leaves four times that.
    At k = 2, f''' vanishes and only rounding remains.
    """
    e *= e_sign
    k_l, k_r = ks
    spec = AsymmetricPower(k_l, k_r) if asym else SymmetricPower(k_l)
    k = k_l if e > 0 or not asym else k_r
    x_f = -math.copysign(abs(e) ** (1.0 / (k - 1.0)), e)
    f2 = (k - 1.0) * abs(x_f) ** (k - 2.0)
    f3 = (k - 1.0) * abs(k - 2.0) * abs(x_f) ** (k - 3.0)
    eps = c * f2 * abs(x_f)
    assert minimizer_interval(Tilt(spec, e), LINE) == pytest.approx((x_f, x_f), rel=1e-14)
    omega = modulus_analytic(Tilt(spec, e), eps, LINE)
    rounding = 16.0 * (1.0 + 1.0 / (k - 1.0)) * 2.0**-52 * (1.0 + abs(x_f) * f2 / eps)
    assert abs(omega * f2 / eps - 1.0) <= f3 * eps / f2**2 + rounding


# sqrt(2/pi): the mean of |Z| for a standard normal Z
HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)


def test_efficient_risk_is_the_modulus_at_the_noise_level_exactly():
    # bound, fixed before the first run: 1e-15 relative at every fig2 budget.
    # On sym-k2 (f'' = 1) SGD(1/t) is efficient: its error after T steps is
    # N(0, sigma^2 / T) exactly (see exact_law), and omega_f(eps) = eps
    sigma, spec = 0.1, SymmetricPower(2.0)
    for T in DEFAULT_T_GRID:
        risk = exact_law.sgd_quadratic_risk("1/t", T, sigma).mean
        efficient = HALF_NORMAL_MEAN * modulus_analytic(spec, sigma / math.sqrt(T), D22)
        assert abs(risk / efficient - 1.0) <= 1e-15, T


def test_curvature_matched_sgd_reaches_the_efficient_risk():
    # band, fixed before the first run: risk / (sqrt(2/pi) omega_f(sigma /
    # sqrt(T))) within [0.9, 1.2] for both algorithms.  f' = x|x| - 0.09 has
    # its minimizer at 0.3 with f'' = 0.6, so the modulus there is about
    # sigma / (0.6 sqrt(T)); SGD(1/t) scaled by 1/f'' and averaged
    # SGD(1/sqrt(t)) are both asymptotically efficient.  One standard error
    # of the ratio is 0.024 at R = 1000.  Dropping sqrt(2/pi) (x 0.80) or
    # reading omega_f(sigma / T) (x 100) leaves the band.
    spec, f2, sigma, T = Tilt(SymmetricPower(3.0), -0.09), 0.6, 0.1, 10_000
    algorithms = (SgdSpec("1/t", scale=1.0 / f2), SgdSpec("1/sqrt(t)", iterate="average"))
    config = ExperimentConfig(spec, algorithms, (T,), 1000, sigma, 20250810, D22)
    efficient = HALF_NORMAL_MEAN * modulus_analytic(spec, sigma / math.sqrt(T), D22)
    for row in estimate_risk(config).rows:
        assert 0.9 <= row.mean_err / efficient <= 1.2, row


class TestFitGrowthExponent:
    EPS = np.geomspace(1e-4, 1e-2, 12)

    def test_cubic_alpha_half(self):
        omega = modulus_analytic(SymmetricPower(k=3.0), self.EPS, D11)
        assert fit_loglog(self.EPS, omega)[0] == pytest.approx(0.5, abs=1e-9)

    def test_quadratic_alpha_one(self):
        omega = modulus_analytic(SymmetricPower(k=2.0), self.EPS, D11)
        assert fit_loglog(self.EPS, omega)[0] == pytest.approx(1.0, abs=1e-9)

    def test_all_zero_omegas_rejected(self):
        with pytest.raises(DataError):
            fit_loglog([1e-3, 1e-2, 1e-1], [0.0, 0.0, 0.0])

    def test_too_few_samples_rejected(self):
        with pytest.raises(DataError):
            fit_loglog([1e-3, 1e-2], [1e-3, 1e-2])

    def test_equal_x_rejected(self):
        # no slope to fit: the regression would divide 0 by 0
        with pytest.raises(DataError, match="two distinct x"):
            fit_loglog([1e-1, 1e-1, 1e-1], [1e-2, 1e-2, 1e-2])


class TestSampleModulusCurve:
    def test_curve_is_monotone_and_tagged(self):
        f = build_function(SymmetricPower(k=2.0), D11)
        eps = np.geomspace(1e-4, 1e-1, 8)
        curve = sample_modulus_curve(f, eps[::-1])
        assert np.array_equal(curve.epsilon, eps)
        assert np.array_equal(curve.analytic, modulus_analytic(f.spec, eps, D11))
        assert np.array_equal(curve.numeric, modulus_numeric(f, eps))
        assert np.all(np.diff(curve.numeric) >= -1e-12)
        assert curve.fitted_alpha == pytest.approx(1.0, abs=1e-6)
        domain_diameter = 2.0
        assert np.all(curve.analytic <= domain_diameter)
        assert np.all(curve.numeric <= domain_diameter)

    def test_absolute_has_both_methods(self):
        f = build_function(Absolute(0.0), D11)
        curve = sample_modulus_curve(f, (0.1, 0.5, 0.9))
        assert curve.analytic.shape == curve.numeric.shape == (3,)
        assert np.all(curve.analytic <= 1e-11) and np.all(curve.numeric <= 1e-11)
        assert curve.fitted_alpha is None  # all omegas are zero

    def test_repeated_epsilon_has_no_exponent(self):
        f = build_function(SymmetricPower(k=2.0), D11)
        curve = sample_modulus_curve(f, (0.1, 0.1, 0.1))
        assert np.array_equal(curve.numeric, modulus_numeric(f, [0.1, 0.1, 0.1]))
        assert curve.fitted_alpha is None  # one epsilon: no growth to fit


class TestTiltConjugateIdentity:
    def test_tilt_argmin_matches_conjugate_at_minus_eps(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            k = rng.uniform(1.4, 3.5)
            x0 = rng.uniform(-0.5, 0.5)
            eps = 10 ** rng.uniform(-5, -2)
            f = build_function(SymmetricPower(k=k, x_star=x0), (-2.0, 2.0))
            g = build_function(Tilt(f.spec, eps), (-2.0, 2.0))
            lo = flat_set(f, eps)[0]
            gl, gr = g.minimizer_set
            # the tilted minimizer (known in closed form) is where f' = -eps:
            # the conjugate subdifferential of the base at -eps, which is the
            # left end of its flat set at eps
            assert gl == pytest.approx(lo, abs=1e-9)
            assert gr == pytest.approx(lo, abs=1e-9)
