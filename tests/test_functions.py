"""Tests for the convex function catalog, subgradients, minimizer sets and distances."""
import math

import numpy as np
import pytest
from scalar_reference import eval_spec

from convexbench import (
    Absolute,
    AsymmetricPower,
    DomainError,
    PiecewiseLinear,
    SymmetricPower,
    Tilt,
    build_function,
    distance,
    spec_id,
    with_x_star,
)
from convexbench.functions import minimizer_interval, subgrad_spec

SHIFTABLE_SPECS = [
    SymmetricPower(1.5),
    SymmetricPower(3.0),
    AsymmetricPower(1.5, 3.0),
    Absolute(),
    Tilt(AsymmetricPower(1.5, 3.0), -0.05),
    Tilt(SymmetricPower(1.5), 5.0),  # level set left of the domain
    Tilt(Absolute(), 1.0),  # half-infinite level set
    Tilt(Absolute(), -1.5),  # monotone: no level set at slope 0
]


class TestMinNormSubgradient:
    def test_absolute_at_kink_is_zero(self):
        # min-norm element of [-1, 1]
        assert subgrad_spec(Absolute(0.0), 0.0) == 0.0

    def test_power_k3_matches_central_difference(self):
        spec = SymmetricPower(k=3.0, x_star=0.0)
        g = subgrad_spec(spec, -2.0)
        h = 1e-6
        fd = (eval_spec(spec, -2.0 + h) - eval_spec(spec, -2.0 - h)) / (2 * h)
        assert abs(g - fd) < 1e-5
        assert g == -4.0

    def test_unique_minimizer_gives_zero(self):
        assert subgrad_spec(SymmetricPower(k=2.0, x_star=0.25), 0.25) == 0.0

    def test_domain_error(self):
        f = build_function(SymmetricPower(k=2.0), (-1.0, 1.0))
        with pytest.raises(DomainError):
            f.subgrad(5.0)
        with pytest.raises(DomainError):
            f.subgrad(1.5)
        with pytest.raises(DomainError):
            f.subgrad(-1.0000001)

    def test_piecewise_linear_breakpoint_rule(self):
        # adjacent slopes (s-, s+) with 0 inside -> 0, else endpoint nearer 0
        f = PiecewiseLinear(breakpoints=(0.0,), slopes=(-1.0, 2.0))
        assert subgrad_spec(f, 0.0) == 0.0
        g = PiecewiseLinear(breakpoints=(0.0,), slopes=(1.0, 2.0))
        assert subgrad_spec(g, 0.0) == 1.0
        h = PiecewiseLinear(breakpoints=(0.0,), slopes=(-3.0, -1.0))
        assert subgrad_spec(h, 0.0) == -1.0

    def test_deterministic_repeat(self):
        f = build_function(AsymmetricPower(1.5, 3.0, x_star=0.1), (-2.0, 2.0))
        for x in (-1.3, 0.1, 0.7):
            assert f.subgrad(x) == f.subgrad(x)


class TestScalarArrayAgreement:
    @pytest.mark.parametrize(
        "spec", SHIFTABLE_SPECS[:5] + [PiecewiseLinear((-0.5, 0.5), (-1.0, 0.0, 2.0))],
        ids=spec_id)
    def test_scalar_and_array_formulas_agree_bitwise(self, spec):
        x = np.random.default_rng(5).uniform(-2.0, 2.0, 5_000)
        for formula in (subgrad_spec, eval_spec):
            want = formula(spec, x)
            got = np.array([float(formula(spec, float(v))) for v in x])
            assert np.array_equal(got, want)


def err(x, f):
    """Distance from the point x to the minimizer set of f."""
    return distance((x, x), f.minimizer_set)


class TestErr:
    def test_distance_to_singleton(self):
        f = build_function(SymmetricPower(k=2.0, x_star=0.25), (-2.0, 2.0))
        assert err(0.3, f) == pytest.approx(0.05, abs=1e-15)

    def test_inside_minimizer_set_is_zero(self):
        f = build_function(
            PiecewiseLinear(breakpoints=(0.0, 0.5), slopes=(-1.0, 0.0, 1.0)),
            (-2.0, 2.0),
        )
        assert f.minimizer_set == (0.0, 0.5)
        assert err(0.25, f) == 0.0
        assert err(0.0, f) == 0.0

    def test_distance_to_interval_endpoint(self):
        f = build_function(
            PiecewiseLinear(breakpoints=(0.0, 0.5), slopes=(-1.0, 0.0, 1.0)),
            (-2.0, 2.0),
        )
        assert err(-1.0, f) == 1.0

    def test_nonnegative(self):
        f = build_function(SymmetricPower(k=1.5, x_star=-0.4), (-2.0, 2.0))
        for x in np.linspace(-2, 2, 101):
            assert err(float(x), f) >= 0.0


class TestDistance:
    def test_between_intervals_either_way(self):
        assert distance((0.0, 1.0), (2.5, 3.0)) == 1.5
        assert distance((2.5, 3.0), (0.0, 1.0)) == 1.5
        assert distance((0.0, 1.0), (0.5, 3.0)) == 0.0

    def test_arrays_match_scalars(self):
        x = np.linspace(-2.0, 2.0, 41)
        lo, hi = np.full(41, -0.5), np.linspace(-0.5, 0.5, 41)
        got = distance((x, x), (lo, hi))
        want = [float(distance((a, a), (b, c))) for a, b, c in zip(x, lo, hi)]
        assert np.array_equal(got, want)

    def test_zero_is_positive(self):
        # -0.0 - 0.0 is -0.0; a distance of zero prints as 0.0 all the same
        assert math.copysign(1.0, distance((0.0, 0.0), (-0.0, 1.0))) == 1.0


class TestPairDistance:
    """Distance between the minimizer sets of a function and an alternative."""

    def test_tilt_moves_minimizer_by_eps_for_k2(self):
        f = build_function(SymmetricPower(k=2.0, x_star=0.0), (-2.0, 2.0))
        g = build_function(Tilt(f.spec, 0.1), (-2.0, 2.0))
        assert distance(f.minimizer_set, g.minimizer_set) == 0.1
        # independent check: dense grid minimization of the tilted function
        xs = np.linspace(-2.0, 2.0, 400_001)
        grid_min = xs[np.argmin(eval_spec(g.spec, xs))]
        assert abs(grid_min - (-0.1)) <= (4.0 / 400_000)

    def test_identical_functions(self):
        f = build_function(AsymmetricPower(1.5, 3.0), (-2.0, 2.0))
        assert distance(f.minimizer_set, f.minimizer_set) == 0.0

    def test_overlapping_intervals(self):
        f = build_function(
            PiecewiseLinear(breakpoints=(0.0, 1.0), slopes=(-1.0, 0.0, 1.0)),
            (-3.0, 3.0),
        )
        g = build_function(
            PiecewiseLinear(breakpoints=(0.5, 2.0), slopes=(-1.0, 0.0, 1.0)),
            (-3.0, 3.0),
        )
        assert f.minimizer_set == (0.0, 1.0)
        assert g.minimizer_set == (0.5, 2.0)
        assert distance(f.minimizer_set, g.minimizer_set) == 0.0


class TestSpecValidation:
    def test_power_exponent_must_exceed_one(self):
        with pytest.raises(ValueError):
            SymmetricPower(k=1.0)
        with pytest.raises(ValueError):
            AsymmetricPower(k_l=0.5, k_r=2.0)

    def test_piecewise_linear_slopes_nondecreasing(self):
        with pytest.raises(ValueError):
            PiecewiseLinear(breakpoints=(0.0,), slopes=(1.0, -1.0))
        with pytest.raises(ValueError):
            PiecewiseLinear(breakpoints=(1.0, 0.0), slopes=(-1.0, 0.0, 1.0))

    @pytest.mark.parametrize("build", [
        lambda v: SymmetricPower(k=v),
        lambda v: SymmetricPower(k=2.0, x_star=v),
        lambda v: AsymmetricPower(k_l=v, k_r=2.0),
        lambda v: AsymmetricPower(k_l=2.0, k_r=v),
        lambda v: AsymmetricPower(k_l=2.0, k_r=2.0, x_star=v),
        lambda v: Absolute(v),
        lambda v: PiecewiseLinear(breakpoints=(v,), slopes=(-1.0, 1.0)),
        lambda v: PiecewiseLinear(breakpoints=(0.0,), slopes=(-1.0, v)),
        lambda v: Tilt(SymmetricPower(2.0), v),
    ], ids=["k", "x_star", "k_l", "k_r", "asym-x_star", "absolute-x_star",
            "breakpoints", "slopes", "eps"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_numbers_must_be_finite(self, build, value):
        with pytest.raises(ValueError, match="finite"):
            build(value)

    @pytest.mark.parametrize("domain", [(-float("inf"), 1.0), (-1.0, float("inf")),
                                        (float("nan"), 1.0)])
    def test_domain_must_be_finite(self, domain):
        with pytest.raises(ValueError, match="finite"):
            build_function(SymmetricPower(k=2.0), domain)

    def test_nested_tilt_collapses(self):
        t = Tilt(Tilt(SymmetricPower(k=2.0), 0.1), 0.2)
        assert isinstance(t.base, SymmetricPower)
        assert t.eps == pytest.approx(0.3)

    def test_with_x_star(self):
        assert with_x_star(SymmetricPower(k=2.0), 0.7).x_star == 0.7
        t = with_x_star(Tilt(Absolute(0.0), 0.1), -0.3)
        assert t.base.x_star == -0.3
        with pytest.raises(ValueError):
            with_x_star(PiecewiseLinear((0.0,), (-1.0, 1.0)), 0.5)

    def test_spec_ids_distinct(self):
        ids = {
            spec_id(SymmetricPower(k=2.0)),
            spec_id(SymmetricPower(k=3.0)),
            spec_id(AsymmetricPower(1.5, 3.0)),
            spec_id(Absolute()),
            spec_id(Tilt(SymmetricPower(k=2.0), 0.01)),
            spec_id(PiecewiseLinear((0.0,), (-1.0, 1.0))),
        }
        assert len(ids) == 6


class TestConvexityStructure:
    """Sampled structural invariants of the built functions."""

    CATALOG = [
        SymmetricPower(k=1.5, x_star=0.2),
        SymmetricPower(k=2.0, x_star=-0.4),
        SymmetricPower(k=3.0),
        AsymmetricPower(1.5, 3.0, x_star=0.1),
        AsymmetricPower(2.0, 3.0, x_star=-0.2),
        Absolute(0.3),
        PiecewiseLinear(breakpoints=(-0.5, 0.0, 0.75), slopes=(-2.0, -0.5, 0.0, 1.5)),
        Tilt(SymmetricPower(k=2.0), 0.25),
        Tilt(Absolute(0.0), 0.4),
    ]

    @pytest.mark.parametrize("spec", CATALOG, ids=spec_id)
    def test_subgradient_nondecreasing(self, spec):
        f = build_function(spec, (-2.0, 2.0))
        xs = np.sort(np.random.default_rng(0).uniform(-2, 2, 200))
        gs = [f.subgrad(float(x)) for x in xs]
        assert all(g2 >= g1 for g1, g2 in zip(gs, gs[1:]))

    @pytest.mark.parametrize("spec", CATALOG, ids=spec_id)
    def test_midpoint_convexity(self, spec):
        f = build_function(spec, (-2.0, 2.0))
        rng = np.random.default_rng(1)
        for _ in range(200):
            x, y = rng.uniform(-2, 2, 2)
            lhs = eval_spec(f.spec, (x + y) / 2)
            rhs = (eval_spec(f.spec, x) + eval_spec(f.spec, y)) / 2
            assert lhs <= rhs + 1e-12

    @pytest.mark.parametrize("spec", CATALOG, ids=spec_id)
    def test_first_order_inequality(self, spec):
        f = build_function(spec, (-2.0, 2.0))
        rng = np.random.default_rng(2)
        for _ in range(200):
            x, y = rng.uniform(-2, 2, 2)
            fx, fy = eval_spec(f.spec, x), eval_spec(f.spec, y)
            assert fy >= fx + f.subgrad(x) * (y - x) - 1e-9

    @pytest.mark.parametrize("spec", CATALOG, ids=spec_id)
    def test_subgradient_sign_around_minimizer(self, spec):
        f = build_function(spec, (-2.0, 2.0))
        xl, xr = f.minimizer_set
        assert -2.0 <= xl <= xr <= 2.0
        rng = np.random.default_rng(3)
        if xl > xr - 1e-12:
            interior = []
        else:
            interior = rng.uniform(xl + 1e-9, xr - 1e-9, 20)
        for x in interior:
            assert f.subgrad(float(x)) == 0.0
        for x in rng.uniform(-2.0, xl, 20) if xl > -2.0 else []:
            assert f.subgrad(float(x)) < 0.0
        for x in rng.uniform(xr, 2.0, 20) if xr < 2.0 else []:
            assert f.subgrad(float(x)) > 0.0

    def test_tilt_subgrad_identity_at_differentiable_points(self):
        base = SymmetricPower(k=2.5, x_star=0.1)
        eps = 0.37
        rng = np.random.default_rng(4)
        for x in rng.uniform(-2, 2, 100):
            assert subgrad_spec(Tilt(base, eps), x) == subgrad_spec(base, x) + eps

    def test_tilt_eval_identity(self):
        base = AsymmetricPower(1.5, 2.0)
        eps = -0.2
        rng = np.random.default_rng(5)
        for x in rng.uniform(-2, 2, 50):
            assert eval_spec(Tilt(base, eps), x) == pytest.approx(
                eval_spec(base, x) + eps * x, rel=1e-15, abs=1e-15
            )


class TestMinimizerSets:
    def test_tilted_absolute_saturates(self):
        # tilt beyond the kink slope makes the function monotone
        f = build_function(Tilt(Absolute(0.0), 1.5), (-2.0, 2.0))
        assert f.minimizer_set == (-2.0, -2.0)
        g = build_function(Tilt(Absolute(0.0), -1.5), (-2.0, 2.0))
        assert g.minimizer_set == (2.0, 2.0)

    def test_tilted_absolute_at_exact_slope(self):
        f = build_function(Tilt(Absolute(0.5), 1.0), (-2.0, 2.0))
        assert f.minimizer_set == (-2.0, 0.5)

    def test_tilt_of_asymmetric_power(self):
        # positive tilt moves the minimizer left through the k_l branch
        f = build_function(Tilt(AsymmetricPower(2.0, 3.0), 0.04), (-2.0, 2.0))
        xl, xr = f.minimizer_set
        assert xl == xr == pytest.approx(-0.04, rel=1e-12)
        g = build_function(Tilt(AsymmetricPower(2.0, 3.0), -0.04), (-2.0, 2.0))
        assert g.minimizer_set[0] == pytest.approx(0.2, rel=1e-12)

    def test_minimizer_clamped_to_domain(self):
        f = build_function(SymmetricPower(k=2.0, x_star=0.0), (0.5, 2.0))
        assert f.minimizer_set == (0.5, 0.5)

    def test_piecewise_linear_flat_bottom(self):
        f = build_function(
            PiecewiseLinear(breakpoints=(-1.0, 0.0, 1.0), slopes=(-2.0, 0.0, 0.0, 3.0)),
            (-2.0, 2.0),
        )
        assert f.minimizer_set == (-1.0, 1.0)

    @pytest.mark.parametrize("spec", SHIFTABLE_SPECS, ids=spec_id)
    def test_family_intervals_match_shifted_copies(self, spec):
        domain = (-2.0, 2.0)
        x_star = np.concatenate([np.random.default_rng(6).uniform(-1.9, 1.9, 200),
                                 [-2.0, 2.0, 0.0]])
        lo, hi = minimizer_interval(spec, domain, x_star)
        want = [build_function(with_x_star(spec, v), domain).minimizer_set
                for v in x_star]
        assert np.array_equal(lo, [w[0] for w in want])
        assert np.array_equal(hi, [w[1] for w in want])
