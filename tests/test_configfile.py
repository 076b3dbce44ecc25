"""Config files: budget grids, errors that name the offending line, and
the serialize/parse round trip."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexbench import (
    Absolute,
    AsymmetricPower,
    BinarySearchSpec,
    ExperimentConfig,
    FunctionFamily,
    PiecewiseLinear,
    SgdSpec,
    SymmetricPower,
    Tilt,
    UniformDist,
)
from convexbench.configfile import (
    DEFAULT_T_GRID,
    ConfigError,
    default_t_grid,
    parse_config,
    serialize_config,
)

CONFIG = """\
[function]
kind = asym-power
k_l = 1.5
k_r = 3
x_star_distribution = uniform -1 1

[oracle]
sigma = 0.1
master_seed = 7

[algorithms]
algorithm = binary-search r=1.5
algorithm = sgd schedule=1/t

[grid]
T = 100 215 464

[run]
replicates = 50
"""


def line_of(text, prefix):
    return next(i for i, line in enumerate(text.splitlines(), start=1)
                if line.startswith(prefix))


def config_error(old, new):
    text = CONFIG.replace(old, new)
    assert text != CONFIG
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    return info.value, line_of(text, new.split("=")[0])


class TestDefaultTGrid:
    def test_default_grid_unchanged(self):
        assert default_t_grid() == DEFAULT_T_GRID
        assert default_t_grid(100, 10000, 7) == (100, 215, 464, 1000, 2154, 4641, 10000)

    def test_deep_grid_unchanged(self):
        assert default_t_grid(10000, 100000, 3) == (10000, 31622, 100000)

    def test_too_few_distinct_budgets_rejected(self):
        with pytest.raises(ValueError):
            default_t_grid(100, 101, 3)

    def test_log_range_error_names_its_line(self):
        err, ln = config_error("T = 100 215 464", "T_log_range = 100 101 3")
        assert err.line == ln


class TestLineNumbers:
    def test_reference_config_parses(self):
        assert parse_config(CONFIG).config.T_grid == (100, 215, 464)

    def test_repeated_algorithm_parameter(self):
        err, ln = config_error("algorithm = binary-search r=1.5",
                               "algorithm = binary-search r=1.5 r=3")
        assert err.line == ln
        assert "'r'" in str(err)

    def test_zero_budget_is_a_grid_error(self):
        err, ln = config_error("T = 100 215 464", "T = 0 5 10")
        assert err.line == ln

    def test_negative_sigma_names_its_line(self):
        err, ln = config_error("sigma = 0.1", "sigma = -0.1")
        assert err.line == ln

    def test_decreasing_grid_names_its_line(self):
        err, ln = config_error("T = 100 215 464", "T = 215 100")
        assert err.line == ln

    def test_zero_replicates_names_its_line(self):
        err, ln = config_error("replicates = 50", "replicates = 0")
        assert err.line == ln


class TestAlgorithmSpecErrors:
    @pytest.mark.parametrize("line", [
        "algorithm = binary-search r=-1",
        "algorithm = binary-search r=1.5 delta=2",
        "algorithm = sgd schedule=1/t iterate=averge",
        "algorithm = sgd schedule=1/t scale=-1",
        "algorithm = sgd schedule=1/t scale=0",
        "algorithm = sgd schedule=1/t x0=middle",
    ])
    def test_invalid_spec_names_its_line(self, line):
        err, _ = config_error("algorithm = sgd schedule=1/t", line)
        assert err.line == line_of(CONFIG, "algorithm = sgd")


class TestFunctionErrors:
    def test_family_needs_a_template_with_x_star(self):
        old = "kind = asym-power\nk_l = 1.5\nk_r = 3\n"
        new = "kind = piecewise-linear\nbreakpoints = 0\nslopes = -1 1\n"
        text = CONFIG.replace(old, new)
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.line == line_of(text, "x_star_distribution")
        assert "x_star" in str(info.value)


# -- round trip ------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
exponent = st.floats(min_value=1.0, max_value=1e6, exclude_min=True)
positive = st.floats(min_value=0.0, max_value=1e12, exclude_min=True)
unit_open = st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                      exclude_max=True)


@st.composite
def ordered_pair(draw):
    a, b = sorted(draw(st.lists(finite, min_size=2, max_size=2, unique=True)))
    return a, b


@st.composite
def piecewise_linear(draw):
    n = draw(st.integers(1, 4))
    breakpoints = sorted(draw(st.lists(finite, min_size=n, max_size=n, unique=True)))
    slopes = sorted(draw(st.lists(finite, min_size=n + 1, max_size=n + 1)))
    return PiecewiseLinear(tuple(breakpoints), tuple(slopes))


x_star_specs = st.one_of(
    st.builds(SymmetricPower, exponent, finite),
    st.builds(AsymmetricPower, exponent, exponent, finite),
    st.builds(Absolute, finite),
)
base_specs = st.one_of(x_star_specs, piecewise_linear())
function_specs = st.one_of(base_specs, st.builds(Tilt, base_specs, finite))
families = st.builds(
    FunctionFamily,
    st.one_of(x_star_specs, st.builds(Tilt, x_star_specs, finite)),
    ordered_pair().map(lambda p: UniformDist(*p)),
)
algorithm_specs = st.one_of(
    st.builds(BinarySearchSpec, positive, unit_open),
    st.builds(SgdSpec, st.sampled_from(["1/t", "1/sqrt(t)"]), positive,
              st.sampled_from(["last", "average"]),
              st.one_of(st.just("uniform"), finite)),
)
configs = st.builds(
    ExperimentConfig,
    function=st.one_of(function_specs, families),
    algorithms=st.lists(algorithm_specs, min_size=1, max_size=4).map(tuple),
    T_grid=st.lists(st.integers(1, 10**9), min_size=1, max_size=8,
                    unique=True).map(lambda ts: tuple(sorted(ts))),
    replicates=st.integers(1, 10**6),
    sigma=st.floats(min_value=0.0, max_value=1e12),
    master_seed=st.integers(0, 2**64 - 1),
    initial_interval=ordered_pair(),
)


@settings(max_examples=300, deadline=None)
@given(configs)
def test_serialize_parse_round_trip(config):
    assert parse_config(serialize_config(config)).config == config


def test_round_trip_tilted_piecewise_linear():
    config = parse_config(CONFIG).config
    spec = Tilt(PiecewiseLinear((-0.5, 0.5), (-1.0, 0.0, 2.0)), 0.25)
    config = ExperimentConfig(spec, config.algorithms, config.T_grid,
                              config.replicates, config.sigma, config.master_seed)
    assert parse_config(serialize_config(config)).config == config
