"""Config files: budget grids, errors that name the offending line, and
the serialize/parse round trip."""
from dataclasses import MISSING, fields, replace
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexbench import (
    Absolute,
    AsymmetricPower,
    BinarySearchSpec,
    ExperimentConfig,
    FieldError,
    FunctionFamily,
    PiecewiseLinear,
    ScheduleError,
    SgdSpec,
    SymmetricPower,
    Tilt,
    UniformDist,
    epochs_schedule,
)
from convexbench.configfile import (
    DEFAULT_T_GRID,
    ConfigError,
    default_t_grid,
    parse_algorithm,
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

    def test_huge_count_rejected_before_the_loop(self):
        with pytest.raises(ValueError):
            default_t_grid(1, 10, 10**12)
        err, ln = config_error("T = 100 215 464", "T_log_range = 1 10 1000000000000")
        assert err.line == ln

    def test_log_range_error_names_its_line(self):
        err, ln = config_error("T = 100 215 464", "T_log_range = 100 101 3")
        assert err.line == ln

    def test_repeated_budget_rejected_at_once(self):
        # a billion budgets from 1 to 1e18 repeat at the second; walking on to
        # the count would stall the parse for minutes
        t0 = perf_counter()
        err, ln = config_error("T = 100 215 464",
                               "T_log_range = 1 1000000000000000000 1000000000")
        assert perf_counter() - t0 < 1.0
        assert err.line == ln
        assert "1000000000 floored log-spaced budgets" in str(err)
        assert str(err).endswith("are not distinct")


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

    def test_repeated_algorithm_id_names_its_second_line(self):
        # both curves would be written as sgd(1/t) and fitted as one
        sgd = "algorithm = sgd schedule=1/t"
        err, _ = config_error(sgd, f"{sgd}\nalgorithm = sgd scale=1 schedule=1/t")
        assert err.line == line_of(CONFIG, "algorithm = sgd") + 1
        assert "share the id sgd(1/t)" in str(err)

    def test_numeric_start_is_part_of_the_id(self):
        sgd = "algorithm = sgd schedule=1/t"
        text = CONFIG.replace(sgd, f"{sgd}\n{sgd} x0=0.5")
        ids = [a.algorithm_id for a in parse_config(text).config.algorithms]
        assert ids == ["binary-search(r=1.5)", "sgd(1/t)", "sgd(1/t;x0=0.5)"]

    def test_exact_r_and_delta_are_part_of_the_id(self):
        bs = "algorithm = binary-search r=1.5"
        text = CONFIG.replace(bs, f"{bs}\n{bs}000001\n{bs} delta=0.1")
        config = parse_config(text).config
        assert [a.algorithm_id for a in config.algorithms] == [
            "binary-search(r=1.5)", "binary-search(r=1.5000001)",
            "binary-search(r=1.5;delta=0.1)", "sgd(1/t)"]
        assert parse_config(serialize_config(config)).config == config


@pytest.mark.parametrize("old,new,key,at", [
    ("sigma = 0.1\n", "", "sigma", None),
    ("master_seed = 7\n", "", "master_seed", None),
    ("replicates = 50\n", "", "replicates", None),
    ("T = 100 215 464\n", "", "T", None),
    ("T = 100 215 464", "T = 100 215 464\nT_log_range = 100 1000 3", "T_log_range",
     "T_log_range"),
    ("T = 100 215 464", "T =", "T", "T ="),
    ("T = 100 215 464", "T_log_range = 100 1000", "T_log_range", "T_log_range"),
    ("master_seed = 7", "master_seed = 7.5", "master_seed", "master_seed"),
    ("replicates = 50", "replicates = 5e1", "replicates", "replicates"),
    ("master_seed = 7", "master_seed = -1", "master_seed", "master_seed"),
    ("master_seed = 7", f"master_seed = {2**64}", "master_seed", "master_seed"),
    ("algorithm = binary-search r=1.5\nalgorithm = sgd schedule=1/t\n", "",
     "algorithm", None),
], ids=["no-sigma", "no-master_seed", "no-replicates", "no-T", "T-and-T_log_range",
        "empty-T", "two-number-T_log_range", "fractional-seed", "float-replicates",
        "seed-minus-1", "seed-2^64", "no-algorithms"])
def test_run_setting_error_names_its_line_and_key(old, new, key, at):
    text = CONFIG.replace(old, new)
    assert text != CONFIG
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert info.value.line == (0 if at is None else line_of(text, at))
    assert key in str(info.value)


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


BAD_ALGORITHM_LINES = [
    ("algorithm = newton r=1.5", "algorithm must be one of binary-search, sgd, "
                                 "got 'newton'"),
    # superefficiency --estimator takes the constant estimator, a config line does not
    ("algorithm = constant x_hat=0.1", "algorithm must be one of binary-search, sgd, "
                                       "got 'constant'"),
    ("algorithm = sgd schedule=1/t step=2", "step does not apply to algorithm sgd"),
    ("algorithm = binary-search delta=0.1", "binary-search requires r"),
    ("algorithm = sgd scale=2", "sgd requires schedule"),
    ("algorithm = sgd schedule=1/t 0.5", "'0.5' is not key=value"),
    ("algorithm = sgd schedule=1/t x0=nan", "x0: value must be finite"),
    ("algorithm = sgd schedule=1/t x0=inf", "x0: value must be finite"),
    ("algorithm = sgd schedule=1/t scale=1e400", "scale: value must be finite"),
    ("algorithm = sgd schedule=1/t algorithm=sgd", "repeated algorithm parameter "
                                                   "'algorithm'"),
]


class TestAlgorithmGrammar:
    @pytest.mark.parametrize("line,names", BAD_ALGORITHM_LINES)
    def test_error_names_its_line_and_key(self, line, names):
        err, _ = config_error("algorithm = sgd schedule=1/t", line)
        assert err.line == line_of(CONFIG, "algorithm = sgd")
        assert names in str(err)

    @pytest.mark.parametrize("line,names", BAD_ALGORITHM_LINES)
    def test_line_body_raises_the_field_error_config_files_report(self, line, names):
        # parse_config adds only the line number to parse_algorithm's message
        err, _ = config_error("algorithm = sgd schedule=1/t", line)
        with pytest.raises(FieldError) as info:
            parse_algorithm(line.removeprefix("algorithm = "))
        assert names in str(info.value)
        assert str(err) == f"line {err.line}: {info.value}"

    def test_omitted_keys_take_the_class_defaults(self):
        algorithms = parse_config(CONFIG).config.algorithms
        assert algorithms == (BinarySearchSpec(1.5), SgdSpec("1/t"))


class TestFunctionErrors:
    SYM = "kind = sym-power\nk = 2\n"

    @pytest.mark.parametrize("function,bad", [
        (SYM, "k_r = 3"),
        (SYM, "eps = 0.5"),
        (SYM, "breakpoints = 0 1"),
        (SYM, "base_kind = absolute"),
        (SYM, "base_k = 9"),
        ("kind = tilt\neps = 0.1\nbase_kind = absolute\n", "base_k = 7"),
        ("kind = piecewise-linear\nbreakpoints = 0\nslopes = -1 1\n", "x_star = 0"),
    ], ids=lambda v: v.split("\n")[0])
    def test_key_of_another_kind_names_its_line(self, function, bad):
        text = CONFIG.replace("kind = asym-power\nk_l = 1.5\nk_r = 3\n",
                              function + bad + "\n")
        text = text.replace("x_star_distribution = uniform -1 1\n", "")
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.line == line_of(text, bad)
        assert bad.split()[0] in str(info.value)

    @pytest.mark.parametrize("old,new", [
        ("k_r = 3", "k_r = inf"),
        ("k_r = 3", "k_r = nan"),
        ("k_r = 3", "k_r = three"),
        ("kind = asym-power", "kind = cubic"),
    ])
    def test_bad_value_names_its_line(self, old, new):
        err, ln = config_error(old, new)
        assert err.line == ln

    @pytest.mark.parametrize("base,bad", [
        ("base_kind = tilt\n", "base_kind"),
        ("base_kind = cubic\n", "base_kind"),
        ("base_kind = sym-power\n", "base_kind"),  # missing base_k
        ("base_kind = asym-power\nbase_k_l = 1.5\nbase_k_r = 3\nbase_k = 2\n",
         "base_k ="),
    ], ids=["nested-tilt", "unknown-kind", "missing-key", "key-of-another-kind"])
    def test_bad_tilt_base_names_its_line(self, base, bad):
        text = CONFIG.replace("kind = asym-power\nk_l = 1.5\nk_r = 3\n",
                              "kind = tilt\neps = 0.1\n" + base)
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.line == line_of(text, bad)

    def test_spec_constraint_names_the_kind_line(self):
        err, _ = config_error("k_l = 1.5", "k_l = 0.5")
        assert err.line == line_of(CONFIG, "kind")
        assert "k_l, k_r > 1" in str(err)

    def test_family_needs_a_template_with_x_star(self):
        old = "kind = asym-power\nk_l = 1.5\nk_r = 3\n"
        new = "kind = piecewise-linear\nbreakpoints = 0\nslopes = -1 1\n"
        text = CONFIG.replace(old, new)
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.line == line_of(text, "x_star_distribution")
        assert "x_star" in str(info.value)


class TestInitialInterval:
    @pytest.mark.parametrize("interval", [(2.0, -2.0), (1.0, 1.0),
                                          (float("nan"), 1.0), (-float("inf"), 2.0),
                                          (-1.0, float("inf"))])
    def test_config_rejects_empty_interval(self, interval):
        config = parse_config(CONFIG).config
        with pytest.raises(FieldError) as info:
            ExperimentConfig(config.function, config.algorithms, config.T_grid,
                             config.replicates, config.sigma, config.master_seed,
                             interval)
        assert info.value.field == "initial_interval"

    @pytest.mark.parametrize("value", ["2 -2", "1 1", "0", "-1 0 1", "-1 inf"])
    def test_bad_interval_names_its_line(self, value):
        text = CONFIG + f"initial_interval = {value}\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.line == line_of(text, "initial_interval")


# -- serialized text ---------------------------------------------------------

SERIALIZED_TAIL = """
[oracle]
sigma = 0.1
master_seed = 7

[algorithms]
algorithm = binary-search r=1.5 delta=0.05
algorithm = sgd schedule=1/sqrt(t) scale=2.0 iterate=average x0=0.5

[grid]
T = 100 1000

[run]
replicates = 20
output_dir = panel
initial_interval = -2.0 2.0
"""
SYM_LINES = "sym-power\nk = 1.5\nx_star = 0.25\n"
ASYM_LINES = "asym-power\nk_l = 1.5\nk_r = 3.0\nx_star = -0.5\n"
ABS_LINES = "absolute\nx_star = 0.125\n"
PL_LINES = "piecewise-linear\nbreakpoints = -0.5 0.0 0.5\nslopes = -2.0 -0.5 1.0 3.0\n"
GOLDEN_SPECS = {
    "sym": (SymmetricPower(1.5, 0.25), SYM_LINES),
    "asym": (AsymmetricPower(1.5, 3.0, -0.5), ASYM_LINES),
    "absolute": (Absolute(0.125), ABS_LINES),
    "piecewise-linear": (PiecewiseLinear((-0.5, 0.0, 0.5), (-2.0, -0.5, 1.0, 3.0)),
                         PL_LINES),
}


def tilt_lines(base_lines):
    base = "".join(f"base_{line}\n" for line in base_lines.splitlines()[1:])
    return f"tilt\neps = 0.1\nbase_kind = {base_lines.splitlines()[0]}\n{base}"


@pytest.mark.parametrize("function,lines", [
    pytest.param(spec, lines, id=name) for name, (spec, lines) in GOLDEN_SPECS.items()
] + [
    pytest.param(Tilt(spec, 0.1), tilt_lines(lines), id=f"tilt-{name}")
    for name, (spec, lines) in GOLDEN_SPECS.items()
] + [
    pytest.param(
        FunctionFamily(Tilt(SymmetricPower(2.0), -0.05), UniformDist(-1.0, 1.0)),
        "tilt\neps = -0.05\nbase_kind = sym-power\nbase_k = 2.0\nbase_x_star = 0.0\n"
        "x_star_distribution = uniform -1.0 1.0\n", id="family"),
])
def test_serialized_text_is_unchanged(function, lines):
    config = ExperimentConfig(
        function, (BinarySearchSpec(1.5), SgdSpec("1/sqrt(t)", 2.0, "average", 0.5)),
        (100, 1000), 20, 0.1, 7, (-2.0, 2.0))
    text = serialize_config(config, "panel")
    assert text == "[function]\nkind = " + lines + SERIALIZED_TAIL
    assert parse_config(text).config == config


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


def rounds_fit(fields):
    """Whether every binary search splits every budget into rounds that one
    block read can hold (``MAX_T0``): ``ExperimentConfig`` refuses the rest."""
    for alg in fields["algorithms"]:
        for T in fields["T_grid"] if isinstance(alg, BinarySearchSpec) else ():
            try:
                epochs_schedule(T, alg.r)
            except ScheduleError:
                pass  # a cell reported missing; the config is accepted
            except ValueError:
                return False
    return True


configs = st.fixed_dictionaries(dict(
    function=st.one_of(function_specs, families),
    algorithms=st.lists(algorithm_specs, min_size=1, max_size=4,
                        unique_by=lambda a: a.algorithm_id).map(tuple),
    T_grid=st.lists(st.integers(1, 10**9), min_size=1, max_size=8,
                    unique=True).map(lambda ts: tuple(sorted(ts))),
    replicates=st.integers(1, 10**6),
    sigma=st.floats(min_value=0.0, max_value=1e12),
    master_seed=st.integers(0, 2**64 - 1),
    initial_interval=ordered_pair(),
)).filter(rounds_fit).map(lambda fields: ExperimentConfig(**fields))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(configs)
def test_serialize_parse_round_trip(config):
    assert parse_config(serialize_config(config)).config == config


@st.composite
def algorithm_lines(draw):
    """An algorithm line with its keys in any order and any defaulted key
    left out, and the spec it must parse to."""
    spec = draw(algorithm_specs)
    kept = [f.name for f in fields(spec) if f.default is MISSING or draw(st.booleans())]
    texts = {name: getattr(spec, name) for name in kept}
    texts = {k: v if isinstance(v, str) else repr(v) for k, v in texts.items()}
    pairs = [f"{name}={texts[name]}" for name in draw(st.permutations(kept))]
    name = "binary-search" if isinstance(spec, BinarySearchSpec) else "sgd"
    defaults = {f.name: f.default for f in fields(spec) if f.name not in kept}
    return " ".join([f"algorithm = {name}", *pairs]), replace(spec, **defaults)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(algorithm_lines())
def test_algorithm_line_round_trip(line_and_spec):
    line, spec = line_and_spec
    algorithms = "algorithm = binary-search r=1.5\nalgorithm = sgd schedule=1/t"
    config = parse_config(CONFIG.replace(algorithms, line)).config
    assert config.algorithms == (spec,)
    # the body after "algorithm =", as superefficiency --estimator takes it
    assert parse_algorithm(line.removeprefix("algorithm = ")) == spec


def test_round_trip_tilted_piecewise_linear():
    config = parse_config(CONFIG).config
    spec = Tilt(PiecewiseLinear((-0.5, 0.5), (-1.0, 0.0, 2.0)), 0.25)
    config = ExperimentConfig(spec, config.algorithms, config.T_grid,
                              config.replicates, config.sigma, config.master_seed)
    assert parse_config(serialize_config(config)).config == config
