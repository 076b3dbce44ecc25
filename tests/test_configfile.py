"""Config files: budget grids, and errors that name the offending line."""
import pytest

from convexbench.configfile import (
    DEFAULT_T_GRID,
    ConfigError,
    default_t_grid,
    parse_config,
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
