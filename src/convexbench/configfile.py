"""Sectioned key-value experiment configs with strict validation.

The format is deliberately small: ``[section]`` headers, ``key = value``
lines, ``#`` comment lines.  Unknown sections or keys are hard errors with
the offending line number, because a silently ignored typo (``sigmma``)
would corrupt Monte-Carlo results invisibly.

Example::

    [function]
    kind = sym-power
    k = 2
    x_star_distribution = uniform -1 1

    [oracle]
    sigma = 0.1
    master_seed = 20250810

    [algorithms]
    algorithm = binary-search r=1.5 delta=0.05
    algorithm = sgd schedule=1/t

    [grid]
    T = 100 215 464 1000 2154 4641 10000

    [run]
    replicates = 1000
    output_dir = out
    initial_interval = -2 2
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FieldError
from .experiments import (
    BinarySearchSpec,
    ExperimentConfig,
    FunctionFamily,
    SgdSpec,
    UniformDist,
)
from .functions import (
    Absolute,
    AsymmetricPower,
    FunctionSpec,
    PiecewiseLinear,
    SymmetricPower,
    Tilt,
)

__all__ = [
    "ConfigError",
    "RunSettings",
    "parse_config",
    "serialize_config",
    "default_t_grid",
    "DEFAULT_T_GRID",
]

# seven log-spaced budgets between 100 and 10000 (floored geometric steps)
DEFAULT_T_GRID = (100, 215, 464, 1000, 2154, 4641, 10000)


@dataclass(frozen=True)
class RunSettings:
    """A parsed config plus presentation metadata (where to write output)."""

    config: ExperimentConfig
    output_dir: str


class ConfigError(ValueError):
    """Config parse/validation failure, anchored to a 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


_KNOWN_KEYS = {
    "function": {
        "kind", "k", "k_l", "k_r", "x_star", "x_star_distribution",
        "breakpoints", "slopes", "eps",
        "base_kind", "base_k", "base_k_l", "base_k_r", "base_x_star",
        "base_breakpoints", "base_slopes",
    },
    "oracle": {"sigma", "master_seed"},
    "algorithms": {"algorithm"},
    "grid": {"T", "T_log_range"},
    "run": {"replicates", "output_dir", "initial_interval"},
}

_REQUIRED_SECTIONS = ("function", "oracle", "algorithms", "grid", "run")


def default_t_grid(lo: int = 100, hi: int = 10000, count: int = 7) -> tuple[int, ...]:
    """``count`` log-spaced integer budgets from lo to hi, floored, strictly
    increasing; ValueError when flooring leaves fewer than ``count``."""
    if lo < 1 or hi <= lo or count < 2:
        raise ValueError("need 1 <= lo < hi and count >= 2")
    ratio = (hi / lo) ** (1.0 / (count - 1))
    out = []
    for i in range(count):
        t = int(lo * ratio**i)
        if not out or t > out[-1]:
            out.append(t)
    if len(out) < count:
        raise ValueError(
            f"{count} floored log-spaced budgets from {lo} to {hi} are not distinct")
    out[-1] = hi
    return tuple(out)


def _parse_lines(text: str):
    """Raw pass: [(line_no, section, key, value)], duplicate keys flagged."""
    entries = []
    section = None
    section_lines = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _KNOWN_KEYS:
                raise ConfigError(ln, f"unknown section [{section}]")
            if section in section_lines:
                raise ConfigError(ln, f"duplicate section [{section}]")
            section_lines[section] = ln
            continue
        if "=" not in line:
            raise ConfigError(ln, f"expected 'key = value', got {line!r}")
        if section is None:
            raise ConfigError(ln, "key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS[section]:
            raise ConfigError(ln, f"unknown key {key!r} in section [{section}]")
        entries.append((ln, section, key, value))
    for sec in _REQUIRED_SECTIONS:
        if sec not in section_lines:
            raise ConfigError(0, f"missing required section [{sec}]")
    return entries


def _to_float(ln: int, key: str, value: str) -> float:
    try:
        v = float(value)
    except ValueError:
        raise ConfigError(ln, f"{key}: expected a number, got {value!r}") from None
    if not math.isfinite(v):
        raise ConfigError(ln, f"{key}: value must be finite, got {value!r}")
    return v


def _to_int(ln: int, key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(ln, f"{key}: expected an integer, got {value!r}") from None


def _to_floats(ln: int, key: str, value: str) -> tuple[float, ...]:
    return tuple(_to_float(ln, key, p) for p in value.split())


def _build_spec(ln_by_key, vals, prefix="") -> FunctionSpec:
    def get(key, default=None):
        return vals.get(prefix + key, default)

    def line(key):
        return ln_by_key.get(prefix + key, 0)

    kind = get("kind")
    if kind is None:
        raise ConfigError(0, f"missing key {prefix}kind in [function]")
    ln = line("kind")
    try:
        if kind == "sym-power":
            if get("k") is None:
                raise ConfigError(ln, "sym-power requires k")
            return SymmetricPower(
                k=_to_float(line("k"), "k", get("k")),
                x_star=_to_float(line("x_star"), "x_star", get("x_star", "0")),
            )
        if kind == "asym-power":
            if get("k_l") is None or get("k_r") is None:
                raise ConfigError(ln, "asym-power requires k_l and k_r")
            return AsymmetricPower(
                k_l=_to_float(line("k_l"), "k_l", get("k_l")),
                k_r=_to_float(line("k_r"), "k_r", get("k_r")),
                x_star=_to_float(line("x_star"), "x_star", get("x_star", "0")),
            )
        if kind == "absolute":
            return Absolute(
                x_star=_to_float(line("x_star"), "x_star", get("x_star", "0"))
            )
        if kind == "piecewise-linear":
            if get("breakpoints") is None or get("slopes") is None:
                raise ConfigError(ln, "piecewise-linear requires breakpoints and slopes")
            return PiecewiseLinear(
                breakpoints=_to_floats(line("breakpoints"), "breakpoints",
                                       get("breakpoints")),
                slopes=_to_floats(line("slopes"), "slopes", get("slopes")),
            )
        if kind == "tilt":
            if prefix:
                raise ConfigError(ln, "nested tilt is not supported in configs")
            if get("eps") is None:
                raise ConfigError(ln, "tilt requires eps")
            base_vals = {
                k.removeprefix("base_"): v
                for k, v in vals.items() if k.startswith("base_")
            }
            base_lines = {
                k.removeprefix("base_"): v
                for k, v in ln_by_key.items() if k.startswith("base_")
            }
            base = _build_spec(base_lines, base_vals)
            return Tilt(base, _to_float(line("eps"), "eps", get("eps")))
    except ValueError as e:
        if isinstance(e, ConfigError):
            raise
        raise ConfigError(ln, str(e)) from None
    raise ConfigError(ln, f"unknown function kind {kind!r}")


def _parse_algorithm(ln: int, value: str):
    parts = value.split()
    if not parts:
        raise ConfigError(ln, "empty algorithm line")
    name, kv = parts[0], parts[1:]
    params = {}
    for p in kv:
        if "=" not in p:
            raise ConfigError(ln, f"algorithm parameter {p!r} is not key=value")
        k, _, v = p.partition("=")
        if k in params:
            raise ConfigError(ln, f"repeated algorithm parameter {k!r}")
        params[k] = v
    try:
        if name == "binary-search":
            allowed = {"r", "delta"}
            if set(params) - allowed:
                raise ConfigError(
                    ln, f"unknown binary-search parameters {sorted(set(params) - allowed)}")
            if "r" not in params:
                raise ConfigError(ln, "binary-search requires r=<value>")
            return BinarySearchSpec(
                r=_to_float(ln, "r", params["r"]),
                delta=_to_float(ln, "delta", params.get("delta", "0.05")),
            )
        if name == "sgd":
            allowed = {"schedule", "scale", "iterate", "x0"}
            if set(params) - allowed:
                raise ConfigError(
                    ln, f"unknown sgd parameters {sorted(set(params) - allowed)}")
            if "schedule" not in params:
                raise ConfigError(ln, "sgd requires schedule=1/t or schedule=1/sqrt(t)")
            x0 = params.get("x0", "uniform")
            return SgdSpec(
                schedule=params["schedule"],
                scale=_to_float(ln, "scale", params.get("scale", "1")),
                iterate=params.get("iterate", "last"),
                x0="uniform" if x0 == "uniform" else _to_float(ln, "x0", x0),
            )
    except ValueError as e:
        if isinstance(e, ConfigError):
            raise
        raise ConfigError(ln, str(e)) from None
    raise ConfigError(ln, f"unknown algorithm {name!r}")


def parse_config(text: str) -> RunSettings:
    entries = _parse_lines(text)

    fn_vals, fn_lines = {}, {}
    algorithms = []
    grid_entries = {}
    oracle_vals, oracle_lines = {}, {}
    run_vals, run_lines = {}, {}
    for ln, section, key, value in entries:
        if section == "function":
            if key in fn_vals:
                raise ConfigError(ln, f"duplicate key {key!r} in [function]")
            fn_vals[key], fn_lines[key] = value, ln
        elif section == "oracle":
            if key in oracle_vals:
                raise ConfigError(ln, f"duplicate key {key!r} in [oracle]")
            oracle_vals[key], oracle_lines[key] = value, ln
        elif section == "algorithms":
            algorithms.append(_parse_algorithm(ln, value))
        elif section == "grid":
            if key in grid_entries:
                raise ConfigError(ln, f"duplicate key {key!r} in [grid]")
            grid_entries[key] = (ln, value)
        elif section == "run":
            if key in run_vals:
                raise ConfigError(ln, f"duplicate key {key!r} in [run]")
            run_vals[key], run_lines[key] = value, ln

    spec = _build_spec(fn_lines, fn_vals)
    function: FunctionSpec | FunctionFamily = spec
    if "x_star_distribution" in fn_vals:
        ln = fn_lines["x_star_distribution"]
        parts = fn_vals["x_star_distribution"].split()
        if len(parts) != 3 or parts[0] != "uniform":
            raise ConfigError(ln, "x_star_distribution must be 'uniform <lo> <hi>'")
        lo = _to_float(ln, "x_star_distribution", parts[1])
        hi = _to_float(ln, "x_star_distribution", parts[2])
        try:
            function = FunctionFamily(spec, UniformDist(lo, hi))
        except ValueError as e:
            raise ConfigError(ln, str(e)) from None

    if "sigma" not in oracle_vals:
        raise ConfigError(0, "missing key sigma in [oracle]")
    if "master_seed" not in oracle_vals:
        raise ConfigError(0, "missing key master_seed in [oracle]")
    sigma = _to_float(oracle_lines["sigma"], "sigma", oracle_vals["sigma"])
    seed = _to_int(oracle_lines["master_seed"], "master_seed",
                   oracle_vals["master_seed"])
    if seed < 0 or seed >= 2**64:
        raise ConfigError(oracle_lines["master_seed"],
                          "master_seed must fit in 64 unsigned bits")

    if not algorithms:
        raise ConfigError(0, "section [algorithms] lists no algorithms")

    if "T" in grid_entries and "T_log_range" in grid_entries:
        raise ConfigError(grid_entries["T_log_range"][0],
                          "give either T or T_log_range, not both")
    if "T" in grid_entries:
        ln_grid, value = grid_entries["T"]
        t_grid = tuple(_to_int(ln_grid, "T", p) for p in value.split())
        if not t_grid:
            raise ConfigError(ln_grid, "T list is empty")
    elif "T_log_range" in grid_entries:
        ln_grid, value = grid_entries["T_log_range"]
        parts = value.split()
        if len(parts) != 3:
            raise ConfigError(ln_grid, "T_log_range must be '<lo> <hi> <count>'")
        lo, hi, count = (_to_int(ln_grid, "T_log_range", p) for p in parts)
        try:
            t_grid = default_t_grid(lo, hi, count)
        except ValueError as e:
            raise ConfigError(ln_grid, str(e)) from None
    else:
        raise ConfigError(0, "section [grid] needs T or T_log_range")

    if "replicates" not in run_vals:
        raise ConfigError(0, "missing key replicates in [run]")
    replicates = _to_int(run_lines["replicates"], "replicates",
                         run_vals["replicates"])
    output_dir = run_vals.get("output_dir", "out")
    interval = (-2.0, 2.0)
    if "initial_interval" in run_vals:
        ln = run_lines["initial_interval"]
        parts = _to_floats(ln, "initial_interval", run_vals["initial_interval"])
        if len(parts) != 2 or not parts[0] < parts[1]:
            raise ConfigError(ln, "initial_interval must be '<a> <b>' with a < b")
        interval = (parts[0], parts[1])

    try:
        config = ExperimentConfig(
            function=function,
            algorithms=tuple(algorithms),
            T_grid=t_grid,
            replicates=replicates,
            sigma=sigma,
            master_seed=seed,
            initial_interval=interval,
        )
    except FieldError as e:
        field_lines = {"T_grid": ln_grid, "replicates": run_lines["replicates"],
                       "sigma": oracle_lines["sigma"]}
        raise ConfigError(field_lines.get(e.field, 0), str(e)) from None
    return RunSettings(config=config, output_dir=output_dir)


def _spec_lines(spec: FunctionSpec, prefix: str = "") -> list[str]:
    if isinstance(spec, SymmetricPower):
        return [f"{prefix}kind = sym-power", f"{prefix}k = {spec.k!r}",
                f"{prefix}x_star = {spec.x_star!r}"]
    if isinstance(spec, AsymmetricPower):
        return [f"{prefix}kind = asym-power", f"{prefix}k_l = {spec.k_l!r}",
                f"{prefix}k_r = {spec.k_r!r}", f"{prefix}x_star = {spec.x_star!r}"]
    if isinstance(spec, Absolute):
        return [f"{prefix}kind = absolute", f"{prefix}x_star = {spec.x_star!r}"]
    if isinstance(spec, PiecewiseLinear):
        bp = " ".join(repr(b) for b in spec.breakpoints)
        sl = " ".join(repr(s) for s in spec.slopes)
        return [f"{prefix}kind = piecewise-linear",
                f"{prefix}breakpoints = {bp}", f"{prefix}slopes = {sl}"]
    if isinstance(spec, Tilt):
        if prefix:
            raise ValueError("nested tilt cannot be serialized")
        lines = [f"kind = tilt", f"eps = {spec.eps!r}"]
        lines += _spec_lines(spec.base, prefix="base_")
        return lines
    raise TypeError(f"unknown spec type {type(spec)!r}")


def _algorithm_line(alg) -> str:
    if isinstance(alg, BinarySearchSpec):
        return f"algorithm = binary-search r={alg.r!r} delta={alg.delta!r}"
    if isinstance(alg, SgdSpec):
        x0 = "uniform" if alg.x0 == "uniform" else repr(alg.x0)
        return (f"algorithm = sgd schedule={alg.schedule} scale={alg.scale!r} "
                f"iterate={alg.iterate} x0={x0}")
    raise TypeError(f"unknown algorithm spec {type(alg)!r}")


def serialize_config(config: ExperimentConfig, output_dir: str = "out") -> str:
    """Canonical text form; parse(serialize(c)) == c."""
    lines = ["[function]"]
    if isinstance(config.function, FunctionFamily):
        lines += _spec_lines(config.function.template)
        d = config.function.x_star
        lines.append(f"x_star_distribution = uniform {d.lo!r} {d.hi!r}")
    else:
        lines += _spec_lines(config.function)
    lines += ["", "[oracle]", f"sigma = {config.sigma!r}",
              f"master_seed = {config.master_seed}"]
    lines += ["", "[algorithms]"]
    lines += [_algorithm_line(a) for a in config.algorithms]
    lines += ["", "[grid]", "T = " + " ".join(str(t) for t in config.T_grid)]
    a0, b0 = config.initial_interval
    lines += ["", "[run]", f"replicates = {config.replicates}",
              f"output_dir = {output_dir}",
              f"initial_interval = {a0!r} {b0!r}", ""]
    return "\n".join(lines)
