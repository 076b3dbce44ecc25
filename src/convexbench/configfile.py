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

Function specs follow one grammar, read off the spec dataclasses and shared
with the ``modulus`` and ``superefficiency`` flags.  ``kind`` names the
class, the other keys are its fields, and all are required but ``x_star``:

    sym-power: k, x_star = 0          piecewise-linear: breakpoints, slopes
    asym-power: k_l, k_r, x_star = 0  tilt: eps, base_kind, base_<key>...
    absolute: x_star = 0

A tilt's base is any other kind, its keys spelled with the ``base_`` prefix.
Numbers must be finite; breakpoints and slopes are space-separated.  A key
of another kind (``k_r`` under ``kind = sym-power``) is an error on its line.
``x_star_distribution = uniform <lo> <hi>`` makes the spec a family whose
minimizer is drawn per replicate.

Algorithm lines follow the same grammar on one line, read off
``BinarySearchSpec`` and ``SgdSpec``: ``algorithm = <name> key=value ...``
with name ``binary-search`` (keys r, delta) or ``sgd`` (schedule, scale,
iterate, x0).  Each key is given at most once and is required unless its
field has a default.  A value is read by its field's type: a finite number,
text as written, or for x0 a finite number when it reads as one and
otherwise a word its class checks (``uniform``).
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, fields
from typing import get_type_hints

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
    "SPEC_KINDS",
    "ALGORITHM_KINDS",
    "BASE_KINDS",
    "parse_config",
    "serialize_config",
    "spec_from_fields",
    "spec_fields",
    "spec_keys",
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


SPEC_KINDS = {
    "sym-power": SymmetricPower,
    "asym-power": AsymmetricPower,
    "absolute": Absolute,
    "piecewise-linear": PiecewiseLinear,
    "tilt": Tilt,
}
ALGORITHM_KINDS = {"binary-search": BinarySearchSpec, "sgd": SgdSpec}
BASE_KINDS = tuple(kind for kind, cls in SPEC_KINDS.items() if cls is not Tilt)
# the key that names the class of each table
_TABLES = {"kind": SPEC_KINDS, "algorithm": ALGORITHM_KINDS}
_CLASSES = SPEC_KINDS | ALGORITHM_KINDS
_KIND_OF = {cls: (kind_key, kind) for kind_key, table in _TABLES.items()
            for kind, cls in table.items()}
# one number, space-separated numbers, the text itself, or a number when the
# text reads as one; any other field type is a nested spec, spelled under the
# prefix "<field>_"
_TEXT_TYPES = (float, tuple[float, ...], str, float | str)
_FIELDS = {
    kind: [(f.name, get_type_hints(cls)[f.name], f.default is MISSING)
           for f in fields(cls)]
    for kind, cls in _CLASSES.items()
}


def spec_keys(kinds=tuple(SPEC_KINDS), prefix: str = "") -> tuple[str, ...]:
    """Every key the given kinds spell, in table order."""
    keys = {prefix + "kind": None}
    for kind in kinds:
        for name, hint, _ in _FIELDS[kind]:
            if hint in _TEXT_TYPES:
                keys[prefix + name] = None
            else:
                keys.update(dict.fromkeys(spec_keys(BASE_KINDS, f"{prefix}{name}_")))
    return tuple(keys)


_KNOWN_KEYS = {
    "function": {*spec_keys(), "x_star_distribution"},
    "oracle": {"sigma", "master_seed"},
    "algorithms": {"algorithm"},
    "grid": {"T", "T_log_range"},
    "run": {"replicates", "output_dir", "initial_interval"},
}

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
    """Raw pass: per section, key -> value and key -> line number, and the
    [algorithms] lines as (line number, value).  Unknown sections and keys,
    duplicates and missing sections are errors."""
    vals, lines, algorithms = {}, {}, []
    section = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _KNOWN_KEYS:
                raise ConfigError(ln, f"unknown section [{section}]")
            if section in vals:
                raise ConfigError(ln, f"duplicate section [{section}]")
            vals[section], lines[section] = {}, {}
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
        if section == "algorithms":
            algorithms.append((ln, value))
        elif key in vals[section]:
            raise ConfigError(ln, f"duplicate key {key!r} in [{section}]")
        else:
            vals[section][key], lines[section][key] = value, ln
    for sec in _KNOWN_KEYS:
        if sec not in vals:
            raise ConfigError(0, f"missing required section [{sec}]")
    return vals, lines, algorithms


def _number(key: str, text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise FieldError(key, f"{key}: expected a number, got {text!r}") from None
    if not math.isfinite(v):
        raise FieldError(key, f"{key}: value must be finite, got {text!r}")
    return v


def _to_float(ln: int, key: str, value: str) -> float:
    try:
        return _number(key, value)
    except FieldError as e:
        raise ConfigError(ln, str(e)) from None


def _to_int(ln: int, key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(ln, f"{key}: expected an integer, got {value!r}") from None


def _value(key: str, hint, text: str):
    """A field's value, read from its text by the field's type."""
    if hint is str:
        return text
    if hint == tuple[float, ...]:
        return tuple(_number(key, p) for p in text.split())
    if hint == float | str:
        try:
            float(text)
        except ValueError:
            return text  # a word, which the spec class checks
    return _number(key, text)


def spec_from_fields(vals: Mapping[str, str], prefix: str = "",
                     kind_key: str = "kind"):
    """Build a function spec, or with ``kind_key="algorithm"`` an algorithm
    spec, from key -> text by the grammar in the module docstring.  Raises
    FieldError naming the key that is missing, malformed, not finite or not
    a key of its kind; a constraint of the spec class itself (``k > 1``)
    names the kind key."""
    kinds = BASE_KINDS if prefix else _TABLES[kind_key]
    name_key = prefix + kind_key
    if name_key not in vals:
        raise FieldError(name_key, f"missing key {name_key}")
    kind = vals[name_key]
    if kind not in kinds:
        raise FieldError(name_key, f"{name_key} must be one of {', '.join(kinds)}, "
                                   f"got {kind!r}")
    own = {name_key} | {prefix + n for n, hint, _ in _FIELDS[kind] if hint in _TEXT_TYPES}
    nested = tuple(f"{prefix}{n}_" for n, hint, _ in _FIELDS[kind]
                   if hint not in _TEXT_TYPES)
    for key in vals:
        if key.startswith(prefix) and key not in own and not key.startswith(nested):
            raise FieldError(key, f"{key} does not apply to {kind_key} {kind}")
    args = {}
    for name, hint, required in _FIELDS[kind]:
        key = prefix + name
        if hint not in _TEXT_TYPES:
            args[name] = spec_from_fields(vals, key + "_")
        elif key in vals:
            args[name] = _value(key, hint, vals[key])
        elif required:
            raise FieldError(key, f"{kind} requires {key}")
    try:
        return _CLASSES[kind](**args)
    except ValueError as e:
        raise FieldError(name_key, str(e)) from None


def spec_fields(spec, prefix: str = "") -> dict[str, str]:
    """Key -> text of a function or algorithm spec, in the order the
    serializer writes them: the kind (under ``algorithm`` for an algorithm),
    its fields, then a nested spec's keys."""
    kind_key, kind = _KIND_OF[type(spec)]
    out, nested = {prefix + kind_key: kind}, {}
    for name, hint, _ in _FIELDS[kind]:
        value = getattr(spec, name)
        if hint not in _TEXT_TYPES:
            nested = spec_fields(value, f"{prefix}{name}_")
        elif isinstance(value, tuple):
            out[prefix + name] = " ".join(repr(v) for v in value)
        else:
            out[prefix + name] = value if isinstance(value, str) else repr(value)
    return out | nested


def _parse_algorithm(ln: int, value: str):
    name, *pairs = value.split() or [""]
    vals = {"algorithm": name}
    for pair in pairs:
        key, eq, text = pair.partition("=")
        if not eq:
            raise ConfigError(ln, f"algorithm parameter {pair!r} is not key=value")
        if key in vals:
            raise ConfigError(ln, f"repeated algorithm parameter {key!r}")
        vals[key] = text
    try:
        return spec_from_fields(vals, kind_key="algorithm")
    except FieldError as e:
        raise ConfigError(ln, str(e)) from None


def parse_config(text: str) -> RunSettings:
    vals, lines, algorithm_lines = _parse_lines(text)
    algorithms = [_parse_algorithm(ln, value) for ln, value in algorithm_lines]

    fn_vals, fn_lines = vals["function"], lines["function"]
    distribution = fn_vals.pop("x_star_distribution", None)
    try:
        spec = spec_from_fields(fn_vals)
    except FieldError as e:
        # a missing key has no line of its own: point at the kind that needs it
        kind_key = "base_kind" if e.field.startswith("base_") else "kind"
        raise ConfigError(fn_lines.get(e.field) or fn_lines.get(kind_key) or
                          fn_lines.get("kind", 0), str(e)) from None
    function: FunctionSpec | FunctionFamily = spec
    if distribution is not None:
        ln = fn_lines["x_star_distribution"]
        parts = distribution.split()
        if len(parts) != 3 or parts[0] != "uniform":
            raise ConfigError(ln, "x_star_distribution must be 'uniform <lo> <hi>'")
        lo, hi = (_to_float(ln, "x_star_distribution", p) for p in parts[1:])
        try:
            function = FunctionFamily(spec, UniformDist(lo, hi))
        except ValueError as e:
            raise ConfigError(ln, str(e)) from None

    oracle_vals, oracle_lines = vals["oracle"], lines["oracle"]
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

    grid, grid_lines = vals["grid"], lines["grid"]
    if "T" in grid and "T_log_range" in grid:
        raise ConfigError(grid_lines["T_log_range"],
                          "give either T or T_log_range, not both")
    if "T" in grid:
        ln_grid = grid_lines["T"]
        t_grid = tuple(_to_int(ln_grid, "T", p) for p in grid["T"].split())
        if not t_grid:
            raise ConfigError(ln_grid, "T list is empty")
    elif "T_log_range" in grid:
        ln_grid = grid_lines["T_log_range"]
        parts = grid["T_log_range"].split()
        if len(parts) != 3:
            raise ConfigError(ln_grid, "T_log_range must be '<lo> <hi> <count>'")
        lo, hi, count = (_to_int(ln_grid, "T_log_range", p) for p in parts)
        try:
            t_grid = default_t_grid(lo, hi, count)
        except ValueError as e:
            raise ConfigError(ln_grid, str(e)) from None
    else:
        raise ConfigError(0, "section [grid] needs T or T_log_range")

    run_vals, run_lines = vals["run"], lines["run"]
    if "replicates" not in run_vals:
        raise ConfigError(0, "missing key replicates in [run]")
    replicates = _to_int(run_lines["replicates"], "replicates",
                         run_vals["replicates"])
    output_dir = run_vals.get("output_dir", "out")
    interval = (-2.0, 2.0)
    if "initial_interval" in run_vals:
        ln = run_lines["initial_interval"]
        parts = [_to_float(ln, "initial_interval", p)
                 for p in run_vals["initial_interval"].split()]
        if len(parts) != 2:
            raise ConfigError(ln, "initial_interval must be '<a> <b>'")
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
                       "sigma": oracle_lines["sigma"],
                       "initial_interval": run_lines.get("initial_interval", 0)}
        raise ConfigError(field_lines.get(e.field, 0), str(e)) from None
    return RunSettings(config=config, output_dir=output_dir)


def _algorithm_line(alg) -> str:
    vals = spec_fields(alg)
    pairs = (f"{key}={text}" for key, text in vals.items() if key != "algorithm")
    return " ".join([f"algorithm = {vals['algorithm']}", *pairs])


def serialize_config(config: ExperimentConfig, output_dir: str = "out") -> str:
    """Canonical text form; parse(serialize(c)) == c."""
    family = isinstance(config.function, FunctionFamily)
    spec = config.function.template if family else config.function
    lines = ["[function]"]
    lines += [f"{key} = {text}" for key, text in spec_fields(spec).items()]
    if family:
        d = config.function.x_star
        lines.append(f"x_star_distribution = uniform {d.lo!r} {d.hi!r}")
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
