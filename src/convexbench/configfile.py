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
text as written, or for x0 and x_hat a finite number when it reads as one
and otherwise a word its class checks (``uniform``, ``midpoint``).
``parse_algorithm`` reads one line body, the text after ``algorithm =``;
``superefficiency --estimator`` takes the same body or ``constant
[x_hat=...]``, which config lines refuse: the harness has no cell for it.

Each ``[oracle]``, ``[grid]`` and ``[run]`` key sets a field of ``RunSettings``
or of ``ExperimentConfig``, which checks its bounds.  Keys without a default
are required; ``T_log_range`` sets T to ``default_t_grid(lo, hi, count)``:

    [oracle] sigma = <number>          master_seed = <integer>
    [grid]   T = <integer> ...         or T_log_range = <lo> <hi> <count>
    [run]    replicates = <integer>    output_dir = <text>, default out
             initial_interval = <a> <b> (numbers), default -2.0 2.0
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, fields
from typing import get_type_hints

from .errors import FieldError
from .experiments import (
    BinarySearchSpec,
    ConstantEstimator,
    ExperimentConfig,
    FunctionFamily,
    SgdSpec,
    UniformDist,
    repeated_algorithm,
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
    "ESTIMATOR_KINDS",
    "BASE_KINDS",
    "parse_config",
    "parse_algorithm",
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
    output_dir: str = "out"


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
# superefficiency --estimator also takes the constant, which no harness cell runs
ESTIMATOR_KINDS = ALGORITHM_KINDS | {"constant": ConstantEstimator}
BASE_KINDS = tuple(kind for kind, cls in SPEC_KINDS.items() if cls is not Tilt)
# the key that names the class of each table
_TABLES = {"kind": SPEC_KINDS, "algorithm": ALGORITHM_KINDS}
_CLASSES = SPEC_KINDS | ESTIMATOR_KINDS
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


# run-setting key -> (section, the field it sets, the type its text reads as);
# a field is written under its first key
_SETTINGS = {
    "sigma": ("oracle", "sigma", float),
    "master_seed": ("oracle", "master_seed", int),
    "T": ("grid", "T_grid", tuple[int, ...]),
    "T_log_range": ("grid", "T_grid", tuple[int, int, int]),
    "replicates": ("run", "replicates", int),
    "output_dir": ("run", "output_dir", str),
    "initial_interval": ("run", "initial_interval", tuple[float, float]),
}
_KEY_OF = {field: key for key, (_, field, _) in reversed(_SETTINGS.items())}
_CONFIG_FIELDS = {f.name: f.default is MISSING for f in fields(ExperimentConfig)}
_KNOWN_KEYS = {section: {key for key, (s, _, _) in _SETTINGS.items() if s == section}
               for section in ("function", "oracle", "algorithms", "grid", "run")}
_KNOWN_KEYS["function"] = {*spec_keys(), "x_star_distribution"}
_KNOWN_KEYS["algorithms"] = {"algorithm"}


def default_t_grid(lo: int = 100, hi: int = 10000, count: int = 7) -> tuple[int, ...]:
    """``count`` log-spaced integer budgets from lo to hi, floored, strictly
    increasing; ValueError when flooring leaves fewer than ``count``."""
    if lo < 1 or hi <= lo or not 2 <= count <= hi - lo + 1:  # before the loop
        raise ValueError("need 1 <= lo < hi and 2 <= count <= hi - lo + 1")
    ratio = (hi / lo) ** (1.0 / (count - 1))
    out = []
    for i in range(count):
        t = int(lo * ratio**i)
        if out and t <= out[-1]:  # stop at the first repeat: count may be huge
            raise ValueError(
                f"{count} floored log-spaced budgets from {lo} to {hi} are not distinct")
        out.append(t)
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


def _value(key: str, hint, text: str):
    """A field's value, read from its text by the field's type: a tuple's
    items are space-separated and a fixed-length tuple needs all of them."""
    if hint is str:
        return text
    if hint is int:
        try:
            return int(text)
        except ValueError:
            raise FieldError(key, f"{key}: expected an integer, got {text!r}") from None
    if hint == float | str:
        try:
            float(text)
        except ValueError:
            return text  # a word, which the spec class checks
    elif hint is not float:  # a tuple
        parts, types = text.split(), hint.__args__
        if types[-1] is not Ellipsis and len(parts) != len(types):
            raise FieldError(key, f"{key} must be {len(types)} numbers, got {text!r}")
        return tuple(_value(key, types[0], p) for p in parts)
    return _number(key, text)


def spec_from_fields(vals: Mapping[str, str], prefix: str = "",
                     kind_key: str = "kind", kinds=None):
    """Build a function spec, or with ``kind_key="algorithm"`` one of
    ``kinds`` (by default the algorithms), from key -> text by the grammar in
    the module docstring.  Raises FieldError naming the key that is missing,
    malformed, not finite or not a key of its kind; a constraint of the spec
    class itself (``k > 1``) names the kind key."""
    kinds = BASE_KINDS if prefix else kinds or _TABLES[kind_key]
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
        else:
            out[prefix + name] = _text(value)
    return out | nested


def _text(value) -> str:
    """The text ``_value`` reads back as ``value``."""
    if isinstance(value, tuple):
        return " ".join(map(repr, value))
    return value if isinstance(value, str) else repr(value)


def parse_algorithm(text: str, kinds=ALGORITHM_KINDS):
    """The spec of one line body, ``<name> key=value ...``, naming one of
    ``kinds``, by the grammar in the module docstring; FieldError when it is
    malformed."""
    name, *pairs = text.split() or [""]
    vals = {"algorithm": name}
    for pair in pairs:
        key, eq, value = pair.partition("=")
        if not eq:
            raise FieldError(key, f"algorithm parameter {pair!r} is not key=value")
        if key in vals:
            raise FieldError(key, f"repeated algorithm parameter {key!r}")
        vals[key] = value
    return spec_from_fields(vals, kind_key="algorithm", kinds=kinds)


def _on_line(ln: int, read, *args):
    """``read(*args)``, a ValueError it raises turned into line ln's ConfigError."""
    try:
        return read(*args)
    except ValueError as e:
        raise ConfigError(ln, str(e)) from None


def parse_config(text: str) -> RunSettings:
    vals, lines, algorithm_lines = _parse_lines(text)
    algorithms = [_on_line(ln, parse_algorithm, value) for ln, value in algorithm_lines]

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
        lo, hi = (_on_line(ln, _number, "x_star_distribution", p) for p in parts[1:])
        function = _on_line(ln, FunctionFamily, spec, _on_line(ln, UniformDist, lo, hi))

    settings, field_lines = {}, {}
    for key, (section, field, hint) in _SETTINGS.items():
        if key not in vals[section]:
            continue
        ln = lines[section][key]
        if field in field_lines:
            raise ConfigError(ln, f"give either {_KEY_OF[field]} or {key}, not both")
        field_lines[field] = ln
        value = _on_line(ln, _value, key, hint, vals[section][key])
        settings[field] = (_on_line(ln, default_t_grid, *value) if key == "T_log_range"
                           else value)
    for section, field, _ in _SETTINGS.values():
        if _CONFIG_FIELDS.get(field) and field not in settings:
            either = " or ".join(k for k, v in _SETTINGS.items() if v[1] == field)
            raise ConfigError(0, f"missing key {either} in [{section}]")
    run = {f: settings.pop(f) for f in [*settings] if f not in _CONFIG_FIELDS}
    try:
        config = ExperimentConfig(function, tuple(algorithms), **settings)
    except FieldError as e:
        repeat = repeated_algorithm(algorithms)
        field_lines["algorithms"] = 0 if repeat is None else algorithm_lines[repeat][0]
        raise ConfigError(field_lines.get(e.field, 0), str(e)) from None
    return RunSettings(config, **run)


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
    values = vars(RunSettings(config, output_dir)) | vars(config)
    for section in ("oracle", "algorithms", "grid", "run"):
        lines += ["", f"[{section}]"]
        lines += [f"{key} = {_text(values[field])}" for key, (s, field, _)
                  in _SETTINGS.items() if s == section and _KEY_OF[field] == key]
        if section == "algorithms":
            lines += [_algorithm_line(a) for a in config.algorithms]
    return "\n".join(lines + [""])
