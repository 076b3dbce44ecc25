"""Command-line front end: run configs, moduli, panel reproduction, tilts.

Subcommands:

    run <config-or-manifest>      Monte-Carlo risk run from a config file
    modulus <function flags>      modulus curve CSV on stdout
    reproduce-fig2 [...]          six risk panels (symmetric and asymmetric)
    superefficiency <flags>       tilted-alternative risk report CSV

Typical invocations, each after ``convexbench``:

    reproduce-fig2
    modulus --fn sym-power --k 3 --eps 1e-6:1e-1:20
        one per catalog function (--fn asym-power --kl 1.5 --kr 2, --fn
        absolute, ...); the aggregate row's alpha_hat is the fitted exponent
    superefficiency --fn sym-power --k 2 --delta 0.05 --estimator "constant x_hat=0"
    superefficiency --fn sym-power --k 2 --delta 0.05 --estimator "binary-search r=1.5"

Exit codes: 0 success, 1 runtime/data error (partial artifacts, flagged in
the manifest), 2 usage or config error.

The ``CONVEXBENCH_OUT`` environment variable sets the base directory under
which relative output directories are created.
"""
from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .configfile import (
    BASE_KINDS,
    ConfigError,
    DEFAULT_T_GRID,
    ESTIMATOR_KINDS,
    SPEC_KINDS,
    RunSettings,
    parse_algorithm,
    parse_config,
    serialize_config,
    spec_from_fields,
    spec_keys,
)
from .errors import DataError, FieldError
from .experiments import (
    LOWER_BOUND_CONSTANT,
    BinarySearchSpec,
    ExperimentConfig,
    FunctionFamily,
    RiskTable,
    SgdSpec,
    SuperefficiencyReport,
    UniformDist,
    estimate_risk,
    estimate_risks,
    function_id,
    superefficiency_experiment,
)
from .functions import (
    AsymmetricPower,
    FunctionSpec,
    SymmetricPower,
    Tilt,
    build_function,
)
from .modulus import fit_loglog, sample_modulus_curve
from .oracle import usable_cores

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

OUT_ENV_VAR = "CONVEXBENCH_OUT"

# Round-count coefficient used by the panel-reproduction preset.  The
# bisection resolution is 2^-floor(r ln T); tracking the benchmark rate
# T^(-alpha/2) for growth exponents up to alpha = 2 (the steepest catalog
# panels) needs r >= 1/ln 2 ~ 1.44.  Calibrated against the panel slope
# targets; see the acceptance suite.
FIG2_ROUND_COEFFICIENT = 1.5

FIG2_PANELS: tuple[tuple[str, FunctionSpec], ...] = (
    ("sym-k1.5", SymmetricPower(k=1.5)),
    ("sym-k2", SymmetricPower(k=2.0)),
    ("sym-k3", SymmetricPower(k=3.0)),
    ("asym-1.5-2", AsymmetricPower(k_l=1.5, k_r=2.0)),
    ("asym-1.5-3", AsymmetricPower(k_l=1.5, k_r=3.0)),
    ("asym-2-3", AsymmetricPower(k_l=2.0, k_r=3.0)),
)


def _fmt(v) -> str:
    return "" if v is None else repr(float(v))


def risk_csv_text(table: RiskTable) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["function", "algorithm", "T", "mean_err", "stderr", "n"])
    for r in table.rows:
        w.writerow([r.function, r.algorithm, r.T, _fmt(r.mean_err),
                    _fmt(r.stderr), r.n])
    return buf.getvalue()


def slopes_csv_text(table: RiskTable) -> tuple[str, list[str]]:
    """Slope-fit CSV plus the list of curves that could not be fitted: each
    (function, algorithm) curve, in first-seen order, is ``fit_loglog`` of its
    positive mean errors against T, which needs three of them."""
    curves: dict[tuple[str, str], tuple[list, list]] = {}
    for r in table.rows:
        ts, errs = curves.setdefault((r.function, r.algorithm), ([], []))
        if r.mean_err is not None and r.mean_err > 0:
            ts.append(r.T)
            errs.append(r.mean_err)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["function", "algorithm", "slope", "intercept", "stderr_slope",
                "T_min", "T_max"])
    unfit = []
    for (fn, alg), (ts, errs) in curves.items():
        try:
            fit = fit_loglog(ts, errs)
        except DataError:
            unfit.append(f"{fn}/{alg}")
            continue
        w.writerow([fn, alg, *map(repr, fit), min(ts), max(ts)])
    return buf.getvalue(), unfit


_PLOT_TEMPLATE = """#!/usr/bin/env python3
\"\"\"Render the log-log risk plot for this run directory (writes risk.png).\"\"\"
import csv
from collections import defaultdict
from pathlib import Path

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

here = Path(__file__).resolve().parent
curves = defaultdict(list)
with open(here / "risk.csv", newline="") as fh:
    for row in csv.DictReader(fh):
        if row["mean_err"]:
            curves[row["algorithm"]].append((int(row["T"]), float(row["mean_err"])))

fig, ax = plt.subplots(figsize=(5.5, 4.2))
for alg, pts in sorted(curves.items()):
    pts.sort()
    ax.plot([p[0] for p in pts], [p[1] for p in pts], marker="o",
            markersize=3, label=alg)

guide_rate = __GUIDE_RATE__
if guide_rate is not None and curves:
    ts = sorted(set(t for pts in curves.values() for t, _ in pts))
    anchor = max((e for pts in curves.values() for _, e in pts
                  if e > 0), default=None)
    if anchor is not None and len(ts) >= 2:
        ref = [anchor * (t / ts[0]) ** guide_rate for t in ts]
        ax.plot(ts, ref, "--", color="gray",
                label=f"reference slope {guide_rate:g}")

ax.set_xscale("log")
ax.set_yscale("log")
ax.set_xlabel("oracle queries T")
ax.set_ylabel("mean error")
ax.set_title(__TITLE__)
ax.legend(fontsize=7)
fig.tight_layout()
fig.savefig(here / "risk.png", dpi=150)
print("wrote", here / "risk.png")
"""


def plot_script_text(title: str, guide_rate: float | None) -> str:
    rate = "None" if guide_rate is None else repr(float(guide_rate))
    return (_PLOT_TEMPLATE
            .replace("__GUIDE_RATE__", rate)
            .replace("__TITLE__", repr(title)))


def _guide_rate(function) -> float | None:
    """Benchmark log-log rate -1/(2(k-1)) for power-growth functions.

    A tilt with eps != 0 of a power moves the minimizer to some u* != x*,
    where f'' = (k-1)|u*|^(k-2) > 0, so its rate is -1/2; a minimizer that
    the tilt pushes onto a domain end is not covered.
    """
    spec = function.template if isinstance(function, FunctionFamily) else function
    core = spec.base if isinstance(spec, Tilt) else spec  # Tilt collapses nested tilts
    if isinstance(core, SymmetricPower):
        k = core.k
    elif isinstance(core, AsymmetricPower):
        k = max(core.k_l, core.k_r)
    else:
        return None
    if isinstance(spec, Tilt) and spec.eps != 0:
        return -0.5
    return -1.0 / (2.0 * (k - 1.0))


def _manifest(config_text: str, artifacts: list[str], missing_cells: list[dict],
              unfit_curves: list[str]) -> dict:
    return {
        "kind": "convexbench-run",
        "config_text": config_text,
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "versions": {
            "convexbench": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
        "artifacts": artifacts,
        "status": "partial" if (missing_cells or unfit_curves) else "complete",
        "missing_cells": missing_cells,
        "unfit_curves": unfit_curves,
    }


def _resolve_out(flag_value: str | None, config_dir: str) -> Path:
    if flag_value:
        return Path(flag_value)
    base = os.environ.get(OUT_ENV_VAR, ".")
    return Path(base) / config_dir


def _make_dirs(*dirs: Path) -> bool:
    """Create the output directories; False, after an error line, if one cannot be."""
    for d in dirs:
        try:
            d.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            print(f"error: cannot create {d}: {e}", file=sys.stderr)
            return False
    return True


def _write_run(settings: RunSettings, table: RiskTable, out_dir: Path) -> int:
    """Write a run's risk table, slopes, plot script and manifest; the exit code."""
    config = settings.config
    (out_dir / "risk.csv").write_text(risk_csv_text(table))
    slopes_text, unfit = slopes_csv_text(table)
    (out_dir / "slopes.csv").write_text(slopes_text)
    (out_dir / "plot.py").write_text(
        plot_script_text(function_id(config.function), _guide_rate(config.function))
    )
    missing = [
        {"function": r.function, "algorithm": r.algorithm, "T": r.T}
        for r in table.rows
        if r.mean_err is None
    ]
    config_text = serialize_config(config, settings.output_dir)
    manifest = _manifest(config_text, ["risk.csv", "slopes.csv", "plot.py"], missing, unfit)
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    if missing or unfit:
        print(f"run partial: {len(missing)} missing cells, "
              f"{len(unfit)} unfit curves (see manifest.json)", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_run(args) -> int:
    path = Path(args.config)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        return EXIT_USAGE
    if path.suffix == ".json":  # rerun from a manifest
        try:
            text = json.loads(text)["config_text"]
            if not isinstance(text, str):
                raise TypeError("config_text is not a string")
        except (json.JSONDecodeError, KeyError, TypeError) as e:
            print(f"error: {path} is not a run manifest: {e}", file=sys.stderr)
            return EXIT_USAGE
    try:
        settings = parse_config(text)
    except ConfigError as e:
        print(f"error: {path}: {e}", file=sys.stderr)
        return EXIT_USAGE
    out_dir = _resolve_out(args.out, settings.output_dir)
    if not _make_dirs(out_dir):
        return EXIT_USAGE
    return _write_run(settings, estimate_risk(settings.config, jobs=args.jobs), out_dir)


# ---------------------------------------------------------------------------
# function-spec flags shared by `modulus` and `superefficiency`
# ---------------------------------------------------------------------------


# Each function-spec key of the config grammar has one flag, named after the
# key but for _FLAG_NAMES.  A tilt's base takes the flags of its own kind, so
# with --fn tilt those flags stand for the base_ keys.
_FLAG_NAMES = {"kind": "--fn", "base_kind": "--base", "k_l": "--kl", "k_r": "--kr",
               "eps": "--tilt-eps"}
_FLAGS = {key: _FLAG_NAMES.get(key, "--" + key.replace("_", "-"))
          for key in spec_keys() if key == "base_kind" or not key.startswith("base_")}
_TILT_KEYS = spec_keys(["tilt"])


def _add_function_flags(p: argparse.ArgumentParser):
    p.add_argument("--fn", required=True, help="function kind: " + ", ".join(SPEC_KINDS))
    p.add_argument("--base", help="base kind for --fn tilt, which takes the base's "
                   "own flags: " + ", ".join(BASE_KINDS))
    for key, flag in _FLAGS.items():
        if key not in ("kind", "base_kind"):
            kinds = [kind for kind in SPEC_KINDS if key in spec_keys([kind])]
            p.add_argument(flag, help=f"{key} of " + ", ".join(kinds))
    p.add_argument("--domain", type=str, default="-1:1",
                   help="domain as lo:hi (default -1:1)")


def _function_spec(parser, args) -> FunctionSpec:
    """The spec the function flags name, built by the config-file grammar."""
    vals = {}
    for key, flag in _FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            tilt_base = args.fn == "tilt" and key not in _TILT_KEYS
            vals["base_" + key if tilt_base else key] = value
    try:
        return spec_from_fields(vals)
    except FieldError as e:
        flag = _FLAGS.get(e.field) or _FLAGS[e.field.removeprefix("base_")]
        parser.error(f"argument {flag}: {e}")


def _parse_domain(parser, text: str) -> tuple[float, float]:
    parts = text.split(":")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except (IndexError, ValueError):
        parser.error(f"--domain must be lo:hi, got {text!r}")
    if len(parts) != 2 or not lo < hi or not np.isfinite([lo, hi]).all():
        parser.error(f"--domain must be lo:hi with finite lo < hi, got {text!r}")
    return lo, hi


def _parse_eps_range(parser, text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        parser.error(f"--eps must be lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        parser.error(f"--eps must be lo:hi:count, got {text!r}")
    if not (0 < lo < hi and np.isfinite(hi) and count >= 1):
        parser.error(f"--eps needs finite 0 < lo < hi and count >= 1, got {text!r}")
    try:
        return list(np.geomspace(lo, hi, count))
    except (MemoryError, ValueError) as e:  # numpy's size check, before any allocation
        parser.error(f"--eps count {count} is more than numpy can allocate: {e}")


def cmd_modulus(parser, args) -> int:
    spec = _function_spec(parser, args)
    domain = _parse_domain(parser, args.domain)
    eps_grid = _parse_eps_range(parser, args.eps)
    f = build_function(spec, domain)
    curve = sample_modulus_curve(f, eps_grid)
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(["epsilon", "omega", "method", "alpha_hat"])
    for e, wa, wn in zip(curve.epsilon.tolist(), curve.analytic.tolist(),
                         curve.numeric.tolist()):
        w.writerow([repr(e), repr(wa), "analytic", ""])
        w.writerow([repr(e), repr(wn), "numeric", ""])
    w.writerow(["", "", "aggregate",
                "" if curve.fitted_alpha is None else repr(curve.fitted_alpha)])
    return EXIT_OK


def cmd_reproduce_fig2(parser, args) -> int:
    algorithms = (
        BinarySearchSpec(r=FIG2_ROUND_COEFFICIENT),
        SgdSpec(schedule="1/t"),
        SgdSpec(schedule="1/sqrt(t)"),
    )
    try:  # every panel's config before any panel runs
        panels = [RunSettings(ExperimentConfig(
            function=FunctionFamily(spec, UniformDist(-1.0, 1.0)),
            algorithms=algorithms,
            T_grid=DEFAULT_T_GRID,
            replicates=args.replicates,
            sigma=0.1,
            master_seed=args.seed,
            initial_interval=(-2.0, 2.0),
        ), name) for name, spec in FIG2_PANELS]
    except FieldError as e:
        flag = {"master_seed": "--seed", "replicates": "--replicates"}[e.field]
        parser.error(f"argument {flag}: {e}")
    out_base = _resolve_out(args.out, "fig2")
    out_dirs = [out_base / settings.output_dir for settings in panels]
    if not _make_dirs(*out_dirs):  # every panel's directory before any panel runs
        return EXIT_USAGE
    # the panels differ only in function: each unit runs once, over all six
    tables = estimate_risks([settings.config for settings in panels], jobs=args.jobs)
    status = EXIT_OK
    for settings, table, out_dir in zip(panels, tables, out_dirs):
        status = max(status, _write_run(settings, table, out_dir))
        print(f"panel {settings.output_dir}: artifacts in {out_dir}", file=sys.stderr)
    return status


def superefficiency_csv_text(report: SuperefficiencyReport) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["target", "epsilon_T", "risk_f", "risk_g_plus", "risk_g_minus",
                "d_fg", "omega_ref"])
    plus, minus = report.alternatives
    w.writerow([report.function, *map(repr, (
        report.epsilon_T, report.risk_f, plus.risk, minus.risk,
        max(plus.d, minus.d), max(plus.omega_ref, minus.omega_ref)))])
    return buf.getvalue()


def cmd_superefficiency(parser, args) -> int:
    spec = _function_spec(parser, args)
    domain = _parse_domain(parser, args.domain)
    try:
        estimator = parse_algorithm(args.estimator, ESTIMATOR_KINDS)
        report = superefficiency_experiment(
            spec,
            estimator,
            delta=args.delta,
            T=args.T,
            sigma=args.sigma,
            replicates=args.replicates,
            master_seed=args.seed,
            initial_interval=domain,
        )
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    # the directory once the experiment, which checks its inputs, has run
    if args.out and not _make_dirs(Path(args.out)):
        return EXIT_USAGE
    text = superefficiency_csv_text(report)
    sys.stdout.write(text)
    plus, minus = report.alternatives
    print(
        f"# estimator={report.estimator} delta={report.delta:g} T={report.T} "
        f"sigma={report.sigma:g}\n"
        f"# tilt size epsilon_T={report.epsilon_T!r}\n"
        f"# d(f,g+)={plus.d!r} d(f,g-)={minus.d!r}\n"
        f"# omega_g+(eps_T)={plus.omega_ref!r} omega_g-(eps_T)={minus.omega_ref!r}\n"
        f"# tilted-risk lower-bound constant (4-sqrt(2))/4="
        f"{LOWER_BOUND_CONSTANT!r} (reference only, not asserted)",
        file=sys.stderr,
    )
    if args.out:
        (Path(args.out) / "superefficiency.csv").write_text(text)
    return EXIT_OK


@functools.cache  # one parser per process: it holds no per-call state
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convexbench",
        description="Noisy first-order optimization lab for 1-D convex functions",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config file (or rerun a manifest)")
    p_run.add_argument("config", help="path to config file or manifest.json")
    p_run.add_argument("--out", help="output directory (overrides config)")

    p_mod = sub.add_parser("modulus", help="emit a modulus curve CSV on stdout")
    _add_function_flags(p_mod)
    p_mod.add_argument("--eps", required=True,
                       help="epsilon grid as lo:hi:count (log-spaced)")

    p_fig = sub.add_parser("reproduce-fig2",
                           help="run the six risk panels at sigma=0.1; each "
                                "(algorithm, budget) unit runs once over all "
                                "six, whose replicates share their noise")
    p_fig.add_argument("--replicates", type=int, default=1000)
    p_fig.add_argument("--out", help="output base directory")
    p_fig.add_argument("--seed", type=int, default=20250810)
    for p in (p_run, p_fig):
        p.add_argument("--jobs", type=int,
                       help="worker processes (default: the cores this process "
                            "may use when the command runs); a long block read "
                            "also draws on every usable core of its process")

    p_sup = sub.add_parser("superefficiency",
                           help="risk of an estimator at a target and its tilts")
    _add_function_flags(p_sup)
    p_sup.add_argument("--delta", type=float, required=True)
    p_sup.add_argument("--T", type=int, default=10000)
    p_sup.add_argument("--sigma", type=float, default=0.1)
    p_sup.add_argument("--replicates", type=int, default=200)
    p_sup.add_argument("--estimator", default="constant",
                       help="'constant' (at the midpoint of the target minimizer set "
                            "on --domain), 'constant x_hat=0.3' (in --domain), or the "
                            "body of a config algorithm line, e.g. 'binary-search r=1.5' "
                            "or 'sgd schedule=1/sqrt(t) scale=0.5'; config lines do not "
                            "take constant")
    p_sup.add_argument("--seed", type=int, default=20250810)
    p_sup.add_argument("--out", help="also write superefficiency.csv here")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) is None:
        args.jobs = usable_cores()
    if getattr(args, "jobs", 1) < 1:
        parser.error(f"argument --jobs: must be >= 1, got {args.jobs}")
    if args.command == "run":
        return cmd_run(args)
    if args.command == "modulus":
        return cmd_modulus(parser, args)
    if args.command == "reproduce-fig2":
        return cmd_reproduce_fig2(parser, args)
    if args.command == "superefficiency":
        return cmd_superefficiency(parser, args)
    parser.error(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
