"""The four workloads: what each runs through ``convexbench.cli.main``, how
much work one repetition is, and how its outputs are checked.

fig2            the north-star command, one process
fig2-allcores   the same inputs on every core: the only user of the pool
bisect-deep     binary search alone at budgets 1e4..1e5, through config files
modulus-tilts   modulus curves and tilted-alternative moduli, no Monte Carlo

Why each exists, and which layer change should and should not show on it, is
written up in README.md next to this file.
"""
from __future__ import annotations

import json
import os
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"

REPLICATES = 1000
SIGMA = 0.1
ROUND_COEFFICIENT = 1.5  # the fig2 preset's binary-search r

# The fig2 preset as the CLI defines it: six panels x three algorithms x seven
# budgets.  Kept here so that the benchmark counts queries on its own.
FIG2_PANELS = ("sym-k1.5", "sym-k2", "sym-k3", "asym-1.5-2", "asym-1.5-3", "asym-2-3")
FIG2_T_GRID = (100, 215, 464, 1000, 2154, 4641, 10000)
FIG2_SGD_ALGORITHMS = 2

BISECT_FAMILIES = {"asym-1.5-2": (1.5, 2.0), "asym-1.5-3": (1.5, 3.0),
                   "asym-2-3": (2.0, 3.0)}
BISECT_T_LOG_RANGE = (10_000, 100_000, 3)

MODULUS_EPS = "1e-6:3:200"
MODULUS_CURVES = {
    "sym-1.5": ["--fn", "sym-power", "--k", "1.5"],
    "sym-2": ["--fn", "sym-power", "--k", "2"],
    "sym-3": ["--fn", "sym-power", "--k", "3"],
    "asym-1.5-2": ["--fn", "asym-power", "--kl", "1.5", "--kr", "2"],
    "asym-1.5-3": ["--fn", "asym-power", "--kl", "1.5", "--kr", "3"],
    "asym-2-3": ["--fn", "asym-power", "--kl", "2", "--kr", "3"],
    "absolute": ["--fn", "absolute"],
    "piecewise-linear": ["--fn", "piecewise-linear", "--breakpoints", "-0.5 0 0.5",
                         "--slopes", "-2 -0.5 1 3"],
    "tilt-sym-2": ["--fn", "tilt", "--base", "sym-power", "--k", "2",
                   "--tilt-eps", "0.1"],
    "tilt-asym-1.5-3": ["--fn", "tilt", "--base", "asym-power", "--kl", "1.5",
                        "--kr", "3", "--tilt-eps", "-0.05"],
    "tilt-absolute": ["--fn", "tilt", "--base", "absolute", "--tilt-eps", "0.3"],
}
SUPEREFFICIENCY_TARGETS = ("sym-1.5", "sym-2", "sym-3", "asym-1.5-2", "asym-1.5-3",
                           "asym-2-3", "absolute", "piecewise-linear")
SUPEREFFICIENCY_DELTAS = ("0.01", "0.05", "0.1", "0.15", "0.2")


def all_cores() -> int:
    return len(os.sched_getaffinity(0))


def load_refs(name: str) -> dict:
    path = REFS / f"{name}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def bs_charged(T: int) -> int:
    """Queries binary search charges one replicate at budget T: E * T0 <= T."""
    from convexbench.algorithms import epochs_schedule

    E, T0 = epochs_schedule(T, ROUND_COEFFICIENT)
    return E * T0


def risk_queries(algorithms, t_grid) -> int:
    """Oracle queries charged over all replicates of a risk table.

    SGD charges T per replicate, binary search E * T0.
    """
    return sum(REPLICATES * (T if alg == "sgd" else bs_charged(T))
               for alg in algorithms for T in t_grid)


class Workload:
    """One set of inputs.  A repetition is a list of ``cli.main`` calls."""

    name: str
    jobs = 1
    throughput = "queries_per_s"  # or modulus_evals_per_s
    nominal_rep_s: float  # one repetition on a 2-core Xeon at 2.0 GHz
    work_per_rep: int  # oracle queries or modulus evaluations
    bs_cells: tuple = ()  # (T,) of each binary-search cell, for E*T0/T

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    def prepare(self):
        """Write the inputs the CLI reads (config files); default: none."""

    def bs_queries_used_frac(self) -> float:
        """E * T0 / T over the binary-search cells; the rest of T goes unused."""
        if not self.bs_cells:
            return 0.0
        return sum(map(bs_charged, self.bs_cells)) / sum(self.bs_cells)

    def invocations(self, out_dir: Path) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def check(self, out_dir: Path, stdout: dict[str, str]):
        raise NotImplementedError

    def check_risk_tables(self, out_dir: Path, names, t_grid, n_algorithms: int):
        """``<out_dir>/<name>/risk.csv`` against the seed's reference, or for
        plausibility when this seed has none."""
        ops, failures = 0, []
        for name in names:
            path = out_dir / name / "risk.csv"
            text = path.read_text() if path.is_file() else None
            if self.refs is not None:
                n, bad = checks.risk_against_reference(name, text, self.refs[name])
            else:
                n, bad = checks.risk_plausible(name, text, t_grid, n_algorithms,
                                               REPLICATES)
            ops += n
            failures += bad
        return ops, failures


class Fig2(Workload):
    name = "fig2"
    nominal_rep_s = 26.0
    bs_cells = FIG2_T_GRID * len(FIG2_PANELS)

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.work_per_rep = len(FIG2_PANELS) * risk_queries(
            ["binary-search"] + ["sgd"] * FIG2_SGD_ALGORITHMS, FIG2_T_GRID)
        self.refs = load_refs("fig2").get(str(seed))

    def invocations(self, out_dir):
        return [("reproduce-fig2", [
            "reproduce-fig2", "--replicates", str(REPLICATES), "--jobs", str(self.jobs),
            "--seed", str(self.seed), "--out", str(out_dir)])]

    def check(self, out_dir, stdout):
        return self.check_risk_tables(out_dir, FIG2_PANELS, FIG2_T_GRID,
                                      1 + FIG2_SGD_ALGORITHMS)


class Fig2AllCores(Fig2):
    name = "fig2-allcores"
    nominal_rep_s = 19.0

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.jobs = all_cores()


class BisectDeep(Workload):
    name = "bisect-deep"
    nominal_rep_s = 10.5

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        from convexbench.configfile import default_t_grid

        self.t_grid = default_t_grid(*BISECT_T_LOG_RANGE)
        self.bs_cells = self.t_grid * len(BISECT_FAMILIES)
        self.work_per_rep = len(BISECT_FAMILIES) * risk_queries(["binary-search"],
                                                                self.t_grid)
        self.refs = load_refs("bisect-deep").get(str(seed))

    def config_path(self, family: str) -> Path:
        return self.work_dir / f"bisect-{family}.cfg"

    def config_text(self, family: str) -> str:
        k_l, k_r = BISECT_FAMILIES[family]
        lo, hi, count = BISECT_T_LOG_RANGE
        return "\n".join([
            "# generated by perfbench: binary search alone, deep budgets",
            "[function]", "kind = asym-power", f"k_l = {k_l}", f"k_r = {k_r}",
            "x_star_distribution = uniform -1 1", "",
            "[oracle]", f"sigma = {SIGMA}", f"master_seed = {self.seed}", "",
            "[algorithms]", f"algorithm = binary-search r={ROUND_COEFFICIENT}", "",
            "[grid]", f"T_log_range = {lo} {hi} {count}", "",
            "[run]", f"replicates = {REPLICATES}", f"output_dir = {family}",
            "initial_interval = -2 2", ""])

    def prepare(self):
        self.work_dir.mkdir(parents=True, exist_ok=True)
        for family in BISECT_FAMILIES:
            self.config_path(family).write_text(self.config_text(family))

    def invocations(self, out_dir):
        return [(family, ["run", str(self.config_path(family)), "--out",
                          str(out_dir / family), "--jobs", "1"])
                for family in BISECT_FAMILIES]

    def check(self, out_dir, stdout):
        return self.check_risk_tables(out_dir, BISECT_FAMILIES, self.t_grid, 1)


class ModulusTilts(Workload):
    """Deterministic: the seed does not enter, so one reference serves all seeds."""

    name = "modulus-tilts"
    throughput = "modulus_evals_per_s"
    nominal_rep_s = 3.5

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        count = int(MODULUS_EPS.split(":")[2])
        # one flat set per epsilon of a curve; two (g+ and g-) per report
        self.work_per_rep = (len(MODULUS_CURVES) * count
                             + 2 * len(SUPEREFFICIENCY_TARGETS) * len(SUPEREFFICIENCY_DELTAS))
        self.refs = load_refs("modulus-tilts")

    def invocations(self, out_dir):
        calls = [(f"modulus {name}", ["modulus", *flags, "--eps", MODULUS_EPS])
                 for name, flags in MODULUS_CURVES.items()]
        calls += [(f"superefficiency {name} delta={delta}",
                   ["superefficiency", *MODULUS_CURVES[name], "--estimator", "constant",
                    "--delta", delta])
                  for name in SUPEREFFICIENCY_TARGETS for delta in SUPEREFFICIENCY_DELTAS]
        return calls

    def check(self, out_dir, stdout):
        ops, failures = 0, []
        for label, _ in self.invocations(out_dir):
            ref = self.refs[label]
            if label.startswith("modulus"):
                n, bad = checks.modulus_against_reference(label, stdout.get(label, ""), ref)
            else:
                n, bad = checks.superefficiency_against_reference(
                    label, stdout.get(label, ""), ref)
            ops += n
            failures += bad
        return ops, failures


WORKLOADS = {w.name: w for w in (Fig2, Fig2AllCores, BisectDeep, ModulusTilts)}
