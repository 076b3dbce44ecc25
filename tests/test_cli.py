"""Command line, in process: exit codes, manifest reruns, superefficiency CSV,
and the function-spec flags of `modulus` and `superefficiency`."""
import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from convexbench import (
    Absolute,
    AsymmetricPower,
    BinarySearchSpec,
    PiecewiseLinear,
    SgdSpec,
    SymmetricPower,
    Tilt,
    build_function,
    cli,
    oracle,
    sample_modulus_curve,
    superefficiency_experiment,
)
from convexbench.configfile import ESTIMATOR_KINDS, parse_algorithm
from convexbench.functions import minimizer_interval

SRC = str(Path(cli.__file__).resolve().parents[1])

CONFIG = """\
[function]
kind = sym-power
k = 2
x_star_distribution = uniform -1 1

[oracle]
sigma = 0.1
master_seed = 11

[algorithms]
algorithm = binary-search r=1.5
algorithm = sgd schedule=1/t

[grid]
T = 100 215 464

[run]
replicates = 6
"""


def run(tmp_path, text, name, *flags):
    path = tmp_path / f"{name}.cfg"
    path.write_text(text)
    return cli.main(["run", str(path), "--out", str(tmp_path / name), *flags])


def outputs(out_dir):
    return {name: (out_dir / name).read_bytes()
            for name in ("risk.csv", "slopes.csv", "manifest.json")}


class TestExitCodes:
    def test_complete_run(self, tmp_path):
        assert run(tmp_path, CONFIG, "ok", "--jobs", "1") == cli.EXIT_OK
        manifest = json.loads((tmp_path / "ok" / "manifest.json").read_text())
        assert manifest["status"] == "complete"

    def test_missing_cell(self, tmp_path):
        # floor(0.5 ln 2) = 0 rounds: the binary-search cell at T = 2 is missing
        text = CONFIG.replace("r=1.5", "r=0.5").replace("T = 100 215 464",
                                                        "T = 2 100 215 464")
        assert run(tmp_path, text, "partial", "--jobs", "1") == cli.EXIT_RUNTIME
        manifest = json.loads((tmp_path / "partial" / "manifest.json").read_text())
        assert manifest["status"] == "partial"
        assert [(c["algorithm"], c["T"]) for c in manifest["missing_cells"]] == [
            ("binary-search(r=0.5)", 2)]

    def test_bad_config(self, tmp_path, capsys):
        text = CONFIG.replace("r=1.5", "r=-1")
        assert run(tmp_path, text, "bad") == cli.EXIT_USAGE
        ln = text.splitlines().index("algorithm = binary-search r=-1") + 1
        assert f"line {ln}: r must be positive" in capsys.readouterr().err

    def test_binary_search_rounds_too_long_to_read(self, tmp_path, capsys):
        # T0 = 24,390,243,902 readings would need 182 GiB for one round's row
        text = CONFIG.replace("T = 100 215 464", "T = 100 1000000000000")
        assert run(tmp_path, text, "huge") == cli.EXIT_USAGE
        ln = text.splitlines().index("T = 100 1000000000000") + 1
        assert (f"line {ln}: T=1000000000000 with r=1.5 gives rounds of T0=24390243902 "
                "queries") in capsys.readouterr().err
        assert not (tmp_path / "huge").exists()

    def test_unreadable_path(self, tmp_path):
        missing = tmp_path / "nowhere.cfg"
        assert cli.main(["run", str(missing)]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("content", ['{"kind": "something else"}', "not json",
                                         '{"config_text": 5}', "[1, 2]", "null"])
    def test_non_manifest_json(self, tmp_path, content, capsys):
        path = tmp_path / "other.json"
        path.write_text(content)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: {path} is not a run manifest")

    def test_non_utf8_config(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(CONFIG.replace("sigma", "# \xe9\nsigma").encode("latin-1"))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}")

    @pytest.mark.parametrize("estimator", ["constant", "binary-search r=1.5",
                                           "sgd schedule=1/t"],
                             ids=["constant", "binary-search", "sgd"])
    @pytest.mark.parametrize("replicates", ["0", "-3"])
    def test_superefficiency_needs_a_replicate(self, estimator, replicates, capsys):
        rc = cli.main(["superefficiency", "--fn", "sym-power", "--k", "2", "--delta", "0.1",
                       "--T", "100", "--estimator", estimator, "--replicates", replicates])
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: replicates must be >= 1")

    def test_superefficiency_bad_estimator_parameter(self, capsys):
        rc = cli.main(["superefficiency", "--fn", "sym-power", "--k", "2",
                       "--delta", "0.1", "--estimator", "binary-search r=0"])
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: r must be positive")


@pytest.mark.parametrize("flags,message", [
    (["--estimator", "constant x_hat=nan"], "x_hat: value must be finite"),
    (["--estimator", "constant x_hat=inf"], "x_hat: value must be finite"),
    (["--sigma", "nan"], "sigma must be finite"),
    (["--sigma", "inf"], "sigma must be finite"),
], ids=["--x-hat-nan", "--x-hat-inf", "--sigma-nan", "--sigma-inf"])
def test_superefficiency_non_finite_number_is_a_usage_error(flags, message, capsys):
    rc = cli.main(["superefficiency", "--fn", "sym-power", "--k", "2",
                   "--delta", "0.1", *flags])
    assert rc == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {message}")


def imported_after_cli(package: str) -> str:
    """Modules of ``package`` that a fresh ``import convexbench.cli`` loads."""
    code = ("import sys, convexbench.cli; print(sorted(m for m in sys.modules "
            f"if m == {package!r} or m.startswith({package + '.'!r})))")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_loads_no_scipy():
    assert imported_after_cli("scipy") == "[]\n"


def test_import_loads_no_numpy_random():
    # numpy.random loads on first use; commands without Monte Carlo never pay it
    assert imported_after_cli("numpy.random") == "[]\n"


SUPEREFFICIENCY = ["superefficiency", "--fn", "sym-power", "--k", "2", "--delta", "0.1",
                   "--replicates", "2", "--T", "100"]


def test_superefficiency_unusable_output_directory_fails_before_the_run(tmp_path,
                                                                       monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("the report was computed")

    monkeypatch.setattr(cli, "superefficiency_experiment", no_run)
    (tmp_path / "file").write_text("")
    blocked = tmp_path / "file" / "sub"
    assert cli.main([*SUPEREFFICIENCY, "--out", str(blocked)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot create {blocked}: ")
    assert captured.out == ""


@pytest.mark.parametrize("flags", [
    ["--delta", "0.5"], ["--T", "0"], ["--T", "1" + "0" * 400], ["--replicates", "0"],
    ["--sigma", "-1"], ["--modulus-scale", "0"],
    ["--estimator", "binary-search r=1.5", "--T", "1"],
    ["--estimator", "binary-search r=1.5", "--T", "1" + "0" * 300],
    ["--estimator", "binary-search r=1.5", "--seed", "-1"],
    ["--estimator", "binary-search r=1.5", "--seed", str(2**64)],
    ["--estimator", "constant x_hat=5"],
], ids=["delta", "T", "T-past-float-range", "replicates", "sigma", "modulus-scale",
        "schedule", "rounds-too-long", "negative-seed", "seed-2^64", "x-hat-outside"])
def test_superefficiency_bad_input_creates_no_directory(flags, tmp_path, capsys):
    out = tmp_path / "new" / "sub"
    assert cli.main([*SUPEREFFICIENCY, *flags, "--out", str(out)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("estimator,message", [
    ("binary-search", "binary-search requires r"),
    ("sgd", "sgd requires schedule"),
    ("sgd schedule=1/t iterate=averge", "iterate must be"),
    ("newton r=1.5",
     "algorithm must be one of binary-search, sgd, constant, got 'newton'"),
    ("sgd schedule=1/t x_hat=0.7", "x_hat does not apply to algorithm sgd"),
    ("constant x_hat=middle", "x_hat must be finite or 'midpoint', got 'middle'"),
])
def test_superefficiency_estimator_line_errors_as_a_config_line(estimator, message,
                                                                tmp_path, capsys):
    # each key is required or defaulted as on a config file's algorithm line
    out = tmp_path / "new"
    assert cli.main([*SUPEREFFICIENCY, "--estimator", estimator,
                     "--out", str(out)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("estimator,spec", [
    ("binary-search r=1.5", BinarySearchSpec(1.5)),
    ("binary-search delta=0.2 r=2", BinarySearchSpec(2.0, delta=0.2)),
    ("sgd schedule=1/sqrt(t) scale=0.5 iterate=average",
     SgdSpec("1/sqrt(t)", scale=0.5, iterate="average")),
    ("sgd schedule=1/t x0=0.25", SgdSpec("1/t", x0=0.25)),
])
def test_superefficiency_estimator_is_the_algorithm_line_spec(estimator, spec, capsys):
    assert cli.main([*SUPEREFFICIENCY, "--estimator", estimator]) == cli.EXIT_OK
    report = superefficiency_experiment(SymmetricPower(2.0), spec, delta=0.1, T=100,
                                        sigma=0.1, replicates=2, master_seed=20250810,
                                        initial_interval=(-1.0, 1.0))
    assert capsys.readouterr().out == cli.superefficiency_csv_text(report)


def test_superefficiency_has_no_x_hat_flag(capsys):
    # the constant estimate is a key of the estimator line
    with pytest.raises(SystemExit) as info:
        cli.main([*SUPEREFFICIENCY, "--x-hat", "0.3"])
    assert info.value.code == cli.EXIT_USAGE
    assert "unrecognized arguments: --x-hat 0.3" in capsys.readouterr().err


@pytest.mark.parametrize("flags,spec", [
    (["--fn", "sym-power", "--k", "2", "--x-star", "0.3"], SymmetricPower(2.0, 0.3)),
    (["--fn", "piecewise-linear", "--breakpoints", "-0.5 0.25", "--slopes", "-1 0 2"],
     PiecewiseLinear((-0.5, 0.25), (-1.0, 0.0, 2.0))),  # minimizer set [-0.5, 0.25]
], ids=["x-star-0.3", "flat-segment"])
def test_superefficiency_bare_constant_is_the_minimizer_midpoint(flags, spec, capsys):
    xl, xr = minimizer_interval(spec, (-1.0, 1.0))
    outputs = []
    for estimator in ("constant", f"constant x_hat={0.5 * (xl + xr)!r}"):
        assert cli.main(["superefficiency", *flags, "--delta", "0.1",
                         "--estimator", estimator]) == cli.EXIT_OK
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert f"# estimator=constant(x={0.5 * (xl + xr)!r})" in outputs[0].err


def test_superefficiency_estimator_help_examples_parse():
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices["superefficiency"]
    text = next(a.help for a in sub._actions if a.dest == "estimator")
    examples = re.findall(r"'([^']+)'", text)
    assert len(examples) == 4
    for example in examples:
        parse_algorithm(example, ESTIMATOR_KINDS)


def test_superefficiency_rounds_too_long_to_read_name_t_and_t0(capsys):
    T = "1" + "0" * 300  # inside the float range; T0 has 297 digits
    rc = cli.main([*SUPEREFFICIENCY, "--estimator", "binary-search r=1.5", "--T", T])
    assert rc == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: T={T} with r=1.5 gives rounds of T0=")


def test_tilted_family_plot_carries_its_base_rate(tmp_path):
    # a tilt adds a constant to f', so the growth exponent, and the guide
    # rate -1/(2(k-1)), are those of the base
    text = CONFIG.replace("kind = sym-power\nk = 2\n",
                          "kind = tilt\neps = 0.05\nbase_kind = sym-power\nbase_k = 3\n")
    assert run(tmp_path, text, "tilted", "--jobs", "1") == cli.EXIT_OK
    assert "\nguide_rate = -0.25\n" in (tmp_path / "tilted" / "plot.py").read_text()


class TestManifestRerun:
    def test_reproduces_outputs(self, tmp_path):
        assert run(tmp_path, CONFIG, "first", "--jobs", "1") == cli.EXIT_OK
        first = outputs(tmp_path / "first")
        manifest = str(tmp_path / "first" / "manifest.json")
        for jobs in ("1", "2"):
            out = tmp_path / f"rerun-{jobs}"
            assert cli.main(["run", manifest, "--out", str(out), "--jobs", jobs]) == 0
            again = outputs(out)
            assert again["risk.csv"] == first["risk.csv"]
            assert again["slopes.csv"] == first["slopes.csv"]
            if jobs == "1":
                assert again["manifest.json"] == first["manifest.json"]
            else:  # only the jobs hint differs
                old = json.loads(first["manifest.json"])
                new = json.loads(again["manifest.json"])
                assert (old.pop("jobs_hint"), new.pop("jobs_hint")) == (1, 2)
                assert new == old

    def test_reproduces_each_fig2_panel(self, tmp_path):
        # the panels run together, each panel's manifest reruns it alone
        base = tmp_path / "fig2"
        assert cli.main(["reproduce-fig2", "--replicates", "20", "--seed", "5",
                         "--jobs", "1", "--out", str(base)]) == cli.EXIT_OK
        for name, _ in cli.FIG2_PANELS:
            again = tmp_path / "rerun" / name
            assert cli.main(["run", str(base / name / "manifest.json"), "--out", str(again),
                             "--jobs", "1"]) == cli.EXIT_OK
            for artifact in ("risk.csv", "slopes.csv"):
                assert (again / artifact).read_bytes() == (base / name / artifact).read_bytes()


def test_superefficiency_csv_file_matches_stdout(tmp_path, capsys):
    rc = cli.main(["superefficiency", "--fn", "asym-power", "--kl", "1.5", "--kr", "3",
                   "--delta", "0.1", "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    stdout = capsys.readouterr().out
    assert stdout.startswith("target,epsilon_T,risk_f,risk_g_plus,risk_g_minus,"
                             "d_fg,omega_ref\n")
    assert (tmp_path / "superefficiency.csv").read_text() == stdout


# -- function-spec flags -----------------------------------------------------

EPS_FLAG = ("--eps", "1e-3:1e-1:5")

# the flag forms the benchmark's modulus workload uses, with the spec each means
MODULUS_FLAGS = [
    (["--fn", "sym-power", "--k", "1.5"], SymmetricPower(1.5)),
    (["--fn", "sym-power", "--k", "2"], SymmetricPower(2.0)),
    (["--fn", "sym-power", "--k", "3"], SymmetricPower(3.0)),
    (["--fn", "asym-power", "--kl", "1.5", "--kr", "2"], AsymmetricPower(1.5, 2.0)),
    (["--fn", "asym-power", "--kl", "1.5", "--kr", "3"], AsymmetricPower(1.5, 3.0)),
    (["--fn", "asym-power", "--kl", "2", "--kr", "3"], AsymmetricPower(2.0, 3.0)),
    (["--fn", "absolute"], Absolute()),
    (["--fn", "piecewise-linear", "--breakpoints", "-0.5 0 0.5",
      "--slopes", "-2 -0.5 1 3"],
     PiecewiseLinear((-0.5, 0.0, 0.5), (-2.0, -0.5, 1.0, 3.0))),
    (["--fn", "tilt", "--base", "sym-power", "--k", "2", "--tilt-eps", "0.1"],
     Tilt(SymmetricPower(2.0), 0.1)),
    (["--fn", "tilt", "--base", "asym-power", "--kl", "1.5", "--kr", "3",
      "--tilt-eps", "-0.05"], Tilt(AsymmetricPower(1.5, 3.0), -0.05)),
    (["--fn", "tilt", "--base", "absolute", "--tilt-eps", "0.3"],
     Tilt(Absolute(), 0.3)),
]


def modulus_csv(spec):
    f = build_function(spec, (-1.0, 1.0))
    curve = sample_modulus_curve(f, np.geomspace(1e-3, 1e-1, 5))
    lines = ["epsilon,omega,method,alpha_hat"]
    lines += [f"{s.epsilon!r},{s.omega!r},{s.method}," for s in curve.samples]
    alpha = "" if curve.fitted_alpha is None else repr(curve.fitted_alpha)
    lines.append(f",,aggregate,{alpha}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("flags,spec", MODULUS_FLAGS + [
    (["--fn", "tilt", "--base", "piecewise-linear", "--breakpoints", "0",
      "--slopes", "-1 2", "--tilt-eps", "0.5"],
     Tilt(PiecewiseLinear((0.0,), (-1.0, 2.0)), 0.5)),
    (["--fn", "sym-power", "--k", "2", "--x-star", "0.25"], SymmetricPower(2.0, 0.25)),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_modulus_flags_match_python_spec(flags, spec, capsys):
    assert cli.main(["modulus", *flags, *EPS_FLAG]) == cli.EXIT_OK
    assert capsys.readouterr().out == modulus_csv(spec)


@pytest.mark.parametrize("command", [
    ["modulus", *EPS_FLAG],
    ["superefficiency", "--delta", "0.1", "--replicates", "2"],
], ids=["modulus", "superefficiency"])
@pytest.mark.parametrize("flags,bad_flag", [
    (["--fn", "sym-power", "--k", "2", "--kl", "3"], "--kl"),
    (["--fn", "absolute", "--k", "5", "--tilt-eps", "0.3"], "--k"),
    (["--fn", "sym-power", "--k", "2", "--base", "absolute"], "--base"),
    (["--fn", "tilt", "--base", "absolute", "--k", "7", "--tilt-eps", "0.3"], "--k"),
    (["--fn", "sym-power", "--k", "2", "--x-star", "nan"], "--x-star"),
    (["--fn", "tilt", "--base", "absolute", "--tilt-eps", "nan"], "--tilt-eps"),
    (["--fn", "sym-power", "--k", "inf"], "--k"),
    (["--fn", "sym-power", "--k", "two"], "--k"),
    (["--fn", "piecewise-linear", "--breakpoints", "0", "--slopes", "-1 nan"],
     "--slopes"),
    (["--fn", "asym-power", "--kl", "2"], "--kr"),
    (["--fn", "tilt", "--base", "tilt", "--tilt-eps", "0.1"], "--base"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_bad_function_flag_is_a_usage_error(command, flags, bad_flag, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([command[0], *flags, *command[1:]])
    assert info.value.code == cli.EXIT_USAGE
    assert f"argument {bad_flag}:" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--seed", "-1"),
    ("--seed", str(2**64)),  # a manifest with this seed would not rerun
    ("--replicates", "0"),
    ("--jobs", "0"),
    ("--jobs", "-3"),
])
def test_bad_fig2_flag_is_a_usage_error(flag, value, tmp_path, capsys):
    argv = ["reproduce-fig2", "--replicates", "2", "--jobs", "1",
            "--out", str(tmp_path), flag, value]
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == cli.EXIT_USAGE
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_run_jobs_below_one_is_a_usage_error(jobs, tmp_path, capsys):
    # a count below 1 used to run in-process without a word
    with pytest.raises(SystemExit) as info:
        run(tmp_path, CONFIG, "out", "--jobs", jobs)
    assert info.value.code == cli.EXIT_USAGE
    assert "argument --jobs: must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "reproduce-fig2"])
def test_jobs_defaults_to_the_usable_cores(command, monkeypatch):
    # the cores this process may use, read by the one helper the oracle's
    # block reads also use, read when the command runs: the parser, built
    # once per process, holds no default for --jobs
    assert cli.usable_cores is oracle.usable_cores
    cli._build_parser()
    monkeypatch.setattr(cli, "usable_cores", lambda: 5)
    jobs = []
    handler = "cmd_run" if command == "run" else "cmd_reproduce_fig2"
    monkeypatch.setattr(cli, handler, lambda *args: jobs.append(args[-1].jobs))
    cli.main([command, "x.cfg"] if command == "run" else [command])
    assert jobs == [5]


def test_parser_is_built_once_per_process():
    assert cli._build_parser() is cli._build_parser()


def test_usage_error_leaves_the_parser_unchanged(capsys):
    argv = ["modulus", "--fn", "tilt", "--base", "asym-power", "--kl", "1.5", "--kr", "3",
            "--tilt-eps", "-0.05", "--domain=-0.5:2", *EPS_FLAG]
    assert cli.main(argv) == cli.EXIT_OK
    first = capsys.readouterr().out
    assert first.startswith("epsilon,omega,method,alpha_hat\n")
    with pytest.raises(SystemExit) as info:
        cli.main(["modulus", "--fn", "sym-power", "--k", "0.5", *EPS_FLAG])
    assert info.value.code == cli.EXIT_USAGE
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("command", [
    ["modulus", *EPS_FLAG],
    ["superefficiency", "--delta", "0.1", "--replicates", "2"],
], ids=["modulus", "superefficiency"])
@pytest.mark.parametrize("domain", ["-inf:1", "-1:inf", "nan:1"])
def test_non_finite_domain_is_a_usage_error(command, domain, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([command[0], "--fn", "sym-power", "--k", "2", f"--domain={domain}",
                  *command[1:]])
    assert info.value.code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert "--domain must be lo:hi with finite lo < hi" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("eps", ["nan:1:5", "1e-6:inf:5", "1e-6:nan:5", "inf:inf:1"])
def test_non_finite_eps_is_a_usage_error(eps, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["modulus", "--fn", "sym-power", "--k", "2", "--eps", eps])
    assert info.value.code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert "--eps needs finite 0 < lo < hi" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("count", ["1000000000000000000", "99999999999999999999999"],
                         ids=["past-memory", "past-numpy-size"])
def test_eps_count_numpy_cannot_allocate_is_a_usage_error(count, capsys):
    # 8e18 bytes fail at the allocation, 1e23 values at numpy's size limit;
    # neither allocates anything
    with pytest.raises(SystemExit) as info:
        cli.main(["modulus", "--fn", "sym-power", "--k", "2", "--eps", f"1e-6:3:{count}"])
    assert info.value.code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert f"error: --eps count {count} is more than numpy can allocate" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("scale", ["nan", "inf", "-1", "0"])
def test_superefficiency_modulus_scale_must_be_finite_and_positive(scale, capsys):
    rc = cli.main(["superefficiency", "--fn", "sym-power", "--k", "2", "--delta", "0.1",
                   "--replicates", "2", "--modulus-scale", scale])
    assert rc == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: modulus_scale must be finite and > 0")
    assert captured.out == ""


@pytest.mark.parametrize("flags", [["--fn", "sym-power", "--k", "1.001"],
                                   ["--fn", "asym-power", "--kl", "2", "--kr", "1.001"]])
def test_modulus_of_a_nearly_linear_power_exits_zero(flags, capsys):
    # the closed form's level sets at eps = 3 lie beyond the float range and
    # clamp to the domain's ends, where the bisection also stops
    assert cli.main(["modulus", *flags, "--eps", "1e-6:3:5"]) == cli.EXIT_OK
    rows = capsys.readouterr().out.splitlines()
    assert rows[-3:-1] == ["3.0,1.0,analytic,", "3.0,1.0,numeric,"]


@pytest.mark.parametrize("command", ["run", "reproduce-fig2"])
def test_unusable_output_directory_fails_before_any_cell(command, tmp_path, monkeypatch,
                                                         capsys):
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran")

    for name in ("estimate_risk", "estimate_risks"):
        monkeypatch.setattr(cli, name, no_cell)
    if command == "run":  # a regular file where a parent directory should be
        (tmp_path / "file").write_text("")
        blocked = tmp_path / "file" / "sub"
        (tmp_path / "c.cfg").write_text(CONFIG)
        argv = ["run", str(tmp_path / "c.cfg"), "--out", str(blocked)]
    else:  # the last panel's directory, while the others can be made
        (tmp_path / "fig2").mkdir()
        blocked = tmp_path / "fig2" / cli.FIG2_PANELS[-1][0]
        blocked.write_text("")
        argv = ["reproduce-fig2", "--replicates", "2", "--jobs", "1",
                "--out", str(tmp_path / "fig2")]
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot create {blocked}: ")
    assert captured.out == ""
