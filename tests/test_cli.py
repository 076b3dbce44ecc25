"""Command line, in process: exit codes, manifest reruns, superefficiency CSV,
and the function-spec flags of `modulus` and `superefficiency`."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from convexbench import (
    Absolute,
    AsymmetricPower,
    PiecewiseLinear,
    SymmetricPower,
    Tilt,
    build_function,
    cli,
    oracle,
    sample_modulus_curve,
)

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

    @pytest.mark.parametrize("estimator", ["constant", "binary-search", "sgd"])
    @pytest.mark.parametrize("replicates", ["0", "-3"])
    def test_superefficiency_needs_a_replicate(self, estimator, replicates, capsys):
        rc = cli.main(["superefficiency", "--fn", "sym-power", "--k", "2", "--delta", "0.1",
                       "--T", "100", "--estimator", estimator, "--replicates", replicates])
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: replicates must be >= 1")

    def test_superefficiency_bad_estimator_parameter(self, capsys):
        rc = cli.main(["superefficiency", "--fn", "sym-power", "--k", "2",
                       "--delta", "0.1", "--estimator", "binary-search", "--r", "0"])
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: r must be positive")


@pytest.mark.parametrize("flag,value", [("--x-hat", "nan"), ("--x-hat", "inf"),
                                        ("--sigma", "nan"), ("--sigma", "inf")])
def test_superefficiency_non_finite_number_is_a_usage_error(flag, value, capsys):
    rc = cli.main(["superefficiency", "--fn", "sym-power", "--k", "2",
                   "--delta", "0.1", flag, value])
    assert rc == cli.EXIT_USAGE
    name = flag[2:].replace("-", "_")
    assert capsys.readouterr().err.startswith(f"error: {name} must be finite")


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
    # block reads also use
    assert cli.usable_cores is oracle.usable_cores
    monkeypatch.setattr(cli, "usable_cores", lambda: 5)
    argv = [command, "x.cfg"] if command == "run" else [command]
    assert cli._build_parser().parse_args(argv).jobs == 5


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

    monkeypatch.setattr(cli, "estimate_risk", no_cell)
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
