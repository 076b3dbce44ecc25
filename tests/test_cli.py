"""Command line, in process: exit codes, manifest reruns, superefficiency CSV."""
import json

import pytest

from convexbench import cli

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

    @pytest.mark.parametrize("content", ['{"kind": "something else"}', "not json"])
    def test_non_manifest_json(self, tmp_path, content):
        path = tmp_path / "other.json"
        path.write_text(content)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE

    def test_superefficiency_bad_estimator_parameter(self, capsys):
        rc = cli.main(["superefficiency", "--fn", "sym-power", "--k", "2",
                       "--delta", "0.1", "--estimator", "binary-search", "--r", "0"])
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: r must be positive")


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
