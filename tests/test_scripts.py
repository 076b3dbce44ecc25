"""The example scripts run end to end on small arguments."""
import os
import runpy
import subprocess
import sys
from pathlib import Path

from convexbench import cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SRC = str(Path(cli.__file__).resolve().parents[1])


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_modulus_curves_prints_one_line_per_catalog_function():
    catalog = runpy.run_path(str(SCRIPTS / "modulus_curves.py"))["CATALOG"]
    lines = run_script("modulus_curves.py")
    assert len(lines) == len(catalog)
    assert all("alpha_hat=" in line for line in lines)


def test_superefficiency_demo_prints_two_reports():
    lines = run_script("superefficiency_demo.py", "--replicates", "20", "--T", "1000")
    assert [line for line in lines if line.startswith("--- ")] == [lines[0], lines[7]]
    assert len(lines) == 14


def test_src_lines_counts_physical_and_code_lines(tmp_path):
    (tmp_path / "m.py").write_text('"""Docstring."""\n# comment\n\nX = """a\nb"""\n'
                                   'def f():\n    "doc"\n    return 1  # why\n')
    assert run_script("src_lines.py", str(tmp_path)) == ["physical lines: 8",
                                                         "code lines: 4"]
    physical, code = (int(line.rsplit(" ", 1)[1]) for line in run_script("src_lines.py"))
    assert 0 < code < physical
