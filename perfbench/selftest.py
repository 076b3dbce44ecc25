"""Show that the output checks count perturbed outputs as failed.

    python3 perfbench/selftest.py

Takes recorded reference outputs, perturbs one risk row and one modulus
value, and checks that each is counted as exactly one failed operation while
the unperturbed outputs pass.  Exit code 0 when every case behaves so.
"""
from __future__ import annotations

import csv
import io
import sys

import checks
from workloads import FIG2_T_GRID, load_refs


def _perturb_field(text: str, row: int, column: str, change) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    i = rows[0].index(column)
    rows[row][i] = change(rows[row][i])
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def main() -> int:
    risk = next(iter(load_refs("fig2").values()))["sym-k2"]
    curve = load_refs("modulus-tilts")["modulus sym-2"]
    report = load_refs("modulus-tilts")["superefficiency asym-1.5-3 delta=0.1"]
    cases = [
        ("risk row unchanged", checks.risk_against_reference("p", risk, risk), 0),
        ("risk row: mean_err changed in its last digit",
         checks.risk_against_reference("p", _perturb_field(
             risk, 5, "mean_err", lambda v: v[:-1] + str((int(v[-1]) + 1) % 10)), risk), 1),
        ("risk row missing",
         checks.risk_against_reference("p", "".join(
             risk.splitlines(keepends=True)[:-1]), risk), 1),
        ("risk row with a non-finite risk, no reference",
         checks.risk_plausible("p", _perturb_field(
             risk, 3, "mean_err", lambda v: "nan"), FIG2_T_GRID,
             3, 1000), 1),
        ("modulus curve unchanged", checks.modulus_against_reference("c", curve, curve), 0),
        ("modulus value moved by 1e-8",
         checks.modulus_against_reference("c", _perturb_field(
             curve, 40, "omega", lambda v: repr(float(v) + 1e-8)), curve), 1),
        ("modulus value moved by 1e-11 (inside the tolerance)",
         checks.modulus_against_reference("c", _perturb_field(
             curve, 40, "omega", lambda v: repr(float(v) + 1e-11)), curve), 0),
        ("superefficiency omega_ref moved by 1e-8",
         checks.superefficiency_against_reference("s", _perturb_field(
             report, 1, "omega_ref", lambda v: repr(float(v) + 1e-8)), report), 1),
    ]
    ok = True
    for label, (ops, failures), expected in cases:
        good = len(failures) == expected
        ok &= good
        print(f"{'ok  ' if good else 'BAD '} {label}: {len(failures)} of {ops} failed "
              f"(expected {expected})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
