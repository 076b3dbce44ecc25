"""Output checks.  Each returns (operations checked, failure descriptions).

An operation is one risk-table cell or one modulus evaluation.  It fails when
it is missing, not finite, or does not match the recorded reference.
"""
from __future__ import annotations

import csv
import io
import math

# Well above the 1e-12 bisection tolerance of the modulus, far below any
# difference a behaviour change would make.
MODULUS_TOL = 1e-9


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _finite(value: str | None) -> bool:
    try:
        return math.isfinite(float(value))
    except (TypeError, ValueError):
        return False


def risk_against_reference(label: str, text: str | None, ref_text: str):
    """Every reference cell must be present with the same bytes in each field.

    Columns added after the reference was recorded are ignored, so a run that
    reports more per cell still passes when its risk values are unchanged.
    """
    ref_rows = _rows(ref_text)
    got = {}
    for row in _rows(text or ""):
        got.setdefault((row.get("algorithm"), row.get("T")), row)
    failures = []
    for ref in ref_rows:
        key = (ref["algorithm"], ref["T"])
        row = got.get(key)
        if row is None:
            failures.append(f"{label}: missing cell {key}")
        elif any(row.get(col) != val for col, val in ref.items()):
            failures.append(f"{label}: cell {key} differs from the reference")
    return len(ref_rows), failures


def risk_plausible(label: str, text: str | None, t_grid, n_algorithms: int,
                   replicates: int):
    """Without a reference: every (algorithm, T) cell of the grid present,
    with n = R and a finite, non-negative risk."""
    valid = set()
    for row in _rows(text or ""):
        if (row.get("T") in {str(t) for t in t_grid} and row.get("n") == str(replicates)
                and _finite(row.get("mean_err")) and float(row["mean_err"]) >= 0
                and _finite(row.get("stderr"))):
            valid.add((row.get("algorithm"), row["T"]))
    n_cells = len(t_grid) * n_algorithms
    missing = max(0, n_cells - len(valid))
    return n_cells, [f"{label}: cell missing or invalid"] * missing


def _close(a: str | None, b: str | None) -> bool:
    if a in (None, "") or b in (None, ""):
        return a in (None, "") and b in (None, "")
    if not (_finite(a) and _finite(b)):
        return False
    return abs(float(a) - float(b)) <= MODULUS_TOL


def modulus_against_reference(label: str, text: str, ref_text: str):
    """One operation per epsilon of the curve, plus the fitted exponent.

    Every row printed at a reference epsilon (whatever its method column says)
    must match the reference modulus there within MODULUS_TOL.
    """
    ref_rows = _rows(ref_text)
    rows = _rows(text)
    by_eps: dict[float, list[str]] = {}
    for row in rows:
        if row.get("epsilon") and _finite(row["epsilon"]):
            by_eps.setdefault(float(row["epsilon"]), []).append(row.get("omega"))
    failures = []
    ref_eps = {}
    for ref in ref_rows:
        if ref["epsilon"]:
            ref_eps.setdefault(float(ref["epsilon"]), ref["omega"])
    for eps, omega in ref_eps.items():
        got = by_eps.get(eps)
        if not got or not all(_close(g, omega) for g in got):
            failures.append(f"{label}: omega({eps!r}) is {got}, reference {omega}")
    ref_alpha = next((r.get("alpha_hat") for r in ref_rows if not r["epsilon"]), None)
    got_alpha = next((r.get("alpha_hat") for r in rows if not r.get("epsilon")), None)
    if not _close(got_alpha, ref_alpha):
        failures.append(f"{label}: fitted exponent {got_alpha}, reference {ref_alpha}")
    return len(ref_eps) + 1, failures


def superefficiency_against_reference(label: str, text: str, ref_text: str):
    """One operation per report: every reference column within MODULUS_TOL."""
    ref = _rows(ref_text)[0]
    rows = _rows(text)
    if len(rows) != 1:
        return 1, [f"{label}: expected one report row, got {len(rows)}"]
    row = rows[0]
    bad = [col for col, val in ref.items()
           if col != "target" and not _close(row.get(col), val)]
    if row.get("target") != ref["target"] or bad:
        return 1, [f"{label}: columns {bad or ['target']} differ from the reference"]
    return 1, []
