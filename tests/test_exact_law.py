"""Monte-Carlo risk rows against the exact laws of ``exact_law``.

The bands were fixed before the tests were first run: every cell's z-score
lies within 4 in absolute value, and the sum of the squared z-scores of a
set of independent cells lies below the 0.999 quantile of the chi-square law
with one degree of freedom per cell.  The z-scores use the exact law's own
standard deviation, so they are exact under the hypothesis that the harness
samples that law.
"""
import numpy as np
import pytest
from scipy.stats import chi2

import exact_law
from convexbench import (
    AsymmetricPower,
    BinarySearchSpec,
    ExperimentConfig,
    FunctionFamily,
    OracleBatch,
    SgdSpec,
    SymmetricPower,
    UniformDist,
    cli,
    estimate_risk,
    run_binary_search,
    with_x_star,
)
from convexbench.configfile import DEFAULT_T_GRID
from convexbench.oracle import replicate_seeds

SIGMA = 0.1
INTERVAL = (-2.0, 2.0)
R = 1000
SEED = 7
Z_MAX = 4.0


def check_band(zs):
    assert max(map(abs, zs)) <= Z_MAX, zs
    assert sum(z * z for z in zs) <= chi2.ppf(0.999, len(zs)), zs


def test_sgd_on_the_quadratic_family_samples_its_exact_law():
    # fig2's sym-k2 panel: each cell has its own seeds, so the cells are
    # independent; the error law does not depend on x* or on the start
    schedules = ("1/t", "1/sqrt(t)")
    config = ExperimentConfig(FunctionFamily(SymmetricPower(2.0), UniformDist(-1.0, 1.0)),
                              tuple(SgdSpec(s) for s in schedules), DEFAULT_T_GRID, R,
                              SIGMA, SEED, INTERVAL)
    rows = estimate_risk(config).rows
    assert len(rows) == 14
    zs = []
    for row in rows:
        schedule = row.algorithm.removeprefix("sgd(").removesuffix(")")
        assert schedule in schedules
        zs.append(exact_law.sgd_quadratic_risk(schedule, row.T, SIGMA).z(row.mean_err, R))
    check_band(zs)


def test_quadratic_closed_forms():
    # one 1/sqrt(t) step lands on x* - sigma z_1, as one 1/t step does
    for schedule in ("1/t", "1/sqrt(t)"):
        assert exact_law.sgd_quadratic_risk(schedule, 1, SIGMA).mean == pytest.approx(
            SIGMA * exact_law.HALF_NORMAL_MEAN, rel=1e-15)
    # v after two 1/sqrt(t) steps: (1 - 1/sqrt 2)^2 + 1/2
    v = (1.0 - 2.0**-0.5) ** 2 + 0.5
    assert exact_law.sgd_quadratic_risk("1/sqrt(t)", 2, SIGMA).sd == pytest.approx(
        SIGMA * v**0.5 * exact_law.HALF_NORMAL_SD, rel=1e-15)


BISECTION_SPECS = [SymmetricPower(2.0, 0.3), AsymmetricPower(1.5, 3.0, -0.2)]
BISECTION_BUDGETS = (100, 1000, 10000)


def test_binary_search_at_a_fixed_minimizer_samples_its_exact_law():
    spec_alg = BinarySearchSpec(r=1.5)
    zs = []
    for spec in BISECTION_SPECS:
        config = ExperimentConfig(spec, (spec_alg,), BISECTION_BUDGETS, R, SIGMA, SEED,
                                  INTERVAL)
        for row in estimate_risk(config).rows:
            exact = exact_law.binary_search_risk(spec, spec_alg.r, row.T, SIGMA, INTERVAL)
            zs.append(exact.z(row.mean_err, R))
    assert len(zs) == 6
    check_band(zs)


@pytest.mark.parametrize("spec", BISECTION_SPECS, ids=repr)
@pytest.mark.parametrize("T", BISECTION_BUDGETS)
def test_binary_search_law_loses_almost_no_mass(spec, T):
    points, p, pruned = exact_law.binary_search_law(spec, 1.5, T, SIGMA, INTERVAL)
    assert pruned <= 1e-12
    assert p.sum() == pytest.approx(1.0 - pruned, abs=1e-12)
    assert len(set(points.tolist())) == len(points)  # no two states coincide


def test_noiseless_law_is_the_search_path():
    # at sigma -> 0 every round is decided: one state, the search's own output
    spec = SymmetricPower(2.0, 0.3)
    points, p, _ = exact_law.binary_search_law(spec, 1.5, 1000, 1e-300, INTERVAL)
    assert p.tolist() == [1.0]
    assert abs(points[0] - 0.3) <= 4.0 * 2.0**-10


GRID_X_STARS = np.linspace(-0.9, 0.9, 37)


def grid_share(spec, T):
    """The noiseless risk over the noisy one at fixed minimizers: the
    noiseless risk is the sigma = 0 search, one path per x*, on the real
    code path; the noisy risk is the exact law at SIGMA."""
    search = BinarySearchSpec(r=cli.FIG2_ROUND_COEFFICIENT)
    seeds = replicate_seeds(SEED, (), len(GRID_X_STARS), 1)
    batch = OracleBatch(spec, GRID_X_STARS, INTERVAL, 0.0, T, seeds)
    noiseless = np.mean(np.abs(run_binary_search(batch, search) - GRID_X_STARS))
    noisy = np.mean([exact_law.binary_search_risk(with_x_star(spec, float(x)), search.r,
                                                  T, SIGMA, INTERVAL).mean
                     for x in GRID_X_STARS])
    return noiseless / noisy


@pytest.mark.parametrize("name, spec", cli.FIG2_PANELS,
                         ids=[name for name, _ in cli.FIG2_PANELS])
def test_fig2_binary_search_panels_grid_share(name, spec):
    # bounds fixed before the first run: on sym-k1.5 the noiseless grid error
    # is at least 0.95 of the risk at T = 1e2, 1e3 and 1e4, so that panel's
    # slope is the grid's, not the modulus rate; on every other fig2 panel it
    # is at most 0.4 of the risk from T = 1e3 on, where noise carries it
    shares = [grid_share(spec, T) for T in (100, 1000, 10_000)]
    if name == "sym-k1.5":
        assert min(shares) >= 0.95, shares
    else:
        assert max(shares[1:]) <= 0.4, shares
