#!/usr/bin/env python3
"""Print modulus curves for the standard catalog functions.

For each function, samples the difficulty modulus on a log grid of
subgradient-perturbation levels and prints the fitted growth exponent next
to the closed-form value 1/(k-1) where one exists.
"""
import numpy as np

from convexbench import (
    Absolute,
    AsymmetricPower,
    SymmetricPower,
    build_function,
    sample_modulus_curve,
    spec_id,
)

DOMAIN = (-1.0, 1.0)
EPS_GRID = np.geomspace(1e-6, 1e-1, 20)

CATALOG = [
    (SymmetricPower(k=1.5), 1.0 / 0.5),
    (SymmetricPower(k=2.0), 1.0),
    (SymmetricPower(k=3.0), 0.5),
    (AsymmetricPower(k_l=1.5, k_r=2.0), 1.0),
    (AsymmetricPower(k_l=1.5, k_r=3.0), 0.5),
    (AsymmetricPower(k_l=2.0, k_r=3.0), 0.5),
    (Absolute(), None),
]


def main():
    for spec, alpha_true in CATALOG:
        f = build_function(spec, DOMAIN)
        curve = sample_modulus_curve(f, EPS_GRID)
        numeric = [s for s in curve.samples if s.method == "numeric"]
        lo, hi = numeric[0], numeric[-1]
        expected = "n/a" if alpha_true is None else f"{alpha_true:.4f}"
        fitted = "n/a" if curve.fitted_alpha is None else f"{curve.fitted_alpha:.4f}"
        print(
            f"{spec_id(f.spec):46s} omega({lo.epsilon:.0e})={lo.omega:.3e}  "
            f"omega({hi.epsilon:.0e})={hi.omega:.3e}  "
            f"alpha_hat={fitted} (exact {expected})"
        )


if __name__ == "__main__":
    main()
