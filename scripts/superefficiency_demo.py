#!/usr/bin/env python3
"""Superefficiency dichotomy demo.

A constant estimator pinned at the minimizer of f has zero risk at f, but at
the tilted alternatives f(x) +/- eps_T * x its risk equals the full minimizer
displacement.  The binary search, by contrast, pays a modest premium at f and
stays near the modulus benchmark at the tilts.
"""
import argparse

from convexbench import (
    BinarySearchSpec,
    ConstantEstimator,
    SymmetricPower,
    superefficiency_experiment,
)
from convexbench.cli import FIG2_ROUND_COEFFICIENT


def show(report, label):
    print(f"--- {label}")
    print(f"  target {report.function}, eps_T = {report.epsilon_T:.3e}")
    print(f"  risk at f        : {report.risk_f:.3e}")
    plus, minus = report.alternatives
    print(f"  risk at g+ / g-  : {plus.risk:.3e} / {minus.risk:.3e}")
    print(f"  d(f, g+/-)       : {plus.d:.3e} / {minus.d:.3e}")
    print(f"  omega_g(eps_T)   : {plus.omega_ref:.3e} / {minus.omega_ref:.3e}")
    print(f"  bound constant   : {report.lower_constant:.4f} (reference)")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--k", type=float, default=2.0)
    ap.add_argument("--delta", type=float, default=0.05)
    ap.add_argument("--T", type=int, default=10000)
    ap.add_argument("--sigma", type=float, default=0.1)
    ap.add_argument("--replicates", type=int, default=200)
    ap.add_argument("--seed", type=int, default=20250810)
    args = ap.parse_args()

    spec = SymmetricPower(k=args.k, x_star=0.0)
    common = dict(delta=args.delta, T=args.T, sigma=args.sigma,
                  replicates=args.replicates, master_seed=args.seed)
    show(superefficiency_experiment(spec, ConstantEstimator(0.0), **common),
         "constant estimator at x = 0 (maximally superefficient at f)")
    show(superefficiency_experiment(
        spec, BinarySearchSpec(r=FIG2_ROUND_COEFFICIENT), **common),
        "sign-testing binary search")


if __name__ == "__main__":
    main()
