#!/usr/bin/env python3
"""Convergence of the exact finite-N second moment toward its limit.

For each N the table shows (1/N) log E Z^2 from quadrature, the limiting
value beta^2 xi(1) + max f, the gap and N * gap.  When max f = 0 (beta below
the second-moment threshold) N * gap tends to the Laplace constant

    c = -1/2 log det(I - beta^2 diag(lam)^-1 Q),

with Q the degree-2 coefficient matrix, which is printed above the table, e.g.

    python scripts/second_moment_table.py --model models/sk.json --beta 0.5
"""

import argparse

import numpy as np

from spinmix import (beta_m, build_finite_model, hessian_at_zero, load_model, log_E_Z2_exact,
                     maximize_f)


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--model", required=True)
    ap.add_argument("--beta", type=float, default=None,
                    help="default: half the second-moment threshold")
    ap.add_argument("--sizes", type=int, nargs="+", default=[50, 100, 200, 400, 800])
    args = ap.parse_args(argv)

    model = load_model(args.model)
    try:
        finite = [build_finite_model(model, N) for N in args.sizes]
    except ValueError as err:  # a size too small for the model's species
        ap.error(f"argument --sizes: {err}")
    beta = args.beta if args.beta is not None else 0.5 * beta_m(model)
    max_f = maximize_f(model, beta).value
    limit = beta * beta * model.xi1() + max_f
    print(f"beta = {beta!r}, limit = {limit!r}")
    if max_f == 0.0:  # -diag(lam)^-1 M(beta) = I - beta^2 diag(lam)^-1 Q
        M = hessian_at_zero(model, beta)
        c = -0.5 * float(np.linalg.slogdet(-M / model.species.lam[:, None])[1])
        print(f"Laplace constant c = {c!r}")
    print(f"{'N':>6}  {'(1/N) log E Z^2':>18}  {'gap':>12}  {'N*gap':>10}")
    for fm in finite:
        N, val = fm.N, log_E_Z2_exact(fm, beta)
        print(f"{N:6d}  {val:18.10f}  {val - limit:12.3e}  {N * (val - limit):10.6f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
