#!/usr/bin/env python3
"""Scan the overlap landscape of a model across inverse-temperatures.

Writes the same CSV as `spinmix scan` and prints a summary with the three
thresholds, e.g.

    python scripts/phase_scan.py --model models/sk.json --out /tmp/sk_scan.csv
"""

import argparse
import csv
import math

from spinmix import beta_hessian_singular, beta_m, beta_m_tilde, load_model
from spinmix.cli import main as cli_main


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--model", required=True)
    ap.add_argument("--beta-min", type=float, default=0.0)
    ap.add_argument("--beta-max", type=float, default=1.2)
    ap.add_argument("--beta-step", type=float, default=0.05)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    model = load_model(args.model)
    b_m = beta_m(model)
    b_t = beta_m_tilde(model)
    b_H = beta_hessian_singular(model)
    print(f"beta_m        = {b_m:.9f}")
    print(f"beta_m_tilde  = {b_t:.9f}")
    print(f"beta_H        = {b_H:.9f}" if math.isfinite(b_H) else "beta_H        = inf")

    code = cli_main([
        "scan", "--model", args.model,
        "--beta-min", str(args.beta_min), "--beta-max", str(args.beta_max),
        "--beta-step", str(args.beta_step), "--out", args.out,
    ])
    if code != 0:
        return code

    # the table is read back from the CSV just written (exact: cells are reprs)
    with open(args.out, newline="") as f:
        rows = list(csv.DictReader(line for line in f if not line.startswith("#")))
    print(f"\n{'beta':>8}  {'max_f':>12}  {'lam_max(M)':>12}")
    for row in rows:
        beta = float(row["beta"])
        marker = " <- threshold" if abs(beta - b_m) < args.beta_step / 2 else ""
        print(f"{beta:8.3f}  {float(row['max_f']):12.6g}  "
              f"{float(row['lambda_max_M']):12.6g}{marker}")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
