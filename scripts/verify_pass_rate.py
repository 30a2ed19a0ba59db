#!/usr/bin/env python3
"""Failure count of each verify check over a range of seeds.

Runs the verification battery (``run_verify``, as ``spinmix verify`` does)
once per seed in this process and prints, per check, on how many seeds it
failed and which, e.g.

    python scripts/verify_pass_rate.py --model models/pure3.json --seeds 0 100

counts the failures over seeds 0-99 at N = 40 with 10,000 samples.  The
estimators' low-ESS warnings are counted per seed, not printed.
"""

import argparse
import warnings

from spinmix import load_model, sk_model
from spinmix.verify import run_verify


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--model", default=None, help="model JSON file (default: built-in SK)")
    ap.add_argument("--seeds", type=int, nargs=2, default=[0, 100], metavar=("FIRST", "STOP"),
                    help="the seeds FIRST, ..., STOP - 1")
    ap.add_argument("--N", type=int, default=40)
    ap.add_argument("--samples", type=int, default=10000)
    args = ap.parse_args(argv)

    model = sk_model() if args.model is None else load_model(args.model)
    seeds = range(*args.seeds)
    failed: dict[str, list[int]] = {}
    low_ess = 0
    for seed in seeds:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run = run_verify(model, N=args.N, n_samples=args.samples, seed=seed)
        low_ess += bool(caught)
        for check in run.checks:
            failed.setdefault(check.name, [])
            if not check.passed:
                failed[check.name].append(seed)
    print(f"seeds {seeds.start}-{seeds.stop - 1}, N = {args.N}, samples = {args.samples}, "
          f"{low_ess} with an ESS warning")
    print(f"{'check':<26}  failures  seeds")
    for name, bad in failed.items():
        print(f"{name:<26}  {len(bad):>4}/{len(seeds):<4} {' '.join(map(str, bad))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
