"""Command-line front end.

Subcommands:

  critical    threshold report (JSON) for a model file
  scan        CSV over a beta grid: max f, argmax, lambda_max(M), max f-tilde
  verify      Monte Carlo verification battery; exit 0 iff all checks pass
  band-probe  band free energy vs its conditional prediction over a beta grid

All outputs embed the model hash and tool version, and identical
(config, seed) pairs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, criticality, landscape, montecarlo, verify as verify_mod
from .model import ModelFormatError, ModelSpec, load_model, model_hash, sk_model
from .quadrature import QuadratureError
from .rng import PROBE_CENTER

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2

SCAN_HEADER = "beta,max_f,argmax,lambda_max_M,max_f_tilde"
PROBE_HEADER = "beta,N,estimate,stderr,prediction,residual"
MAX_GRID_POINTS = 10**5  # the most betas a --beta-min/--beta-max/--beta-step grid may hold


def _float_cell(x: float) -> str:
    return repr(float(x))


def _jsonable(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _load(args) -> ModelSpec:
    if args.model is None:
        return sk_model()
    return load_model(args.model)


def _beta_grid(args) -> list[float]:
    grid = (args.beta_min, args.beta_max, args.beta_step)
    flags = grid if args.beta is None else (args.beta,)
    both = args.beta is not None and grid != (None,) * 3
    if None in flags or both:
        raise ValueError("supply either --beta or the full --beta-min/--beta-max/--beta-step "
                         "grid, not both")
    if not all(map(math.isfinite, flags)):
        raise ValueError(f"beta flags must be finite, got {flags}")
    if args.beta is not None:
        return [float(args.beta)]
    lo, hi, step = map(float, flags)
    if step <= 0.0 or hi < lo:
        raise ValueError("beta grid requires beta-step > 0 and beta-max >= beta-min")
    span = (hi - lo) / step + 1e-9  # inf when the step underflows the quotient
    if not span < MAX_GRID_POINTS:
        raise ValueError(f"beta grid of {span!r} steps exceeds {MAX_GRID_POINTS} points")
    return [lo + i * step for i in range(int(math.floor(span)) + 1)]


def _stamp_lines(model: ModelSpec) -> str:
    return f"# model_hash={model_hash(model)}\n# tool_version={__version__}\n"


def _probe_csv(model: ModelSpec, rows) -> str:
    """The verify and band-probe CSV: one line per (beta, N, estimate, stderr,
    prediction) row, in PROBE_HEADER order."""
    lines = [_stamp_lines(model) + PROBE_HEADER]
    lines += [",".join(map(_float_cell, (beta, n, est, se, pred, est - pred)))
              for beta, n, est, se, pred in rows]
    return "\n".join(lines) + "\n"


def cmd_critical(args) -> int:
    model = _load(args)
    report = criticality.verdict(model)
    text = report.to_json(model_hash=model_hash(model), tool_version=__version__)
    _write(args.out, text)
    if args.out:
        print(f"verdict={report.verdict.value} beta_m={report.beta_m!r} "
              f"beta_m_tilde={report.beta_m_tilde!r} beta_H={report.beta_H!r}")
    return EXIT_OK


def cmd_scan(args) -> int:
    model = _load(args)
    grid = _beta_grid(args)
    lines = [_stamp_lines(model) + SCAN_HEADER]
    for beta in grid:
        plain, tilde = landscape.maximize_each(model, beta, ("plain", "tilde"))
        lam_max = float(np.linalg.eigvalsh(landscape.hessian_at_zero(model, beta)).max())
        argmax = ";".join(_float_cell(x) for x in plain.argmax)
        lines.append(
            f"{_float_cell(beta)},{_float_cell(plain.value)},{argmax},"
            f"{_float_cell(lam_max)},{_float_cell(tilde.value)}"
        )
        if args.verbose:
            print(f"beta={beta!r}: " + "; tilde ".join(
                f"starts={res.starts_used} evals={res.fun_evals} converged={res.converged}"
                for res in (plain, tilde)), file=sys.stderr)
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    # the JSON report goes to --out and the table beside it with a .csv
    # suffix, which must be another file
    if args.out and Path(args.out).with_suffix(".csv") == Path(args.out):
        raise ValueError(f"--out {args.out} would be overwritten by the CSV table written "
                         "beside it with the suffix .csv; choose another suffix")
    model = _load(args)
    run = verify_mod.run_verify(model, N=args.N, n_samples=args.samples, seed=args.seed)
    for c in run.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: observed={c.observed!r} bound={c.bound!r} {c.detail}")
    doc = {
        "tool_version": __version__,
        "model_hash": model_hash(model),
        "seed": args.seed,
        "N": args.N,
        "n_samples": args.samples,
        "checks": [asdict(c) for c in run.checks],
        "estimates": list(run.records),
        "all_passed": run.all_passed,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n")
        Path(args.out).with_suffix(".csv").write_text(_probe_csv(model, run.table))
    print("all checks passed" if run.all_passed else "some checks FAILED")
    return EXIT_OK if run.all_passed else EXIT_FAILURE


def cmd_band_probe(args) -> int:
    model = _load(args)
    grid = _beta_grid(args)
    fm = montecarlo.build_finite_model(model, args.N)
    disorder = montecarlo.sample_disorder(fm, seed=args.seed)
    probe = montecarlo.band_probe(disorder, args.seed, PROBE_CENTER, grid, args.samples)
    _write(args.out, _probe_csv(model, [(beta, fm.N, est.estimate, est.std_error, pred)
                                        for beta, (est, pred) in zip(grid, probe)]))
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="spinmix",
        description="Second-moment thresholds and finite-N Monte Carlo for "
                    "multi-species spherical mixed p-spin models.",
    )
    parser.add_argument("--version", action="version", version=f"spinmix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def model_flag(p, *, required: bool):
        p.add_argument("--model", required=required, default=None,
                       help="model JSON file" + ("" if required else " (default: built-in SK)"))

    def out_flag(p):
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    def beta_flags(p):
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--beta-min", type=float, default=None)
        p.add_argument("--beta-max", type=float, default=None)
        p.add_argument("--beta-step", type=float, default=None)

    def monte_carlo_flags(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--N", type=int, default=40)
        p.add_argument("--samples", type=int, default=20000)

    p = sub.add_parser("critical", help="threshold report for a model file")
    model_flag(p, required=True)
    out_flag(p)
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("scan", help="landscape scan over a beta grid (CSV)")
    model_flag(p, required=True)
    beta_flags(p)
    out_flag(p)
    p.add_argument("--verbose", "-v", action="store_true")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="Monte Carlo verification battery")
    model_flag(p, required=False)
    monte_carlo_flags(p)
    out_flag(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("band-probe", help="band free energy vs prediction (CSV)")
    model_flag(p, required=False)
    monte_carlo_flags(p)
    beta_flags(p)
    out_flag(p)
    p.set_defaults(func=cmd_band_probe)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ModelFormatError as exc:
        print(f"error: model file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, montecarlo.BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (montecarlo.CoefficientLawError, QuadratureError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
