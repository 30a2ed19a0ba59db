#!/usr/bin/env python3
"""Time two checkouts of the package against each other in one process.

    python scripts/ab_compare.py PARENT_SRC CHANGE_SRC [--pairs N]

PARENT_SRC and CHANGE_SRC are ``src`` directories, each holding a
``spinmix`` package.  Both are loaded into one interpreter under names of
their own, so a pair of runs shares the process, its caches and its host
load, and the two runs of a pair are milliseconds apart.  Each pair runs
every job once on each side, and the side that runs first alternates from
pair to pair.  The jobs, fixed:

  verdict on the four fixtures under models/;
  maximize_f, plain and truncated, at beta 0.8 on seeded 3-6 species models;
  the pair of maximize_f calls a scan row makes, plain and truncated at beta
  0.6, and beta_m and beta_m_tilde, on the seeded three-species model;
  estimate_free_energy on pure3 at N = 40 with 4096 samples;
  log_E_Z2_exact on two_species_quadratic at N = 400 and on the seeded
  three-species model, a chain, at N = 3200;
  the six log_E_Z2_exact calls of verify's second-moment checks on sk: N = 50,
  100 and 200, each at beta 0 and at half of beta_m.

A package that holds its Gauss-Legendre rules for the process runs every
log_E_Z2_exact job warm after that job's first pair.

For each job it prints the median wall time of each side, their ratio
(change over parent), the share of pairs in which the change was faster,
and whether the two sides' results were bitwise equal in every pair.
"""

import argparse
import dataclasses
import enum
import importlib.util
import json
import statistics
import sys
import time
import warnings
from pathlib import Path

import numpy as np

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"
FIXTURES = ("sk", "pure3", "pure4", "two_species_quadratic")
SEARCH_BETA = 0.8
SEARCH_SPECIES = range(3, 7)
SCAN_BETA = 0.6


def load(src: str, name: str):
    """The package under ``src/spinmix``, imported as ``name``."""
    package = Path(src) / "spinmix"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def random_model(seed: int, S: int) -> str:
    """A model document: per species one pure term of degree 2-4, neighbours
    coupled by x_s x_{s+1}, proportions drawn."""
    rng = np.random.default_rng(seed)
    names = "abcdef"[:S]
    lam = rng.uniform(0.5, 1.5, size=S)
    lam /= lam.sum()
    lam[-1] = 1.0 - lam[:-1].sum()
    terms = [({names[s]: int(rng.integers(2, 5))}, rng.uniform(0.5, 1.5)) for s in range(S)]
    terms += [({names[s]: 1, names[s + 1]: 1}, rng.uniform(0.3, 1.0)) for s in range(S - 1)]
    return json.dumps({"species": [{"name": n, "lambda": float(v)} for n, v in zip(names, lam)],
                       "terms": [{"degrees": d, "delta_sq": float(c)} for d, c in terms]})


def jobs(pkg) -> dict:
    """Name -> a call of no arguments, every input built beforehand."""
    fixtures = {name: pkg.load_model(MODELS_DIR / f"{name}.json") for name in FIXTURES}
    out = {f"verdict {name}": (lambda m=model: pkg.verdict(m)) for name, model in fixtures.items()}

    def search(model, beta, objective):
        # the result without fun_evals, a count of the work done
        res = pkg.maximize_f(model, beta, objective)
        return res.argmax, res.value, res.converged, res.grid_certified

    for S in SEARCH_SPECIES:
        model = pkg.loads_model(random_model(S, S))
        for objective in ("plain", "tilde"):
            out[f"maximize_f {objective} S={S}"] = (
                lambda m=model, o=objective: search(m, SEARCH_BETA, o))
    three = pkg.loads_model(random_model(3, 3))
    out["scan pair S=3"] = lambda: [search(three, SCAN_BETA, o) for o in ("plain", "tilde")]
    out["beta_m, beta_m_tilde S=3"] = lambda: (pkg.beta_m(three), pkg.beta_m_tilde(three))
    fm = pkg.build_finite_model(fixtures["pure3"], 40)
    disorder = pkg.sample_disorder(fm, seed=1)
    out["estimate_free_energy pure3"] = lambda: pkg.estimate_free_energy(fm, disorder, 0.5, 4096, 1)
    fm2 = pkg.build_finite_model(fixtures["two_species_quadratic"], 400)
    out["log_E_Z2_exact two_species_quadratic"] = lambda: pkg.log_E_Z2_exact(fm2, 0.5)
    fm3 = pkg.build_finite_model(three, 3200)
    out["log_E_Z2_exact chain S=3"] = lambda: pkg.log_E_Z2_exact(fm3, 0.2)
    half_beta_m = 0.5 * pkg.beta_m(fixtures["sk"])
    ladder = [(pkg.build_finite_model(fixtures["sk"], N), beta)
              for N in (50, 100, 200) for beta in (0.0, half_beta_m)]
    out["log_E_Z2_exact verify ladder sk"] = lambda: [pkg.log_E_Z2_exact(fm, b) for fm, b in ladder]
    return out


def bits(result):
    """A job's result in a form that compares equal across the two packages
    exactly when the results are bitwise equal: numbers and arrays as their
    bytes, dataclasses and enums by their contents."""
    if dataclasses.is_dataclass(result):
        return bits(vars(result))
    if isinstance(result, dict):
        return {key: bits(value) for key, value in result.items()}
    if isinstance(result, (list, tuple)):
        return [bits(value) for value in result]
    if isinstance(result, enum.Enum):
        return result.value
    if isinstance(result, (float, np.floating, np.ndarray)):
        return np.asarray(result).tobytes()
    return result


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--pairs", type=int, default=31)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    sides = [jobs(load(args.parent_src, "spinmix_parent")),
             jobs(load(args.change_src, "spinmix_change"))]
    times = {name: ([], []) for name in sides[0]}
    same = dict.fromkeys(times, True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the estimator's low-ESS warning
        for pair in range(args.pairs):
            for name, (parent, change) in times.items():
                results = [None, None]
                for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
                    start = time.perf_counter()
                    results[side] = sides[side][name]()
                    (parent, change)[side].append(time.perf_counter() - start)
                same[name] &= bits(results[0]) == bits(results[1])
    print(f"{args.pairs} pairs; medians in ms; ratio = change / parent")
    print(f"{'job':40} {'parent':>9} {'change':>9} {'ratio':>7} {'change wins':>12} {'same':>5}")
    for name, (parent, change) in times.items():
        a, b = statistics.median(parent), statistics.median(change)
        wins = sum(c < p for p, c in zip(parent, change)) / args.pairs
        print(f"{name:40} {1e3 * a:9.3f} {1e3 * b:9.3f} {b / a:7.3f} {wins:12.2f} "
              f"{'yes' if same[name] else 'no':>5}")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
