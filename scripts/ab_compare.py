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
  estimate_free_energy on pure3 at N = 40 with 4096 samples;
  log_E_Z2_exact on two_species_quadratic at N = 400.

For each job it prints the median wall time of each side, their ratio
(change over parent) and the share of pairs in which the change was faster.
"""

import argparse
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
    for S in SEARCH_SPECIES:
        model = pkg.loads_model(random_model(S, S))
        for objective in ("plain", "tilde"):
            out[f"maximize_f {objective} S={S}"] = (
                lambda m=model, o=objective: pkg.maximize_f(m, SEARCH_BETA, o))
    fm = pkg.build_finite_model(fixtures["pure3"], 40)
    disorder = pkg.sample_disorder(fm, seed=1)
    out["estimate_free_energy pure3"] = lambda: pkg.estimate_free_energy(fm, disorder, 0.5, 4096, 1)
    fm2 = pkg.build_finite_model(fixtures["two_species_quadratic"], 400)
    out["log_E_Z2_exact two_species_quadratic"] = lambda: pkg.log_E_Z2_exact(fm2, 0.5)
    return out


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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the estimator's low-ESS warning
        for pair in range(args.pairs):
            for name, (parent, change) in times.items():
                for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
                    start = time.perf_counter()
                    sides[side][name]()
                    (parent, change)[side].append(time.perf_counter() - start)
    print(f"{args.pairs} pairs; medians in ms; ratio = change / parent")
    print(f"{'job':40} {'parent':>9} {'change':>9} {'ratio':>7} {'change wins':>12}")
    for name, (parent, change) in times.items():
        a, b = statistics.median(parent), statistics.median(change)
        wins = sum(c < p for p, c in zip(parent, change)) / args.pairs
        print(f"{name:40} {1e3 * a:9.3f} {1e3 * b:9.3f} {b / a:7.3f} {wins:12.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
