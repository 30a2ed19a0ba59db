#!/usr/bin/env python3
"""Record the results of every global search on a fixed model set, and
compare two such records: the gate of a change to the landscape search.

    PYTHONPATH=src python scripts/search_gate.py --out /tmp/new
    PYTHONPATH=../parent/src python scripts/search_gate.py --out /tmp/old
    python scripts/search_gate.py --compare /tmp/old /tmp/new

The models are the four fixtures under models/ and the benchmark's seeded
random models, ``bench/workloads.random_model(default_rng(seed), S)`` for
S = 1-6 and seeds 0-14, named ``random<S>_<seed>``: 94 in all.  ``bench/`` is
imported as it is and nothing is written there.

``--out DIR`` writes ``DIR/<model>.json`` for each model: the ``verdict``
(the verdict, ``beta_m``, ``beta_m_tilde``, the certificate's value and
convergence, the ratio search's convergence) and ``maximize_each(model,
beta, ("plain", "tilde"))`` at beta 0.3, 0.6, 0.9 and 1.2 (each maximum's
value, argmax and convergence).  Floats are written as Python writes them,
so they read back exactly.

``--compare OLD NEW`` prints the models whose verdict changed, the largest
|delta beta_m| and |delta beta_m_tilde|, the worst drop of a maximum or of
the certificate's value, (old - new) / max(1, |old|), and every search that
converged in OLD and not in NEW or the reverse, each with the model it
occurs on.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ("sk", "pure3", "pure4", "two_species_quadratic")
SPECIES = range(1, 7)
SEEDS = range(15)
BETAS = (0.3, 0.6, 0.9, 1.2)


def _random_models() -> dict:
    """The benchmark's seeded model documents by name, from bench/workloads.py,
    imported without writing its bytecode under bench/."""
    sys.path.insert(0, str(ROOT / "bench"))
    sys.dont_write_bytecode, writes = True, sys.dont_write_bytecode
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = writes
        sys.path.remove(str(ROOT / "bench"))
    return {f"random{S}_{seed}": workloads.random_model(np.random.default_rng(seed), S)
            for S in SPECIES for seed in SEEDS}


def models() -> dict:
    """Every model of the set by name, as ``ModelSpec``."""
    from spinmix import load_model, loads_model

    found = {name: load_model(ROOT / "models" / f"{name}.json") for name in FIXTURES}
    found.update((name, loads_model(json.dumps(doc)))
                 for name, doc in _random_models().items())
    return found


def record(model) -> dict:
    """The verdict's thresholds and searches, and the maxima of f and its
    truncated twin at each beta, as plain data."""
    from spinmix import landscape, verdict

    report = verdict(model)
    w = report.witnesses
    searches = {"certificate": {"value": w["value_certificate"],
                                "converged": w["converged_certificate"]},
                "ratio": {"converged": w["converged_ratio"]}}
    for beta in BETAS:
        for objective, res in zip(("plain", "tilde"),
                                  landscape.maximize_each(model, beta, ("plain", "tilde"))):
            searches[f"{objective} {beta}"] = {"value": res.value,
                                              "argmax": res.argmax.tolist(),
                                              "converged": res.converged}
    return {"verdict": report.verdict.value, "beta_m": report.beta_m,
            "beta_m_tilde": report.beta_m_tilde, "searches": searches}


def compare(old: Path, new: Path) -> list[str]:
    """The lines `--compare` prints for two directories written by `--out`."""
    names = sorted({p.stem for d in (old, new) for p in d.glob("*.json")})
    both = [n for n in names if (old / f"{n}.json").is_file() and (new / f"{n}.json").is_file()]
    lines = [f"{len(both)} models in both, {len(names) - len(both)} in one only"]
    delta = {"beta_m": (0.0, "-"), "beta_m_tilde": (0.0, "-")}
    drop, changes = (-np.inf, "-"), []
    for name in both:
        a, b = (json.loads((d / f"{name}.json").read_text()) for d in (old, new))
        if a["verdict"] != b["verdict"]:
            changes.append(f"verdict {name}: {a['verdict']} -> {b['verdict']}")
        for key in delta:
            if abs(b[key] - a[key]) > delta[key][0]:
                delta[key] = (abs(b[key] - a[key]), name)
        for search, s in a["searches"].items():
            t = b["searches"][search]
            fall = (s["value"] - t["value"]) / max(1.0, abs(s["value"])) if "value" in s else None
            if fall is not None and fall > drop[0]:
                drop = (fall, f"{name} {search}")
            if s["converged"] != t["converged"]:
                changes.append(f"{'lost' if s['converged'] else 'gained'} convergence "
                               f"{name} {search}")
    verdicts = sum(line.startswith("verdict") for line in changes)
    lines.append(f"verdict changes: {verdicts}")
    lines += [f"largest |delta {key}|: {value:.3e} ({where})"
              for key, (value, where) in delta.items()]
    lines.append(f"worst drop of a maximum or the certificate, relative: {drop[0]:.3e} "
                 f"({drop[1]})")
    lines.append(f"convergence changes: {len(changes) - verdicts}")
    return lines + changes


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    task = ap.add_mutually_exclusive_group(required=True)
    task.add_argument("--out", type=Path, help="directory for one JSON file per model")
    task.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), type=Path,
                      help="compare two directories written by --out")
    args = ap.parse_args(argv)
    if args.compare:
        print("\n".join(compare(*args.compare)))
        return 0
    args.out.mkdir(parents=True, exist_ok=True)
    for name, model in models().items():
        (args.out / f"{name}.json").write_text(json.dumps(record(model), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
