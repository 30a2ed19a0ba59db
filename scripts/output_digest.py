#!/usr/bin/env python3
"""Write the deterministic outputs of the command line and print one
``sha256  name`` line per file, sorted by name.

The outputs are ``critical`` JSON and ``scan`` CSV (beta 0.1 to 1.2) on the
four fixtures under models/ and on seeded random models of one to six
species generated here, and ``verify`` JSON and CSV and ``band-probe`` CSV
on sk, pure3 and two_species_quadratic at two seeds, at N = 20 with 2500
samples.  ``--quick`` writes only the fixtures' ``critical`` and
``scan`` files, the same bytes under the same names.

Two listings are equal exactly when every output is byte-identical, so a
change meant to keep the numbers is checked with one diff against the
parent commit's package:

    PYTHONPATH=src python scripts/output_digest.py --out /tmp/new > new.txt
    PYTHONPATH=../parent/src python scripts/output_digest.py --out /tmp/old > old.txt
    diff old.txt new.txt

Where the listings differ, ``--compare OLD NEW`` sizes the change: for each
file of the two output directories whose bytes differ it prints the largest
absolute and relative difference of the numbers in it, or says that the
text around the numbers differs, or that the file is on one side only:

    python scripts/output_digest.py --compare /tmp/old /tmp/new

The script uses nothing but ``spinmix.cli.main``, so it runs against any
checkout of the package.
"""

import argparse
import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import numpy as np

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"
FIXTURES = ("sk", "pure3", "pure4", "two_species_quadratic")
SCAN = ["--beta-min", "0.1", "--beta-max", "1.2", "--beta-step", "0.1"]
RANDOM_SPECIES = range(1, 7)
RANDOM_SEEDS = (0, 1)
MONTE_CARLO_MODELS = ("sk", "pure3", "two_species_quadratic")
MONTE_CARLO_SEEDS = (3, 4)
# more samples than one chunk of 1024, so that with BLAS pinned below the
# CPU count the estimators' chunk loop runs on a helper thread too
MONTE_CARLO = ["--N", "20", "--samples", "2500"]
PROBE_BETAS = ["--beta-min", "0.1", "--beta-max", "0.5", "--beta-step", "0.2"]
# a decimal number that is not part of a name or of a longer token
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def random_model(seed: int, S: int) -> dict:
    """A model document: per species one pure term of degree 2-4, neighbours
    coupled by x_s x_{s+1}, proportions drawn (they sum to exactly 1)."""
    rng = np.random.default_rng(seed)
    names = "abcdef"[:S]
    lam = np.array([1.0]) if S == 1 else rng.uniform(0.5, 1.5, size=S)
    lam /= lam.sum()
    lam[-1] = 1.0 - lam[:-1].sum()
    terms = [({names[s]: int(rng.integers(2, 5))}, rng.uniform(0.5, 1.5)) for s in range(S)]
    terms += [({names[s]: 1, names[s + 1]: 1}, rng.uniform(0.3, 1.0)) for s in range(S - 1)]
    return {"species": [{"name": n, "lambda": float(l)} for n, l in zip(names, lam)],
            "terms": [{"degrees": d, "delta_sq": float(c)} for d, c in terms]}


def _run(argv: list[str], *outputs: Path) -> list[Path]:
    """One command, its console output discarded; returns its output files."""
    from spinmix.cli import main as cli_main  # --compare runs without the package

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    # verify exits 2 when a check fails, which a small sample may well do
    if code not in (0, 2):
        raise SystemExit(f"spinmix {' '.join(argv)} exited {code}")
    return list(outputs)


def write_outputs(out: Path, quick: bool) -> list[Path]:
    """Run every command into out; returns the output files written."""
    models = {name: MODELS_DIR / f"{name}.json" for name in FIXTURES}
    if not quick:
        (out / "models").mkdir(parents=True, exist_ok=True)
        for S in RANDOM_SPECIES:
            for seed in RANDOM_SEEDS:
                path = out / "models" / f"random{S}_{seed}.json"
                path.write_text(json.dumps(random_model(seed, S), indent=2) + "\n")
                models[path.stem] = path
    written = []
    for name, path in models.items():
        critical, scan = out / f"critical_{name}.json", out / f"scan_{name}.csv"
        written += _run(["critical", "--model", str(path), "--out", str(critical)], critical)
        written += _run(["scan", "--model", str(path), *SCAN, "--out", str(scan)], scan)
    if quick:
        return written
    for name in MONTE_CARLO_MODELS:
        for seed in MONTE_CARLO_SEEDS:
            flags = ["--model", str(models[name]), "--seed", str(seed), *MONTE_CARLO]
            verify = out / f"verify_{name}_{seed}.json"
            probe = out / f"band-probe_{name}_{seed}.csv"
            written += _run(["verify", *flags, "--out", str(verify)],
                            verify, verify.with_suffix(".csv"))
            written += _run(["band-probe", *flags, *PROBE_BETAS, "--out", str(probe)], probe)
    return written


def listing(paths: list[Path]) -> list[str]:
    """``sha256  name`` for every file in paths, sorted by name."""
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}"
            for path in sorted(paths)]


def compare(old: Path, new: Path) -> list[str]:
    """One line per file name of either directory whose bytes differ: the
    largest absolute and relative difference of its numbers, and how many of
    them differ; then a count of the files that are identical."""
    names = sorted({p.name for d in (old, new) for p in d.iterdir() if p.is_file()})
    lines = []
    for name in names:
        a, b = old / name, new / name
        if not (a.is_file() and b.is_file()):
            lines.append(f"{name}  only in {old if a.is_file() else new}")
            continue
        texts = a.read_text(), b.read_text()
        if texts[0] == texts[1]:
            continue
        if NUMBER.sub("#", texts[0]) != NUMBER.sub("#", texts[1]):
            lines.append(f"{name}  text differs beyond its numbers")
            continue
        x, y = (np.array([float(v) for v in NUMBER.findall(t)]) for t in texts)
        diff, scale = np.abs(x - y), np.maximum(np.abs(x), np.abs(y))
        rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0.0)
        lines.append(f"{name}  max abs {diff.max():.3e}  max rel {rel.max():.3e}  "
                     f"{int((diff > 0.0).sum())} of {len(x)} numbers differ")
    lines.append(f"{len(names) - len(lines)} of {len(names)} files identical")
    return lines


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    task = ap.add_mutually_exclusive_group(required=True)
    task.add_argument("--out", help="directory for the outputs")
    task.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), type=Path,
                      help="compare the numbers of two output directories")
    ap.add_argument("--quick", action="store_true",
                    help="only critical and scan on the four fixtures")
    args = ap.parse_args(argv)
    if args.compare:
        print("\n".join(compare(*args.compare)))
        return 0
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    print("\n".join(listing(write_outputs(out, args.quick))))
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
