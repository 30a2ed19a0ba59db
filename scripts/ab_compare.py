#!/usr/bin/env python3
"""Time two checkouts of the package against each other in one process.

    python scripts/ab_compare.py PARENT_SRC CHANGE_SRC [--pairs N] [--jobs SUBSTRING ...]

PARENT_SRC and CHANGE_SRC are ``src`` directories, each holding a
``spinmix`` package.  Both are loaded into one interpreter under names of
their own, so a pair of runs shares the process, its caches and its host
load, and the two runs of a pair are milliseconds apart.  Each pair runs
every job once on each side, and the side that runs first alternates from
pair to pair.  ``--jobs`` keeps only the jobs whose name contains one of
the substrings given.  The jobs, fixed:

  verdict on the four fixtures under models/;
  maximize_f, plain and truncated, at beta 0.8 on seeded 3-6 species models;
  the pair of maximize_f calls a scan row made, plain and truncated at beta
  0.6, and beta_m and beta_m_tilde, on the seeded three-species model;
  the band recentering, tilde_transform at r = 0.4, on the seeded 3-6
  species models, whose result is the recentred mixture's exponents and
  coefficients;
  the command line, ``spinmix.cli.main`` writing into a temporary directory:
  ``scan --beta 0.6`` on the seeded 3-6 species models, and ``critical`` on
  two_species_quadratic, whose searches a package may batch;
  estimate_free_energy on pure3 at N = 40 with 4096 samples, where the Monte
  Carlo loop is bound by its matrix products, and band_probe on sk at N = 40
  with 2500 samples at beta 0.1, 0.2, 0.3 and 0.4, where it is bound by its
  draws;
  run_verify, the battery ``spinmix verify`` runs, on sk and on
  two_species_quadratic at N = 40 with 10,000 samples;
  log_E_Z2_exact on two_species_quadratic at N = 400 and on the seeded
  three-species model, a chain, at N = 3200;
  the six log_E_Z2_exact calls of verify's second-moment checks on sk: N = 50,
  100 and 200, each at beta 0 and at half of beta_m;
  the N ladder of the benchmark's second-moment workload on
  two_species_quadratic: log_E_Z2_exact at N = 100, 400, 1600 and 3200, each
  at beta 0 and at half of beta_m.

Before the timed pairs, each job runs once more on each side, untimed, under
tracemalloc, for the peak of the memory it allocates (numpy's arrays
included), the parent's side first.  That first run is a cold one: a
package that holds its Gauss-Legendre rules and xi grids for the process
runs every log_E_Z2_exact job warm in every timed pair.  What the two
packages share is allocated once, in the run that first needs it, so it
is made before any traced run, and neither side is billed for it: the
modules a package may import lazily, scipy.special and the scipy.linalg
that scipy imports on a process's first Gauss-Legendre rule, are imported
and one such rule is computed, and each side's command line prints its
help, which builds its argument parser and with it argparse's first
instances of its classes.

The header names the BLAS thread variables and each side's helper
decision, under "spare cores": 1 where its Monte Carlo loop starts a helper
thread beside the calling one on an estimate of more than one chunk, 0
where it does not (as in a package without that rule), so that every
comparison states which path it timed.  For each job it prints the median
wall time of each side, their ratio (change over parent), the share of
pairs in which the change was faster, each side's peak traced allocation
in MB, and whether the two sides' results were bitwise equal in every
pair.  The peak is of one untimed run on one thread, after a full garbage
collection: with the side's helper switched off (``no_helper``; in a
package from before that switch, its spare-core slot held).  Threads
overlap their intermediates by schedule: a helper's moved the traced peak
of one package from 1.12 to 1.26 MB from run to run.

Time a change to the helper itself with ``bench/run.py`` pairs, one fresh
process per run, not here.  In one process the helper is misread: on
estimate_free_energy on pure3 (N = 40, 4096 samples, BLAS pinned, 2 vCPUs)
it read 15.3 against 14.5 ms with the helper switched off in alternate
rounds, faster in 8 of 60 rounds, while ``bench/run.py``'s mc_contraction
read 0.0231 with it against 0.0331 reference s without; the benchmark's own
jobs, run in one process in four blocks of 80, read 14.93 ms with the
helper, 14.20 without, then 11.01 with it and 14.93 without, as the second
vCPU delivered only later in the process.
"""

import argparse
import contextlib
import dataclasses
import enum
import gc
import importlib
import importlib.util
import io
import json
import os
import statistics
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
# imported here, before any traced run, so that neither side is billed for them
import scipy.linalg  # noqa: F401
import scipy.special  # noqa: F401

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"
FIXTURES = ("sk", "pure3", "pure4", "two_species_quadratic")
SEARCH_BETA = 0.8
SEARCH_SPECIES = range(3, 7)
SCAN_BETA = 0.6
PROBE_BETAS = (0.1, 0.2, 0.3, 0.4)
RECENTRE_R = 0.4
VERIFY_FIXTURES = ("sk", "two_species_quadratic")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# the seeded model generator, loaded from its file beside this one
_spec = importlib.util.spec_from_file_location(
    "output_digest", Path(__file__).resolve().with_name("output_digest.py"))
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def load(src: str, name: str):
    """The package under ``src/spinmix``, imported as ``name``, after its
    command line has printed its help."""
    package = Path(src) / "spinmix"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    cli = importlib.import_module(f"{name}.cli")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
        cli.main(["--help"])
    return module


def random_model(seed: int, S: int) -> str:
    """``output_digest``'s seeded model document, as JSON: per species one
    pure term of degree 2-4, neighbours coupled by x_s x_{s+1}, proportions
    drawn."""
    return json.dumps(output_digest.random_model(seed, S))


def command(pkg, argv: list[str], out: Path):
    """A call of the package's command line that writes to ``out``; its result
    is the exit code and the file written."""
    def call():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = pkg.cli.main([*argv, "--out", str(out)])
        return code, out.read_text()

    return call


def jobs(pkg, tmp: Path) -> dict:
    """Name -> a call of no arguments, every input built beforehand; command
    line jobs read and write files in ``tmp``."""
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
    for S in SEARCH_SPECIES:
        mix = pkg.loads_model(random_model(S, S)).mixture

        def recentre(mix=mix):
            recentred = mix.tilde_transform(RECENTRE_R)
            return recentred.exponents, recentred.coeffs

        out[f"tilde_transform S={S}"] = recentre
    for S in SEARCH_SPECIES:
        path = tmp / f"random_s{S}.json"
        path.write_text(random_model(S, S))
        out[f"cli scan S={S}"] = command(pkg, ["scan", "--model", str(path), "--beta",
                                               repr(SCAN_BETA)], tmp / f"scan_s{S}.csv")
    out["cli critical two_species_quadratic"] = command(
        pkg, ["critical", "--model", str(MODELS_DIR / "two_species_quadratic.json")],
        tmp / "critical.json")
    fm = pkg.build_finite_model(fixtures["pure3"], 40)
    disorder = pkg.sample_disorder(fm, seed=1)
    out["estimate_free_energy pure3"] = lambda: pkg.estimate_free_energy(fm, disorder, 0.5, 4096, 1)
    fm_sk = pkg.build_finite_model(fixtures["sk"], 40)
    disorder_sk = pkg.sample_disorder(fm_sk, seed=1)
    out["band_probe sk"] = lambda: pkg.montecarlo.band_probe(
        disorder_sk, 1, pkg.rng.PROBE_CENTER, PROBE_BETAS, 2500)
    for name in VERIFY_FIXTURES:
        out[f"verify {name}"] = (lambda m=fixtures[name]: pkg.verify.run_verify(
            m, N=40, n_samples=10_000, seed=1))
    fm2 = pkg.build_finite_model(fixtures["two_species_quadratic"], 400)
    out["log_E_Z2_exact two_species_quadratic"] = lambda: pkg.log_E_Z2_exact(fm2, 0.5)
    fm3 = pkg.build_finite_model(three, 3200)
    out["log_E_Z2_exact chain S=3"] = lambda: pkg.log_E_Z2_exact(fm3, 0.2)
    for job, name, sizes in (("verify ladder sk", "sk", (50, 100, 200)),
                             ("N ladder two_species_quadratic", "two_species_quadratic",
                              (100, 400, 1600, 3200))):
        half_beta_m = 0.5 * pkg.beta_m(fixtures[name])
        ladder = [(pkg.build_finite_model(fixtures[name], N), beta)
                  for N in sizes for beta in (0.0, half_beta_m)]
        out[f"log_E_Z2_exact {job}"] = (
            lambda ladder=ladder: [pkg.log_E_Z2_exact(fm, b) for fm, b in ladder])
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


def helper_starts(pkg, cpus: int) -> bool:
    """Whether the package's Monte Carlo loop starts a helper thread on an
    estimate of several chunks: its ``_HELPER``, or, in a package from before
    that switch, whether it has a spare core (none without that rule)."""
    mc = pkg.montecarlo
    if hasattr(mc, "_HELPER"):
        return mc._HELPER
    return hasattr(mc, "_spare_cores") and mc._spare_cores(os.environ, cpus) > 0


@contextlib.contextmanager
def no_helper(pkg):
    """Keep the package's Monte Carlo loop on one thread while the block runs:
    its ``_HELPER`` set to false, or, in a package from before that switch,
    its spare-core slot ``_SPARE`` held if it is free."""
    mc = pkg.montecarlo
    slot, helper = getattr(mc, "_SPARE", None), getattr(mc, "_HELPER", False)
    taken = slot is not None and slot.acquire(blocking=False)
    if helper:
        mc._HELPER = False
    try:
        yield
    finally:
        if taken:
            slot.release()
        if helper:
            mc._HELPER = True


def peak_mb(job, pkg) -> float:
    """The peak memory traced during one run of a job, in MB, with the
    package's Monte Carlo helper switched off (``no_helper``): the run is
    then on one thread, and no schedule moves its peak.  A full garbage
    collection runs first: without it, when the garbage of earlier runs was
    collected moved verify's peak over 0.022 MB (1.643 to 1.666 MB on
    two_species_quadratic)."""
    gc.collect()
    with no_helper(pkg):
        tracemalloc.start()
        try:
            job()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--pairs", type=int, default=31)
    ap.add_argument("--jobs", nargs="+", metavar="SUBSTRING",
                    help="run only the jobs whose name contains one of these")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    scipy.special.roots_legendre(3)  # scipy's first rule allocates state of its own
    times, same = {}, {}
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the estimator's low-ESS warning
        packages, sides = [], []
        for src, name in ((args.parent_src, "spinmix_parent"), (args.change_src, "spinmix_change")):
            (Path(tmp) / name).mkdir()
            packages.append(load(src, name))
            sides.append(jobs(packages[-1], Path(tmp) / name))
        times = {name: ([], []) for name in sides[0]
                 if args.jobs is None or any(part in name for part in args.jobs)}
        if not times:
            ap.error(f"no job name contains any of {args.jobs}")
        same = dict.fromkeys(times, True)
        peaks = {name: [peak_mb(side[name], pkg) for side, pkg in zip(sides, packages)]
                 for name in times}
        for pair in range(args.pairs):
            for name, (parent, change) in times.items():
                results = [None, None]
                for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
                    start = time.perf_counter()
                    results[side] = sides[side][name]()
                    (parent, change)[side].append(time.perf_counter() - start)
                same[name] &= bits(results[0]) == bits(results[1])
    cpus = len(os.sched_getaffinity(0))
    helper = [int(helper_starts(side, cpus)) for side in packages]
    print(" ".join(f"{var}={os.environ.get(var, 'unset')}" for var in BLAS_THREAD_VARS)
          + f"; {cpus} CPUs; spare cores: parent {helper[0]}, change {helper[1]}")
    print(f"{args.pairs} pairs; medians in ms; ratio = change / parent; "
          "peak traced MB of one untimed run on one thread")
    print(f"{'job':46} {'parent':>9} {'change':>9} {'ratio':>7} {'change wins':>12} "
          f"{'parent MB':>10} {'change MB':>10} {'same':>5}")
    for name, (parent, change) in times.items():
        a, b = statistics.median(parent), statistics.median(change)
        wins = sum(c < p for p, c in zip(parent, change)) / args.pairs
        print(f"{name:46} {1e3 * a:9.3f} {1e3 * b:9.3f} {b / a:7.3f} {wins:12.2f} "
              f"{peaks[name][0]:10.3f} {peaks[name][1]:10.3f} {'yes' if same[name] else 'no':>5}")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
