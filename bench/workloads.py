"""The four workloads: inputs generated from the seed, and the fixed job list.

A job is one CLI invocation (through ``spinmix.cli.main`` in this process,
writing into the run's scratch directory) or one library call.  Jobs run in
sequence with one caller, a closed loop.  The seed draws the random models,
the probe points of the checks and the Monte Carlo seeds; the program only
ever sees the generated model files, arguments and model objects.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import reference as ref
from checks import SQRT_HALF

__all__ = ["Job", "Workload", "WORKLOADS"]


@dataclass
class Job:
    name: str
    call: Callable[[Path], object]             # timed; writes into the directory
    read: Callable[[Path, object], dict]       # untimed; the output as plain data
    check: Callable[[dict], list[str]]         # names of the failed checks


@dataclass
class Workload:
    name: str
    why: str
    build: Callable[["Inputs"], list[Job]]
    # configurations drawn and evaluated by the estimators in one pass, and
    # the (N, p) they are drawn at; 0 where no Monte Carlo runs
    mc_samples: int = 0
    mc_shape: str = ""


@dataclass
class Inputs:
    seed: int
    spinmix: object
    root: Path            # checkout root (models/ lives here)
    scratch: Path         # model files written for this run
    rng: np.random.Generator = field(init=False)
    # every generated model document and Monte Carlo seed, in order
    drawn: list = field(init=False, default_factory=list)

    def __post_init__(self):
        self.rng = np.random.default_rng(self.seed)

    def mc_seed(self) -> int:
        seed = int(self.rng.integers(0, 2**31 - 1))
        self.drawn.append(seed)
        return seed

    def fixture(self, name: str) -> tuple[Path, dict]:
        path = self.root / "models" / f"{name}.json"
        return path, json.loads(path.read_text())

    def write_model(self, name: str, doc: dict) -> Path:
        self.drawn.append(doc)
        path = self.scratch / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return path


# ----------------------------------------------------------------------
# job kinds


def cli_job(inputs: Inputs, name: str, argv: list[str], suffixes: tuple[str, ...],
            check: Callable[[dict], list[str]]) -> Job:
    """``suffixes[0]`` is the file given to --out; the others sit beside it."""
    slug = name.replace(":", "_")

    def call(outdir: Path):
        stdout = io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            try:
                code = inputs.spinmix.cli.main([*argv, "--out", str(outdir / (slug + suffixes[0]))])
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
        return code, stdout.getvalue()

    def read(outdir: Path, raw) -> dict:
        code, stdout = raw
        files = {}
        for suffix in suffixes:
            path = outdir / (slug + suffix)
            files[suffix] = path.read_text() if path.exists() else None
        return {"code": code, "stdout": stdout, "files": files}

    return Job(name, call, read, check)


def lib_job(name: str, fn: Callable[[], object], check: Callable[[dict], list[str]],
            read: Callable[[object], dict] = lambda value: {"value": repr(float(value))}) -> Job:
    def call(outdir: Path):
        with redirect_stderr(io.StringIO()):  # estimator warnings, as for the CLI
            return fn()

    return Job(name, call, lambda outdir, value: read(value), check)


# ----------------------------------------------------------------------
# seeded random models, as model documents


def _doc(lam, terms: dict[tuple[int, ...], float]) -> dict:
    names = "abcdef"[: len(lam)]
    return {
        "species": [{"name": n, "lambda": float(l)} for n, l in zip(names, lam)],
        "terms": [{"degrees": {n: d for n, d in zip(names, degs) if d},
                   "delta_sq": float(c)} for degs, c in sorted(terms.items())],
    }


def _proportions(rng: np.random.Generator, S: int) -> np.ndarray:
    if S == 1:
        return np.array([1.0])
    w = rng.uniform(0.5, 1.5, size=S)
    lam = w / w.sum()
    lam[-1] = 1.0 - lam[:-1].sum()  # the model format requires a sum of exactly 1
    return lam


def random_model(rng: np.random.Generator, S: int, *, degrees=None, lam=None) -> dict:
    """Every species carries a pure term of each degree in ``degrees`` (by
    default one degree drawn from 2-4), so xi > 0 off the origin; neighbours
    are coupled by x_s x_{s+1} terms, and two species get one more mixed
    term of degree 3 or 4.  Proportions are drawn unless ``lam`` is given."""
    lam = _proportions(rng, S) if lam is None else lam
    terms: dict[tuple[int, ...], float] = {}

    def add(degs, lo=0.5, hi=1.5):
        terms[degs] = terms.get(degs, 0.0) + float(rng.uniform(lo, hi))

    for s in range(S):
        for d in degrees or (int(rng.integers(2, 5)),):
            degs = [0] * S
            degs[s] = d
            add(tuple(degs))
    for s in range(S - 1):
        degs = [0] * S
        degs[s] = degs[s + 1] = 1
        add(tuple(degs), 0.3, 1.0)
    if S == 2:
        add([(2, 1), (1, 2), (2, 2), (3, 1), (1, 3)][int(rng.integers(0, 5))], 0.3, 1.0)
    return _doc(lam, terms)


def _betas(lo: float, hi: float, step: float) -> list[float]:
    """The grid ``spinmix scan`` and ``band-probe`` build from these flags."""
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + i * step for i in range(n)]


# ----------------------------------------------------------------------
# asymptotic

# one row per scan, at the beta where 4-6 species leave L-BFGS unconverged
SCAN_BETA = 0.6
SCAN_SPECIES = (3, 4, 5, 6)
# With the three one-species fixtures, five random one-species criticals make
# the cluster of like jobs (about 0.3 s each) that the median job falls in;
# one two-species model keeps the pass short enough for two timed passes.
RANDOM_ONE_SPECIES = 5
RANDOM_TWO_SPECIES = 1
# The random models given to critical carry every degree 2-4 in every species.
# Their thresholds then sit inside the box (STRICTLY_LESS) for every seed and
# the cost of a verdict varies little between seeds; the origin-driven EQUAL
# case, which costs more, is the sk and two_species_quadratic fixtures.
VERDICT_DEGREES = (2, 3, 4)
PROBES = 64


def build_asymptotic(inp: Inputs) -> list[Job]:
    sm = inp.spinmix
    jobs: list[Job] = []
    fixtures = {
        "sk": {"beta_m": SQRT_HALF, "tol": checks.TOL_FIXTURE, "verdict": "EQUAL",
               "beta_c_is_beta_m": True},
        "pure3": {"beta_m": ref.pure_beta_m(3), "tol": checks.TOL_FIXTURE},
        "pure4": {"beta_m": ref.pure_beta_m(4), "tol": checks.TOL_FIXTURE},
        "two_species_quadratic": {"beta_m": 1.0 / math.sqrt(6.0), "tol": checks.TOL_FIXTURE,
                                  "verdict": "EQUAL"},
    }
    one_species = {"sk": SQRT_HALF, "pure3": ref.pure_beta_c(3), "pure4": ref.pure_beta_c(4)}
    one_species_tol = {name: checks.TOL_FIXTURE for name in one_species}
    paths = {}
    docs = {}
    for name in fixtures:
        paths[name], docs[name] = inp.fixture(name)
    for k in range(RANDOM_ONE_SPECIES + RANDOM_TWO_SPECIES):
        S = 1 if k < RANDOM_ONE_SPECIES else 2
        name = f"random{k}_s{S}"
        docs[name] = random_model(inp.rng, S, degrees=VERDICT_DEGREES)
        paths[name] = inp.write_model(name, docs[name])
        expect = {"random": True}
        if S == 1:
            expect.update(beta_m=ref.one_species_beta_m(docs[name]), tol=checks.TOL_RANDOM)
            one_species[name] = ref.one_species_beta_c(docs[name])
            one_species_tol[name] = checks.TOL_RANDOM
        fixtures[name] = expect

    for name, expect in fixtures.items():
        jobs.append(cli_job(inp, f"critical:{name}", ["critical", "--model", str(paths[name])],
                            (".json",),
                            lambda out, d=docs[name], e=expect: checks.critical(out, d, e)))
    for name, expected in one_species.items():
        model = sm.load_model(paths[name])
        jobs.append(lib_job(f"talagrand:{name}",
                            lambda m=model: sm.criticality.beta_c_talagrand(m),
                            lambda out, e=expected, t=one_species_tol[name]:
                                checks.talagrand(out, e, t)))
    for S in SCAN_SPECIES:
        name = f"random_s{S}"
        doc = random_model(inp.rng, S)
        path = inp.write_model(name, doc)
        probes = inp.rng.uniform(0.0, 0.98, size=(PROBES, S))
        jobs.append(cli_job(inp, f"scan:{name}",
                            ["scan", "--model", str(path), "--beta", repr(SCAN_BETA)],
                            (".csv",),
                            lambda out, d=doc, p=probes: checks.scan(out, d, [SCAN_BETA], p)))
    return jobs


ASYMPTOTIC = Workload(
    "asymptotic",
    "32-step bisection over maximize_f dominates critical; scans cost the 8.1M-point grid "
    "(S=3) and uncertified multi-start L-BFGS (S=4-6); no Monte Carlo or quadrature",
    build_asymptotic)


# ----------------------------------------------------------------------
# Monte Carlo

MC_N = 40
VERIFY_SAMPLES_SK = 10000
PROBE_SAMPLES = 2500
PROBE_GRID = (0.1, 0.4, 0.1)
# short passes, so that the median over a run's passes is a median of many;
# two probes to one verify put the median job inside the cluster of probe
# times rather than in the gap between the two kinds
VERIFY_JOBS = 1
PROBE_JOBS = 2
# mc_contraction calls the estimator verify spends its p=3 contraction time
# in, not verify itself: on pure p=3 at N=40, verify's band-free-energy check
# (|estimate - prediction| <= 0.05 at r=0.2) fails for some Monte Carlo
# seeds, since the band estimator's spread at p=3 is not within that fixed
# bound, and a run's correctness would then depend on its seed.
FREE_ENERGY_SAMPLES = 4096
FREE_ENERGY_JOBS = 2


def _verify_samples(n: int) -> int:
    """Configurations run_verify draws: two free-energy estimates and one
    level-set estimate of n each, and a band estimate of max(n // 4, 100)."""
    return 3 * n + max(n // 4, 100)


def build_mc_sampling(inp: Inputs) -> list[Job]:
    inp.spinmix.load_model(inp.fixture("sk")[0])  # the model verify and band-probe default to
    jobs = []
    lo, hi, step = PROBE_GRID
    betas = _betas(lo, hi, step)
    for k in range(max(VERIFY_JOBS, PROBE_JOBS)):
        if k < VERIFY_JOBS:
            jobs.append(cli_job(inp, f"verify:sk:{k}",
                                ["verify", "--seed", str(inp.mc_seed()), "--N", str(MC_N),
                                 "--samples", str(VERIFY_SAMPLES_SK)],
                                (".json", ".csv"), checks.verify))
        if k < PROBE_JOBS:
            jobs.append(cli_job(inp, f"band-probe:sk:{k}",
                                ["band-probe", "--seed", str(inp.mc_seed()), "--N", str(MC_N),
                                 "--samples", str(PROBE_SAMPLES), "--beta-min", repr(lo),
                                 "--beta-max", repr(hi), "--beta-step", repr(step)],
                                (".csv",), lambda out: checks.band_probe(out, betas)))
    return jobs


MC_SAMPLING = Workload(
    "mc_sampling",
    "SK (p=2) at N=40: contraction is negligible, so time goes to per-configuration Philox "
    "generators, Python-level sampling and the 2000-draw covariance loop",
    build_mc_sampling,
    mc_samples=(VERIFY_JOBS * _verify_samples(VERIFY_SAMPLES_SK)
                + PROBE_JOBS * PROBE_SAMPLES * len(_betas(*PROBE_GRID))),
    mc_shape=f"N={MC_N} p=2")


def build_mc_contraction(inp: Inputs) -> list[Job]:
    sm = inp.spinmix
    fm = sm.build_finite_model(sm.load_model(inp.fixture("pure3")[0]), MC_N)
    disorder = sm.sample_disorder(fm, seed=inp.mc_seed())
    beta = 0.5 * ref.pure_beta_m(3)
    jobs = []
    for k in range(FREE_ENERGY_JOBS):
        seed = inp.mc_seed()
        jobs.append(lib_job(
            f"free_energy:pure3:{k}",
            lambda s=seed: sm.montecarlo.estimate_free_energy(
                fm, disorder, beta, FREE_ENERGY_SAMPLES, seed=s),
            lambda out, s=seed: checks.estimate(out, FREE_ENERGY_SAMPLES, s),
            read=lambda res: res.to_dict()))
    return jobs


MC_CONTRACTION = Workload(
    "mc_contraction",
    "estimate_free_energy on pure p=3 at N=40: the einsum contraction dominates; the same "
    "montecarlo layer as mc_sampling in the opposite proportion",
    build_mc_contraction,
    mc_samples=FREE_ENERGY_JOBS * FREE_ENERGY_SAMPLES,
    mc_shape=f"N={MC_N} p=3")


# ----------------------------------------------------------------------
# second moment

SM_LADDER = (100, 400, 1600, 3200)
# The three-species model has equal proportions: the node count the
# quadrature needs is set by the per-species sizes N * lam_s, so with equal
# proportions every seed needs 129 nodes per axis up to N = 1600 and 257
# (17M points, about 1.1 GB peak) at N = 3200.  The next rung, 513 nodes,
# holds several 1.08 GB arrays at once and would exhaust a 7 GB machine
# rather than measure it, so a three-species call that asks for more than
# 257 nodes is stopped before it allocates and counted as failed.
S3_PROPORTIONS = np.full(3, 1.0 / 3.0)
S3_NODE_CAP = 257


class NodeCapExceeded(RuntimeError):
    pass


def _capped_quadrature(sm, fm, beta: float) -> float:
    quad = sm.quadrature
    roots = quad.roots_legendre

    def capped(n):
        if n > S3_NODE_CAP:
            raise NodeCapExceeded(f"{n} nodes per axis for three species")
        return roots(n)

    quad.roots_legendre = capped
    try:
        return quad.log_E_Z2_exact(fm, beta)
    finally:
        quad.roots_legendre = roots


def build_second_moment(inp: Inputs) -> list[Job]:
    sm = inp.spinmix
    models = []
    for name, beta_m in (("sk", SQRT_HALF), ("two_species_quadratic", 1.0 / math.sqrt(6.0))):
        path, doc = inp.fixture(name)
        models.append((name, sm.load_model(path), doc, beta_m, SM_LADDER))
    doc = random_model(inp.rng, 3, lam=S3_PROPORTIONS)
    models.append(("random_s3", sm.load_model(inp.write_model("random_s3", doc)), doc,
                   ref.beta_m_estimate(doc), SM_LADDER))
    jobs = []
    for name, model, doc, beta_m, ladder in models:
        xi1 = float(ref.xi(doc, np.ones(len(doc["species"]))))
        points = [(sm.build_finite_model(model, N), N, tag, beta)
                  for N in ladder for tag, beta in (("beta0", 0.0), ("half_beta_m", 0.5 * beta_m))]
        if model.n_species < 3:
            # milliseconds a call: one job computes the model's whole ladder
            jobs.append(lib_job(
                f"second_moment:{name}:ladder",
                lambda pts=points: [sm.quadrature.log_E_Z2_exact(fm, b) for fm, *_, b in pts],
                lambda out, pts=points, x=xi1: [
                    f"N{N}:{tag}:{failed}" for (_, N, tag, b), v in zip(pts, out["values"])
                    for failed in checks.second_moment({"value": v}, b, x)],
                read=lambda values: {"values": [repr(float(v)) for v in values]}))
            continue
        for fm, N, tag, beta in points:
            jobs.append(lib_job(f"second_moment:{name}:N{N}:{tag}",
                                lambda fm=fm, b=beta: _capped_quadrature(sm, fm, b),
                                lambda out, b=beta, x=xi1: checks.second_moment(out, b, x)))
    return jobs


SECOND_MOMENT = Workload(
    "second_moment",
    "exact quadrature over an N ladder for 1, 2 and 3 species, up to 257 nodes per axis and "
    "about 1.1 GB for three species; it costs milliseconds elsewhere",
    build_second_moment)


# ----------------------------------------------------------------------

WORKLOADS = {w.name: w for w in (ASYMPTOTIC, MC_SAMPLING, MC_CONTRACTION, SECOND_MOMENT)}
