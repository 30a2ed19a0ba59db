"""Self-verification battery for the finite-N Monte Carlo engine.

Runs deterministic and statistical checks of the model identities at desk
scale: the two-route covariance certification, the empirical disorder
covariance, free-energy and level-set estimates against their asymptotic
values, the band free energy against its conditional-mean prediction
(``montecarlo.band_probe`` at one beta), and the exact second-moment
quadrature (zero at beta = 0, residual shrinking with N).  The three
estimates meet their predictions in one comparison, which writes both the
check and its table row.  Everything is driven by a single seed through
counter-based streams, so repeated runs produce byte-identical output.

The two covariance checks use neither beta nor the drawn disorder, so one
worker thread (never more) runs them while the calling thread runs the
rest, and numpy's normal generation and BLAS products release the GIL for
the overlap.  Each check reads only its own streams (``SPOT_CHECKS``,
``EMPIRICAL_COVARIANCE``, ``COVARIANCE_DISORDER``) and the results are
joined in the serial order, so no output bit depends on the schedule.  The
quadrature and every estimator that can warn stay on the calling thread,
which keeps the warnings' order and leaves allocation tracing
(``tracemalloc``) to one thread.  The worker holds the spare-core slot of
``montecarlo`` while its checks run, when the slot is free, and the
estimates start only once it has tried to take it, so the estimates beside
it contract on the calling thread alone and the battery never runs three
threads on two cores.  Once the worker is done, and
outside ``verify``, an estimate's contractions may run on the helper thread
of ``montecarlo._hamiltonians``, which calls no public function.

The worker starts whatever the spare cores, unlike that helper, which
splits one estimate's chunks into products that OpenBLAS spreads over
every CPU by default.  The worker's checks are whole stages that share
nothing with the rest until the join.  In ``scripts/ab_compare.py`` (2
vCPUs, N = 40, 10,000 samples, two runs of 31 pairs against a serial copy,
BLAS thread variables unset), two_species_quadratic took 93.5 and 91.4 ms
with the worker against 110.3 and 112.7 ms serial (the worker faster in 25
and 26 of 31 pairs), and SK 61.0 and 56.9 ms against 57.1 and 52.5 ms
(faster in 9 and 4): the overlap saves 17-21 ms where the estimates are
long and costs SK about 4 ms.  The slot is held because an estimate's
helper beside the worker makes three threads on two cores: with
OPENBLAS_NUM_THREADS=1, a copy whose worker leaves the slot free took
42.7 and 42.0 ms on SK against 38.5 and 37.8 ms held, and 91.2 and 87.8
ms on two_species_quadratic against 78.2 and 74.8 ms.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import criticality, montecarlo, quadrature
from .mixture import Mixture, SpeciesSet
from .model import ModelSpec
from .rng import COVARIANCE_DISORDER, EMPIRICAL_COVARIANCE, SPOT_CHECKS, VERIFY_CENTER, stream

__all__ = ["CheckResult", "VerifyRun", "run_verify"]

_SPOT_INSTANCES = 10      # random instances of the two-route covariance check
_COVARIANCE_DRAWS = 2000  # disorder draws of the empirical covariance check
_COVARIANCE_N = 24        # the size at which they are drawn


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    observed: float
    bound: float
    detail: str = ""

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "observed", float(self.observed))
        object.__setattr__(self, "bound", float(self.bound))


@dataclass(frozen=True)
class VerifyRun:
    checks: tuple[CheckResult, ...]
    table: tuple[tuple, ...]  # rows: beta, N, estimate, stderr, prediction
    records: tuple[dict, ...] = ()  # estimator records with full run context

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _random_instance(model_rng: np.random.Generator):
    """A random small two-species mixture with a finite-N realization."""
    n_species = int(model_rng.integers(1, 3))
    names = ("a", "b")[:n_species]
    if n_species == 1:
        lam = np.array([1.0])
    else:
        w = model_rng.uniform(0.25, 0.75)
        lam = np.array([w, 1.0 - w])
    terms = {}
    for _ in range(int(model_rng.integers(1, 5))):
        while True:
            degs = tuple(int(d) for d in model_rng.integers(0, 5, size=n_species))
            if 2 <= sum(degs) <= 4:
                break
        terms[degs] = terms.get(degs, 0.0) + float(model_rng.uniform(0.1, 2.0))
    ms = ModelSpec(SpeciesSet(names, lam), Mixture.from_terms(names, terms))
    N = int(model_rng.integers(max(12, 3 * n_species), 25))
    return montecarlo.build_finite_model(ms, N)


def _covariance_spot_checks(seed: int) -> CheckResult:
    tol = montecarlo._COVARIANCE_RTOL
    rng = stream(seed, SPOT_CHECKS)
    worst = 0.0
    try:
        for _ in range(_SPOT_INSTANCES):
            fm = _random_instance(rng)
            a = montecarlo.sample_uniform(fm, rng)
            b = montecarlo.sample_uniform(fm, rng)
            r1 = montecarlo.covariance_exact(fm, a, b)
            r2 = fm.N * float(fm.model.mixture.eval(montecarlo.overlap(fm, a, b)))
            worst = max(worst, abs(r1 - r2) / max(1.0, abs(r2)))
    except montecarlo.CoefficientLawError as exc:
        return CheckResult("covariance-two-route", False, float("inf"), tol, str(exc))
    return CheckResult("covariance-two-route", worst <= tol, worst, tol,
                       f"{_SPOT_INSTANCES} random instances")


def _empirical_covariance(model: ModelSpec, seed: int) -> CheckResult:
    fm = montecarlo.build_finite_model(model, _COVARIANCE_N)
    rng = stream(seed, EMPIRICAL_COVARIANCE)
    a = montecarlo.sample_uniform(fm, rng)
    b = montecarlo.sample_uniform(fm, rng)
    exact = montecarlo.covariance_exact(fm, a, b)
    h = montecarlo._disorder_hamiltonians(fm, seed, COVARIANCE_DISORDER, _COVARIANCE_DRAWS,
                                          np.stack([a, b]))
    prods = h[:, 0] * h[:, 1]
    se = float(prods.std(ddof=1)) / math.sqrt(_COVARIANCE_DRAWS)
    dev = abs(float(prods.mean()) - exact)
    return CheckResult("empirical-covariance", dev <= 5.0 * se, dev, 5.0 * se,
                       f"{_COVARIANCE_DRAWS} disorder draws at N={_COVARIANCE_N}")


def run_verify(model: ModelSpec, *, N: int, n_samples: int, seed: int) -> VerifyRun:
    """Run the full battery.  Before any check runs it raises ValueError when
    N or the model are out of range for the quadrature, or the sample count
    or the seed is out of the estimators' range, and BudgetError when the
    disorder tensors at N, or at the empirical covariance's N = 24, exceed
    the tensor budget.  The covariance checks run on one worker thread,
    which holds the spare-core slot while they run; when they and a later
    stage both raise, theirs is the exception raised, as in the serial
    order."""
    # imported here, on first use, so that a process that never verifies
    # never loads it
    from concurrent.futures import ThreadPoolExecutor

    if model.n_species > 3:
        raise ValueError("verification battery supports at most 3 species")
    montecarlo._check_samples(n_samples)
    fm = montecarlo.build_finite_model(model, N)
    disorder = montecarlo.sample_disorder(fm, seed=seed)
    try:
        montecarlo._tensor_shapes(montecarlo.build_finite_model(model, _COVARIANCE_N))
    except montecarlo.BudgetError as exc:
        raise montecarlo.BudgetError(f"empirical covariance at N={_COVARIANCE_N}: {exc}") from None
    slot_tried = threading.Event()
    with ThreadPoolExecutor(max_workers=1) as worker:
        covariance = worker.submit(_covariance_checks, model, seed, slot_tried)
        # the estimates start once the worker has tried the spare-core slot,
        # so that it, not an estimate's helper, holds the slot when it is free
        slot_tried.wait()
        try:
            checks, table, records = _estimates(disorder, n_samples, seed)
        finally:
            covariance = covariance.result()
    return VerifyRun(tuple(covariance + checks), tuple(table), records)


def _covariance_checks(model: ModelSpec, seed: int,
                       slot_tried: threading.Event) -> list[CheckResult]:
    """The worker's share, in order: the covariance spot checks and the
    empirical covariance.  It holds the spare-core slot of ``montecarlo``
    while they run, when the slot is free, and sets ``slot_tried`` once it
    has tried to take it."""
    with montecarlo._holding_spare():
        slot_tried.set()
        return [_covariance_spot_checks(seed), _empirical_covariance(model, seed)]


def _estimates(disorder: montecarlo.DisorderSample, n_samples: int,
               seed: int) -> tuple[list[CheckResult], list[tuple], tuple]:
    """The battery after the covariance checks, in order: the estimates at
    beta = beta_m / 2, the quadrature ladder and the determinism re-estimate.
    This is the calling thread's share, which holds every quadrature and
    every estimator that can warn."""
    fm = disorder.fm
    model, N = fm.model, fm.N
    checks: list[CheckResult] = []
    table: list[tuple] = []
    b_m = criticality.beta_m(model)
    beta = 0.5 * b_m if math.isfinite(b_m) else 0.25
    xi1 = model.xi1()

    def compare(name, res, prediction, bound, detail):
        # a non-finite estimate (a level set with no hits) is infinitely far off
        dev = abs(res.estimate - prediction) if math.isfinite(res.estimate) else math.inf
        checks.append(CheckResult(name, dev <= bound, dev, bound, f"{detail} ess={res.ess:.1f}"))
        table.append((beta, N, res.estimate, res.std_error, prediction))

    fe = montecarlo.estimate_free_energy(fm, disorder, beta, n_samples, seed=seed)
    fe_target = 0.5 * beta * beta * xi1
    compare("free-energy", fe, fe_target, 0.1, f"beta={beta!r} N={N} n={n_samples}")
    ls = montecarlo.estimate_level_set(fm, disorder, beta, 0.05, n_samples, seed=seed)
    compare("level-set", ls, -fe_target, 0.15, f"epsilon=0.05 hits={ls.n_hits}")
    [(band, band_pred)] = montecarlo.band_probe(
        disorder, seed, VERIFY_CENTER, [beta], max(n_samples // 4, 100))
    compare("band-free-energy", band, band_pred, 0.05,
            "r=0.2 against the conditional-mean prediction")

    worst0 = 0.0
    residuals = []
    limit = beta * beta * xi1  # max f = 0 at beta <= beta_m
    for n_quad in (50, 100, 200):
        fmq = montecarlo.build_finite_model(model, n_quad)
        v0 = quadrature.log_E_Z2_exact(fmq, 0.0)
        worst0 = max(worst0, abs(v0))
        v = quadrature.log_E_Z2_exact(fmq, beta)
        residuals.append(v - limit)
        table.append((beta, n_quad, v, 0.0, limit))
    checks.append(CheckResult("second-moment-zero", worst0 <= 1e-8, worst0, 1e-8,
                              "log E Z^2 = 0 at beta=0, N in {50,100,200}"))
    mags = [abs(r) for r in residuals]
    shrinking = all(b < a for a, b in zip(mags, mags[1:]))
    checks.append(CheckResult("second-moment-shrinking", shrinking, mags[-1], mags[0],
                              f"|residual| over N in {{50,100,200}}: {mags}"))

    fe2 = montecarlo.estimate_free_energy(fm, disorder, beta, n_samples, seed=seed)
    checks.append(CheckResult("determinism", fe2.estimate == fe.estimate,
                              abs(fe2.estimate - fe.estimate), 0.0,
                              "identical seed reproduces the estimate bit for bit"))

    records = tuple(montecarlo.estimator_record(fm, res) for res in (fe, ls, band))
    return checks, table, records
