"""Self-verification battery for the finite-N Monte Carlo engine.

Runs deterministic and statistical checks of the model identities at desk
scale: the two-route covariance certification, the empirical disorder
covariance, free-energy and level-set estimates against their asymptotic
values, the band free energy against its conditional-mean prediction
(``montecarlo.band_probe`` at one beta), and the exact second-moment
quadrature (zero at beta = 0, residual shrinking with N).  The three
estimates meet their predictions in one comparison, which writes both the
check and its table row.  One uniform sample, drawn and contracted once on
``stream(seed, UNIFORM)``, serves both the free-energy and the level-set
check, since H does not depend on which statistic reads it; the
determinism check re-draws that sample and passes only when both results
come out equal, field by field.  Everything is driven by a single seed
through counter-based streams, so repeated runs produce byte-identical
output.
The stages run one after another on the calling thread; only an
estimate's contractions may add a thread, the helper of that estimate's
``montecarlo._hamiltonians``, which the estimate joins before it returns,
so the battery runs at most two threads at once.

The empirical covariance is a test of E H H^T = S, S_ij = N xi(R_ij), on
K uniform configurations at N = 9, each contracted under D disorder draws
(``_empirical_covariance``).  Given the configurations, the D vectors of
Hamiltonians are i.i.d. N(0, S) exactly, since H is linear in the Gaussian
disorder.  On the range of S, of rank r (eigenvalues below _RANK_RTOL of
the largest are its null space), they are whitened to i.i.d. N(0, I_r),
and their scatter A (r x r) is Wishart with D degrees of freedom.  The
statistic of a symmetric B >= 0 is <B, A> / (D tr B), a variance ratio
of mean 1: for B = I it is chi^2 with r D degrees of freedom over r D,
exactly; for B = W S_t W^T, term t's share of S in whitened coordinates,
it is a weighted sum of chi^2_1 variables, read as a scaled chi^2 with
D (tr B)^2 / <B, B> degrees of freedom (Satterthwaite), which matches its
first two moments.  Each ratio is standardized by the Wilson-Hilferty cube
root.  A wrong overall variance moves the first, a dropped term or a term
contracted on the wrong species block moves its term's, and with more
than one term the check bounds all 1 + T of them (one-term models have
one).  The bound of 5 on every |z| gives a false alarm of 2 Phi(-5) =
5.7e-7 per statistic, at most (1 + T) 5.7e-7 per run by the union bound.
At K = 40 and D = 1600 a full-rank S gives r D = 64,000 degrees of
freedom, where a 5% variance error moves the first z by 8.8.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from . import criticality, montecarlo, quadrature
from .mixture import Mixture, SpeciesSet
from .model import ModelSpec
from .rng import (COVARIANCE_DISORDER, EMPIRICAL_COVARIANCE, SPOT_CHECKS, UNIFORM, VERIFY_CENTER,
                  stream)

__all__ = ["CheckResult", "VerifyRun", "run_verify"]

_SPOT_INSTANCES = 10      # random instances of the two-route covariance check
# the empirical covariance check: K configurations at N, each contracted under
# D disorder draws, and its bound on every standardized statistic
_COVARIANCE_N = 9
_COVARIANCE_CONFIGS = 40
_COVARIANCE_DRAWS = 1600
_COVARIANCE_Z = 5.0
# eigenvalues of S below this share of the largest are its null space: far
# above the rounding of S's entries (about K eps of the largest), so that no
# direction rounding alone made is whitened
_RANK_RTOL = 1e-9


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


def _gram_z(fm: montecarlo.FiniteModel, sigmas: np.ndarray,
            h: np.ndarray) -> tuple[list[float], int]:
    """The standardized statistics of the Hamiltonians ``h`` (draws, K) at
    the configurations ``sigmas`` (K, N) against S_ij = N xi(R_ij): the
    whole variance first, then each term's when there are several (see the
    module docstring), and the rank of S."""
    mix, D = fm.model.mixture, len(h)
    R = np.stack([sigmas[:, sl] @ sigmas[:, sl].T / n
                  for sl, n in zip(fm.block_slices, fm.block_sizes)], axis=-1)
    grams = [fm.N * Mixture.from_terms(mix.species, {p: c}).eval(R)
             for p, c in mix.terms().items()]
    lam, U = np.linalg.eigh(sum(grams))
    keep = lam > _RANK_RTOL * lam[-1]
    W = U[:, keep] / np.sqrt(lam[keep])
    A = W.T @ (h.T @ h) @ W / D  # the whitened scatter, of mean I_r
    zs = []
    for B in [np.eye(len(A))] + [W.T @ P @ W for P in grams if len(grams) > 1]:
        ratio, dof = np.vdot(B, A) / np.trace(B), D * np.trace(B) ** 2 / np.vdot(B, B)
        zs.append((np.cbrt(ratio) - 1.0 + 2.0 / (9.0 * dof)) / math.sqrt(2.0 / (9.0 * dof)))
    return zs, len(A)


def _empirical_covariance(model: ModelSpec, seed: int) -> CheckResult:
    fm = montecarlo.build_finite_model(model, _COVARIANCE_N)
    sigmas = stream(seed, EMPIRICAL_COVARIANCE).standard_normal((_COVARIANCE_CONFIGS, fm.N))
    montecarlo._place(sigmas, montecarlo._blocks(fm))
    h = montecarlo._disorder_hamiltonians(fm, seed, COVARIANCE_DISORDER, _COVARIANCE_DRAWS, sigmas)
    zs, rank = _gram_z(fm, sigmas, h)
    worst = max(abs(z) for z in zs)
    return CheckResult("empirical-covariance", worst <= _COVARIANCE_Z, worst, _COVARIANCE_Z,
                       f"{_COVARIANCE_CONFIGS} configurations x {_COVARIANCE_DRAWS} draws at "
                       f"N={_COVARIANCE_N}, rank {rank}: z {' '.join(f'{z:.2f}' for z in zs)}")


def run_verify(model: ModelSpec, *, N: int, n_samples: int, seed: int) -> VerifyRun:
    """Run the full battery on the calling thread.  Before any check runs it
    raises ValueError when N or the model are out of range for the
    quadrature, or the sample count or the seed is out of the estimators'
    range, and BudgetError when the disorder tensors at N, or the empirical
    covariance's draws at its N together, exceed the tensor budget."""
    if model.n_species > 3:
        raise ValueError("verification battery supports at most 3 species")
    montecarlo._check_samples(n_samples)
    fm = montecarlo.build_finite_model(model, N)
    per_draw = sum(map(math.prod, montecarlo._tensor_shapes(
        montecarlo.build_finite_model(model, _COVARIANCE_N))))
    if _COVARIANCE_DRAWS * per_draw > montecarlo.TENSOR_BUDGET:
        raise montecarlo.BudgetError(f"empirical covariance at N={_COVARIANCE_N}: "
                                     f"{_COVARIANCE_DRAWS} draws of {per_draw} scalars exceed "
                                     "the tensor budget")
    disorder = montecarlo.sample_disorder(fm, seed=seed)
    covariance = [_covariance_spot_checks(seed), _empirical_covariance(model, seed)]
    checks, table, records = _estimates(disorder, n_samples, seed)
    return VerifyRun(tuple(covariance + checks), tuple(table), records)


def _estimates(disorder: montecarlo.DisorderSample, n_samples: int,
               seed: int) -> tuple[list[CheckResult], list[tuple], tuple]:
    """The battery after the covariance checks, in order: the estimates at
    beta = beta_m / 2, the quadrature ladder and the determinism re-estimate.

    The free-energy and the level-set estimate read one uniform sample,
    ``stream(seed, UNIFORM)`` drawn and contracted once (``uniform``); the
    determinism check draws and contracts it again and compares both
    results, field by field."""
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

    def uniform():
        h = montecarlo._hamiltonians(disorder, stream(seed, UNIFORM), n_samples,
                                     montecarlo._blocks(fm))
        return (montecarlo._free_energy(fm, beta, h, seed),
                montecarlo._level_set(fm, beta, 0.05, h, seed))

    fe, ls = uniform()
    fe_target = 0.5 * beta * beta * xi1
    compare("free-energy", fe, fe_target, 0.1, f"beta={beta!r} N={N} n={n_samples}")
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

    # the fields of the two results that differ (an infinite level set
    # equals itself; a NaN would differ)
    differ = sum(a != b for first, again in zip((fe, ls), uniform())
                 for a, b in zip(astuple(first), astuple(again)))
    checks.append(CheckResult("determinism", differ == 0, differ, 0.0,
                              "the uniform sample drawn again: the number of fields of "
                              "its free-energy and level-set results that differ"))

    records = tuple(montecarlo.estimator_record(fm, res) for res in (fe, ls, band))
    return checks, table, records
