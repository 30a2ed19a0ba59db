"""Finite-N realization of a model: disorder sampling, Hamiltonian
evaluation, the exact covariance oracle, sphere and band sampling, and
Monte Carlo estimators for free energy and level-set volume.

The Hamiltonian of a size-N model is

    H(sigma) = sqrt(N) * sum_terms sum_tuples  D_tuple * J_tuple
               * sigma_{i_1} ... sigma_{i_k}

where the sum runs over all ordered index tuples whose per-species counts
match the term's multi-index p, J_tuple are i.i.d. standard normals, and

    D_tuple^2 = c_p * (prod_s p(s)!) / |p|! * prod_s N_s^{-p(s)}.

This scaling makes E H(a) H(b) = N * xi(R(a, b)) exactly, where R is the
per-species overlap; ``covariance_exact`` certifies the bookkeeping by
computing both sides through independent routes.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .landscape import _coerce_r
from .model import ModelSpec
from .rng import BAND, DISORDER, LEVELSET, UNIFORM, philox_key, stream, substream

__all__ = [
    "FiniteModel",
    "DisorderSample",
    "EstimatorResult",
    "BudgetError",
    "CoefficientLawError",
    "build_finite_model",
    "validate_configuration",
    "overlap",
    "sample_uniform",
    "sample_on_band",
    "sample_disorder",
    "evaluate_H",
    "evaluate_H_batch",
    "covariance_exact",
    "estimate_free_energy",
    "estimate_level_set",
    "estimate_band_free_energy",
    "band_prediction",
    "TENSOR_BUDGET",
]

TENSOR_BUDGET = 10**8   # scalars across all disorder tensors
_CONFIG_TOL = 1e-9      # per-species sphere constraint tolerance (relative)
_CHUNK = 1024           # samples per contraction batch


class BudgetError(RuntimeError):
    """A disorder tensor would exceed the scalar budget."""


class CoefficientLawError(AssertionError):
    """The two covariance routes disagree: coefficient bookkeeping is broken."""


@dataclass(frozen=True)
class FiniteModel:
    """A size-N discretization: per-species block sizes and index ranges."""

    model: ModelSpec
    N: int
    block_sizes: tuple[int, ...]
    block_indices: tuple[np.ndarray, ...] = field(repr=False)

    @property
    def n_species(self) -> int:
        return self.model.n_species

    def blocks(self, sigma: np.ndarray) -> list[np.ndarray]:
        return [sigma[idx] for idx in self.block_indices]


def build_finite_model(model: ModelSpec, N: int) -> FiniteModel:
    """Block sizes by largest-remainder rounding of lam(s)*N, each >= 3.

    Ties in the remainder are broken in species order; deficits below 3
    are covered by the largest block.
    """
    S = model.n_species
    if N < 3 * S:
        raise ValueError(f"N={N} too small: need at least 3 per species ({3 * S})")
    lam = model.species.lam
    quota = lam * N
    sizes = np.floor(quota).astype(int)
    frac = quota - sizes
    # stable sort on -frac keeps species order on ties
    for s in np.argsort(-frac, kind="stable")[: N - int(sizes.sum())]:
        sizes[s] += 1
    while sizes.min() < 3:
        sizes[int(np.argmax(sizes))] -= 1
        sizes[int(np.argmin(sizes))] += 1
    assert sizes.sum() == N
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    indices = tuple(np.arange(offsets[s], offsets[s + 1]) for s in range(S))
    return FiniteModel(model, N, tuple(int(n) for n in sizes), indices)


def validate_configuration(fm: FiniteModel, sigma: np.ndarray) -> np.ndarray:
    """Check the per-species sphere constraint sum sigma_i^2 = N_s."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (fm.N,):
        raise ValueError(f"configuration must have shape ({fm.N},)")
    for s, (idx, n_s) in enumerate(zip(fm.block_indices, fm.block_sizes)):
        sq = float(np.sum(sigma[idx] ** 2))
        if abs(sq - n_s) > _CONFIG_TOL * n_s:
            raise ValueError(
                f"species {fm.model.species.names[s]}: |sigma|^2 = {sq}, expected {n_s}"
            )
    return sigma


def overlap(fm: FiniteModel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-species normalized inner products R_s = (1/N_s) sum sigma_i sigma_i'."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.array(
        [float(a[idx] @ b[idx]) / n_s for idx, n_s in zip(fm.block_indices, fm.block_sizes)]
    )


def _normalized_block(rng: np.random.Generator, n_s: int) -> np.ndarray:
    while True:
        g = rng.standard_normal(n_s)
        norm = float(np.linalg.norm(g))
        if norm > 1e-150:  # zero-norm draws have probability 0; redraw on underflow
            return g * (math.sqrt(n_s) / norm)


def sample_uniform(fm: FiniteModel, rng: np.random.Generator) -> np.ndarray:
    """Uniform point on the product of spheres: normalized Gaussian blocks."""
    out = np.empty(fm.N)
    for idx, n_s in zip(fm.block_indices, fm.block_sizes):
        out[idx] = _normalized_block(rng, n_s)
    return out


def sample_on_band(fm: FiniteModel, center: np.ndarray, r, rng: np.random.Generator) -> np.ndarray:
    """Uniform point with exact per-species overlap r against ``center``.

    Per species the output is r*center + sqrt(1-r^2) * u with u uniform on
    the sphere orthogonal to the center block, so the overlap constraint
    holds to machine precision.
    """
    r = _coerce_r(fm.n_species, r)
    center = validate_configuration(fm, center)
    out = np.empty(fm.N)
    for s, (idx, n_s) in enumerate(zip(fm.block_indices, fm.block_sizes)):
        c = center[idx]
        while True:
            g = rng.standard_normal(n_s)
            g -= (float(g @ c) / n_s) * c
            norm = float(np.linalg.norm(g))
            if norm > 1e-150:
                break
        u = g * (math.sqrt(n_s) / norm)
        out[idx] = r[s] * c + math.sqrt(1.0 - r[s] * r[s]) * u
    return out


# ----------------------------------------------------------------------
# disorder and Hamiltonian


def _assignments(degrees: np.ndarray) -> list[tuple[int, ...]]:
    """Distinct ordered species assignments for the positions of one term."""
    pattern = []
    for s, d in enumerate(degrees):
        pattern.extend([s] * int(d))
    return sorted(set(itertools.permutations(pattern)))


def _term_prefactor(coeff: float, degrees: np.ndarray, fm: FiniteModel) -> float:
    """sqrt(N) * D_tuple for tuples of this term's pattern."""
    k = int(degrees.sum())
    val = fm.N * coeff * math.factorial(k) ** -1
    for s, d in enumerate(degrees):
        d = int(d)
        val *= math.factorial(d)
        val *= float(fm.block_sizes[s]) ** (-d)
    return math.sqrt(val)


@dataclass(frozen=True)
class DisorderSample:
    """Realized Gaussian coefficient tensors, one dense (N,...,N) per term."""

    fm: FiniteModel
    seed: int
    tensors: tuple[np.ndarray, ...] = field(repr=False)


def sample_disorder(fm: FiniteModel, seed: int, *, budget: int = TENSOR_BUDGET) -> DisorderSample:
    """Draw every term's coefficient tensor from its own keyed stream.

    Each term t gets the full dense tensor of shape (N,)*|p| from the
    Philox stream keyed by (seed, DISORDER, t), filled in one call, so the
    draw is independent of evaluation order.
    """
    total = 0
    shapes = []
    for row in fm.model.mixture.exponents:
        k = int(row.sum())
        count = fm.N**k
        total += count
        shapes.append((fm.N,) * k)
        if total > budget:
            raise BudgetError(
                f"term {tuple(int(d) for d in row)} pushes tensor budget to "
                f"{total} > {budget} scalars"
            )
    tensors = tuple(
        stream(seed, DISORDER, t).standard_normal(shape)
        for t, shape in enumerate(shapes)
    )
    return DisorderSample(fm, int(seed), tensors)


def evaluate_H(disorder: DisorderSample, sigma: np.ndarray) -> float:
    """Contract the disorder tensors against sigma, term by term."""
    fm = disorder.fm
    sigma = validate_configuration(fm, sigma)
    blocks = fm.blocks(sigma)
    total = 0.0
    for row, coeff, J in zip(
        fm.model.mixture.exponents, fm.model.mixture.coeffs, disorder.tensors
    ):
        pref = _term_prefactor(float(coeff), row, fm)
        acc = 0.0
        for a in _assignments(row):
            sub = J[np.ix_(*[fm.block_indices[s] for s in a])]
            v = sub
            for s in reversed(a):
                v = v @ blocks[s]
            acc += float(v)
        total += pref * acc
    return total


_AXES = "ijklmn"


def evaluate_H_batch(disorder: DisorderSample, sigmas: np.ndarray) -> np.ndarray:
    """H for a batch of configurations (rows of ``sigmas``)."""
    fm = disorder.fm
    sigmas = np.asarray(sigmas, dtype=float)
    if sigmas.ndim != 2 or sigmas.shape[1] != fm.N:
        raise ValueError(f"expected shape (n, {fm.N})")
    out = np.zeros(sigmas.shape[0])
    for row, coeff, J in zip(
        fm.model.mixture.exponents, fm.model.mixture.coeffs, disorder.tensors
    ):
        k = int(row.sum())
        pref = _term_prefactor(float(coeff), row, fm)
        spec = ",".join([_AXES[:k]] + [f"a{_AXES[j]}" for j in range(k)]) + "->a"
        acc = np.zeros(sigmas.shape[0])
        for a in _assignments(row):
            sub = J[np.ix_(*[fm.block_indices[s] for s in a])]
            cols = [sigmas[:, fm.block_indices[s]] for s in a]
            acc += np.einsum(spec, sub, *cols, optimize=True)
        out += pref * acc
    return out


def covariance_exact(fm: FiniteModel, a: np.ndarray, b: np.ndarray, *, tol: float = 1e-10) -> float:
    """E H(a) H(b) through two independent routes, with a built-in assertion.

    Route one sums D_tuple^2 * prod_j a_{i_j} b_{i_j} over ordered index
    tuples, term by term and species assignment by species assignment.
    Route two is N * xi(R(a, b)).  Disagreement beyond ``tol`` (relative)
    raises CoefficientLawError: it means the coefficient law or its
    combinatorics are implemented wrong.
    """
    a = validate_configuration(fm, a)
    b = validate_configuration(fm, b)
    block_dots = [float(a[idx] @ b[idx]) for idx in fm.block_indices]
    route1 = 0.0
    for row, coeff in zip(fm.model.mixture.exponents, fm.model.mixture.coeffs):
        pref_sq = _term_prefactor(float(coeff), row, fm) ** 2
        tuple_sum = 0.0
        for assign in _assignments(row):
            prod = 1.0
            for s in assign:
                prod *= block_dots[s]
            tuple_sum += prod
        route1 += pref_sq * tuple_sum
    route2 = fm.N * float(fm.model.mixture.eval(overlap(fm, a, b)))
    if abs(route1 - route2) > tol * max(1.0, abs(route2)):
        raise CoefficientLawError(
            f"covariance routes disagree: tuple sum {route1!r} vs N*xi(R) {route2!r}"
        )
    return route1


# ----------------------------------------------------------------------
# estimators


@dataclass(frozen=True)
class EstimatorResult:
    estimate: float
    std_error: float
    n_samples: int
    seed: int
    n_hits: int | None = None

    def to_dict(self) -> dict:
        doc = {
            "estimate": self.estimate,
            "std_error": self.std_error,
            "n_samples": self.n_samples,
            "seed": self.seed,
        }
        if self.n_hits is not None:
            doc["n_hits"] = self.n_hits
        return doc


def estimator_record(fm: FiniteModel, result: EstimatorResult) -> dict:
    """JSON record for an estimate: result fields plus the run context."""
    from .model import model_hash

    doc = result.to_dict()
    doc.update(
        {
            "N": fm.N,
            "block_sizes": list(fm.block_sizes),
            "model_hash": model_hash(fm.model),
        }
    )
    return doc


def _sample_matrix(fm: FiniteModel, key: np.ndarray, indices: range) -> np.ndarray:
    return np.stack([sample_uniform(fm, substream(key, i)) for i in indices])


def _hamiltonian_over_uniform(fm, disorder, key, n_samples) -> np.ndarray:
    vals = np.empty(n_samples)
    for start in range(0, n_samples, _CHUNK):
        idx = range(start, min(start + _CHUNK, n_samples))
        vals[idx.start : idx.stop] = evaluate_H_batch(disorder, _sample_matrix(fm, key, idx))
    return vals


def _log_mean_exp(logw: np.ndarray) -> tuple[float, float, float]:
    """(log mean exp, delta-method stderr of the log, effective sample size)."""
    n = logw.shape[0]
    m = float(np.max(logw))
    w = np.exp(logw - m)
    mean = float(np.mean(w))
    lme = m + math.log(mean)
    if n > 1 and mean > 0.0:
        se = float(np.std(w, ddof=1)) / (math.sqrt(n) * mean)
    else:
        se = float("inf")
    sq = float(np.sum(w * w))
    ess = float(np.sum(w)) ** 2 / sq if sq > 0.0 else 0.0
    return lme, se, ess


def estimate_free_energy(
    fm: FiniteModel, disorder: DisorderSample, beta: float, n_samples: int, seed: int
) -> EstimatorResult:
    """(1/N) log Z by plain Monte Carlo over uniform configurations.

    The estimate is overflow-safe (shifted log-mean-exp); the standard
    error comes from the delta method on the log.  A warning is issued
    when the effective sample size drops below 10.
    """
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    key = philox_key(seed, UNIFORM)
    h = _hamiltonian_over_uniform(fm, disorder, key, n_samples)
    lme, se, ess = _log_mean_exp(beta * h)
    if ess < 10.0:
        warnings.warn(f"effective sample size {ess:.1f} < 10; estimate unreliable")
    return EstimatorResult(lme / fm.N, se / fm.N, n_samples, int(seed))


def estimate_level_set(
    fm: FiniteModel,
    disorder: DisorderSample,
    beta: float,
    epsilon: float,
    n_samples: int,
    seed: int,
) -> EstimatorResult:
    """(1/N) log of the uniform measure of {|H/N - beta*xi(1)| < epsilon}."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    key = philox_key(seed, LEVELSET)
    h = _hamiltonian_over_uniform(fm, disorder, key, n_samples)
    target = beta * fm.model.xi1()
    hits = int(np.count_nonzero(np.abs(h / fm.N - target) < epsilon))
    if hits == 0:
        return EstimatorResult(float("-inf"), float("inf"), n_samples, int(seed), n_hits=0)
    p = hits / n_samples
    se = math.sqrt((1.0 - p) / (p * n_samples)) / fm.N
    return EstimatorResult(math.log(p) / fm.N, se, n_samples, int(seed), n_hits=hits)


def estimate_band_free_energy(
    fm: FiniteModel,
    disorder: DisorderSample,
    center: np.ndarray,
    r,
    beta: float,
    n_samples: int,
    seed: int,
) -> EstimatorResult:
    """(1/N) log of the mean of exp(beta H) over the exact-overlap band.

    Sampling measure: product of codimension-1 spheres at per-species
    overlap exactly r around ``center``.
    """
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    r = _coerce_r(fm.n_species, r)
    center = validate_configuration(fm, center)
    key = philox_key(seed, BAND)
    vals = np.empty(n_samples)
    for start in range(0, n_samples, _CHUNK):
        idx = range(start, min(start + _CHUNK, n_samples))
        mat = np.stack([sample_on_band(fm, center, r, substream(key, i)) for i in idx])
        vals[idx.start : idx.stop] = evaluate_H_batch(disorder, mat)
    lme, se, ess = _log_mean_exp(beta * vals)
    if ess < 10.0:
        warnings.warn(f"effective sample size {ess:.1f} < 10; estimate unreliable")
    return EstimatorResult(lme / fm.N, se / fm.N, n_samples, int(seed))


def band_prediction(fm: FiniteModel, beta: float, r, h_center: float) -> float:
    """Conditional-mean prediction for the band free energy around a point
    with Hamiltonian value ``h_center``:

        beta * (xi(r)/xi(1)) * h_center / N + beta^2 xi(1) / 2.
    """
    r = _coerce_r(fm.n_species, r)
    xi1 = fm.model.xi1()
    xir = float(fm.model.mixture.eval(r))
    return beta * (xir / xi1) * (h_center / fm.N) + 0.5 * beta * beta * xi1
