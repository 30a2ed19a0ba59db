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

Contraction order.  ``_contract`` is the one contraction path: it takes
each term's tensors stacked along a leading draws axis and returns H for
every (draw, row) pair.  ``evaluate_H_batch`` is a batch of one draw and
``evaluate_H`` a batch of one row; the empirical covariance of ``verify``
contracts a chunk of disorder draws at once (``_disorder_hamiltonians``).
Each term's species assignments are taken one at a time.  The modes of an
assignment of degree k are split at m = k // 2; each draw's block-sliced
tensor is read as a (left, right) matrix J_a, with left the product of the
first m block sizes and right that of the rest (a view for one species, one
copy per call otherwise).  For a chunk of rows, L (rows, left) holds the
row-wise outer products of the first m blocks, and L @ J_a is one dense
matrix product per draw (stacked ``np.matmul``, the same per-slice product
whatever the number of draws); its right modes are then contracted with
each row's blocks one mode at a time, last first.  Degree 1 has no left
modes: J_a's single row meets each row's block directly.

Memory bound.  The row chunk is _CONTRACT_BUDGET // (draws * max(left,
right)), so no intermediate holds more than _CONTRACT_BUDGET scalars and at
most two are live at once (4 MB at most), whatever the batch size.  The
bound is per estimate: 8 MB with ``_hamiltonians``'s helper, whose two
threads each hold their own intermediates, and each of several estimates
run at once holds its own.  A smaller bound would re-read J_a, which for
pure p = 4 at N = 50 is 50 MB, more often per row.  A chunk of disorder
draws holds at most _DRAW_BUDGET scalars of tensors (64 KB), or one draw
when a single draw is larger.

Sampling.  Every estimator draws and contracts in one loop,
``_hamiltonians``, over one stream per (seed, role) read in order:
configuration i is normals [i N, (i + 1) N) of ``stream(seed, role)``, and
each (_CHUNK, N) chunk of configurations is one ``standard_normal`` into a
reused matrix.  The species blocks are contiguous, so a row holds exactly
the normals a block-by-block draw would, and no configuration depends on
the sample count or the chunk size.  ``_place`` then puts the whole matrix
on its spheres, one species block of every row at a time: the band's center
projected out, the norm sqrt(g @ g) (each row's product a ``ddot``, as
``np.linalg.norm`` computes it), the scaling, in the same elementwise order
as a one-row draw, so every bit is the same.  A block has at least 3
normals, so its norm is 0 only if every one of them is exactly 0 (about
2^-156 at most) or, on a band, if it is exactly parallel to the center;
``_place`` raises rather than place it.  ``_place`` is the
one sphere and band placement: ``sample_uniform`` and ``sample_on_band``
call it on a one-row view.  The matrix is contracted a chunk at a time by
``_contract``, the product ``evaluate_H_batch`` makes of one chunk.
The empirical covariance's disorder tensors come the same way from one
stream per term, a chunk of draws in one ``standard_normal`` per term.
Inputs are checked once, on entry, before any draw: ``fm`` is the
disorder's own (by value), the sample count (100 to TENSOR_BUDGET), every
beta, the band's center and overlap.  ``_free_energy`` is the shared
log-mean-exp tail and ``_level_set`` the level set's hit count.  H does not
depend on beta, so ``band_probe``, behind both ``verify``'s band check and
``band-probe``, draws and contracts one band for its whole beta grid; nor
on the statistic that reads it, so ``verify`` draws and contracts one
uniform sample, on ``stream(seed, UNIFORM)``, for both its free-energy and
its level-set check, and its determinism check re-draws that one sample
and compares both results.  ``estimate_level_set`` keeps its own stream,
``stream(seed, LEVELSET)``.

Threads.  The calling thread runs the loop and, when ``_HELPER`` is set
and the estimate has more than one chunk, one helper runs it beside it: one
helper per estimate, with no slot shared across the process.  Each thread
takes the next chunk and draws its rows under one lock, so chunks are drawn
in order and configuration i keeps its normals; it then places and
contracts them outside the lock into its own slice of H, and a thread that
finishes early takes the next free chunk, so the two share the load.  Every
chunk's product is the same BLAS call on the same rows whichever thread
makes it, so H is the same to the bit.  ``_HELPER`` is set once, on
import, when the process has a spare core: its CPUs less the threads
OpenBLAS runs its products on (``_spare_cores``).  With OpenBLAS on every CPU, its
default, no helper starts: a split then ran slower (by 3-22% on pure p = 3
and 6-49% on SK at N = 40, on 2 vCPUs).  A process cannot see its
neighbours, nor whether its spare core delivers: BLAS pinned to one thread
in each of several processes that share the CPUs (``xargs -P``, a job array
without a cpuset) lets each of them add a helper; two such processes on 2
vCPUs did the same work about 3% slower than without helpers.  A process
given one CPU of its own (``taskset``, a cpuset) has no spare core and
starts none.  The helper calls only private functions and numpy, never a
public function, which a tracer may wrap.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from .mixture import _coerce_r
from .model import ModelSpec, model_hash
from .rng import BAND, DISORDER, LEVELSET, UNIFORM, stream

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
    "band_probe",
    "TENSOR_BUDGET",
]

TENSOR_BUDGET = 10**8   # scalars across all disorder tensors
_CONFIG_TOL = 1e-9      # per-species sphere constraint tolerance (relative)
_CHUNK = 1024           # samples per contraction batch
# covariance_exact: the relative disagreement its two routes may show
_COVARIANCE_RTOL = 1e-10
# scalars in one row chunk of a contraction: rows * max(left, right) stays
# within this bound (see the module docstring)
_CONTRACT_BUDGET = 2**18
# scalars of stacked disorder tensors per chunk of draws (64 KB): small enough
# that verify's covariance check holds less than its estimates do
_DRAW_BUDGET = 2**13


class BudgetError(RuntimeError):
    """A disorder tensor would exceed the scalar budget."""


class CoefficientLawError(AssertionError):
    """The two covariance routes disagree: coefficient bookkeeping is broken."""


@dataclass(frozen=True)
class FiniteModel:
    """A size-N discretization: per-species block sizes and the contiguous
    block ranges as slices, so that indexing a block is a view."""

    model: ModelSpec
    N: int
    block_sizes: tuple[int, ...]
    block_slices: tuple[slice, ...] = field(repr=False)

    @property
    def n_species(self) -> int:
        return self.model.n_species


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
    slices = tuple(slice(int(offsets[s]), int(offsets[s + 1])) for s in range(S))
    return FiniteModel(model, N, tuple(int(n) for n in sizes), slices)


def validate_configuration(fm: FiniteModel, sigma: np.ndarray) -> np.ndarray:
    """Check the per-species sphere constraint sum sigma_i^2 = N_s."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (fm.N,):
        raise ValueError(f"configuration must have shape ({fm.N},)")
    for s, (sl, n_s) in enumerate(zip(fm.block_slices, fm.block_sizes)):
        sq = float(np.sum(sigma[sl] ** 2))
        if not abs(sq - n_s) <= _CONFIG_TOL * n_s:  # NaN fails the comparison
            raise ValueError(
                f"species {fm.model.species.names[s]}: |sigma|^2 = {sq}, expected {n_s}"
            )
    return sigma


def overlap(fm: FiniteModel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-species normalized inner products R_s = (1/N_s) sum sigma_i sigma_i'."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.array(
        [float(a[sl] @ b[sl]) / n_s for sl, n_s in zip(fm.block_slices, fm.block_sizes)]
    )


def _blocks(fm: FiniteModel, center: np.ndarray | None = None, r=None) -> list[tuple]:
    """Per species, what ``_place`` needs: (slice, n_s, sqrt(n_s), band), with
    band None for a uniform draw, else (center block c, r * c, sqrt(1 - r^2))."""
    return [
        (sl, n_s, math.sqrt(n_s), None if center is None else
         (center[sl], r[s] * center[sl], math.sqrt(1.0 - r[s] * r[s])))
        for s, (sl, n_s) in enumerate(zip(fm.block_slices, fm.block_sizes))
    ]


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[i] @ y[i] for every row i (y may be one vector for all rows): a
    stacked ``np.matmul``, so each row's product is the ``ddot`` of ``@``."""
    return np.matmul(x[:, None, :], y[..., None])[:, 0, 0]


def _place(rows: np.ndarray, blocks: list[tuple]) -> None:
    """Put every row of Gaussians in ``rows`` onto the product of spheres,
    or of bands, in place, one species block of all rows at a time.

    A block g has the band's center c projected out when there is one
    (g -= (g @ c / n_s) c) and is scaled to the sphere of radius sqrt(n_s)
    (g *= sqrt(n_s) / sqrt(g @ g)): a uniform point, orthogonal to c for a
    band, which then becomes sqrt(1 - r^2) g + r c.  A block of norm 0 has
    no direction: FloatingPointError names it.
    """
    for s, (sl, n_s, root, band) in enumerate(blocks):
        g = rows[:, sl]
        if band is not None:
            c = band[0]
            g -= (_row_dots(g, c) / n_s)[:, None] * c
        norm = np.sqrt(_row_dots(g, g))
        if not norm.all():
            raise FloatingPointError(
                f"species block {s} (entries {sl.start}:{sl.stop}) of a draw has norm 0, "
                "so it has no direction on the sphere")
        g *= (root / norm)[:, None]
        if band is not None:
            g *= band[2]
            g += band[1]


def sample_uniform(fm: FiniteModel, rng: np.random.Generator) -> np.ndarray:
    """Uniform point on the product of spheres: normalized Gaussian blocks."""
    out = np.empty(fm.N)
    rng.standard_normal(out=out)
    _place(out[None], _blocks(fm))
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
    rng.standard_normal(out=out)
    _place(out[None], _blocks(fm, center, r))
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


def _tensor_shapes(fm: FiniteModel) -> list[tuple[int, ...]]:
    """Each term's dense tensor shape (N,)*|p|, within TENSOR_BUDGET scalars."""
    total = 0
    shapes = []
    for row in fm.model.mixture.exponents:
        k = int(row.sum())
        total += fm.N**k
        shapes.append((fm.N,) * k)
        if total > TENSOR_BUDGET:
            raise BudgetError(
                f"term {tuple(int(d) for d in row)} pushes tensor budget to "
                f"{total} > {TENSOR_BUDGET} scalars"
            )
    return shapes


def sample_disorder(fm: FiniteModel, seed: int) -> DisorderSample:
    """Draw every term's coefficient tensor from its own keyed stream.

    Each term t gets the full dense tensor of shape (N,)*|p| from the
    Philox stream keyed by (seed, DISORDER, t), filled in one call, so the
    draw is independent of evaluation order.
    """
    tensors = tuple(stream(seed, DISORDER, t).standard_normal(shape)
                    for t, shape in enumerate(_tensor_shapes(fm)))
    return DisorderSample(fm, int(seed), tensors)


def evaluate_H(disorder: DisorderSample, sigma: np.ndarray) -> float:
    """H at one configuration: a batch of one."""
    sigma = validate_configuration(disorder.fm, sigma)
    return float(evaluate_H_batch(disorder, sigma[None])[0])


def _row_outer(cols: list[np.ndarray]) -> np.ndarray:
    """Row-wise outer product of (rows, n_j) factors: (rows, n_1 * ... * n_j),
    flattened in C order like the tensor modes it meets."""
    out = cols[0]
    for c in cols[1:]:
        out = (out[:, :, None] * c[:, None, :]).reshape(len(c), -1)
    return out


def _contract_chunk(left: list[np.ndarray], Ja: np.ndarray, right: list[np.ndarray]) -> np.ndarray:
    """rowsum((L @ Ja[d]) * R) for one row chunk and every draw d, with L
    and R the row-wise outer products of the ``left`` and ``right`` blocks:
    (draws, rows).

    R is never built: the right modes of L @ Ja are contracted one at a
    time, last first, against each row's block.  Degree 1 has no left
    modes; each draw's one row of Ja then broadcasts over the chunk.
    """
    v = _row_outer(left) @ Ja if left else Ja
    for b in reversed(right):
        v = np.matmul(v.reshape(*v.shape[:2], -1, b.shape[1]), b[:, :, None])[..., 0]
    return v[..., 0]


def _contract(fm: FiniteModel, tensors, sigmas: np.ndarray) -> np.ndarray:
    """H for every draw and every row of ``sigmas``: (draws, rows), with
    each term's tensors stacked along a leading draws axis."""
    draws, n = len(tensors[0]), len(sigmas)
    out = np.zeros((draws, n))
    slices = fm.block_slices
    blocks = [sigmas[:, sl] for sl in slices]
    for row, coeff, J in zip(fm.model.mixture.exponents, fm.model.mixture.coeffs, tensors):
        m = int(row.sum()) // 2
        acc = np.zeros((draws, n))
        for a in _assignments(row):
            left = math.prod(fm.block_sizes[s] for s in a[:m])
            right = math.prod(fm.block_sizes[s] for s in a[m:])
            # a view when one species spans every mode, else one copy
            Ja = J[(slice(None),) + tuple(slices[s] for s in a)].reshape(draws, left, right)
            step = max(1, _CONTRACT_BUDGET // (draws * max(left, right)))
            for lo in range(0, n, step):
                rows = slice(lo, lo + step)
                acc[:, rows] += _contract_chunk(
                    [blocks[s][rows] for s in a[:m]], Ja, [blocks[s][rows] for s in a[m:]]
                )
        out += _term_prefactor(float(coeff), row, fm) * acc
    return out


def evaluate_H_batch(disorder: DisorderSample, sigmas: np.ndarray) -> np.ndarray:
    """H for a batch of configurations (rows of ``sigmas``): ``_contract``
    on a batch of one draw."""
    fm = disorder.fm
    sigmas = np.asarray(sigmas, dtype=float)
    if sigmas.ndim != 2 or sigmas.shape[1] != fm.N:
        raise ValueError(f"expected shape (n, {fm.N})")
    return _contract(fm, tuple(J[None] for J in disorder.tensors), sigmas)[0]


def _disorder_hamiltonians(fm: FiniteModel, seed: int, role: int, n_draws: int,
                           sigmas: np.ndarray) -> np.ndarray:
    """H at each row of ``sigmas`` under n_draws disorder draws: (n_draws,
    rows).  Term t's tensor in draw d is the d-th tensor of ``stream(seed,
    role, t)``, read in order.  The tensors are drawn into reused buffers and
    contracted a chunk of draws at a time, the chunk holding at most
    _DRAW_BUDGET scalars (one draw when a single draw is larger)."""
    shapes = _tensor_shapes(fm)
    chunk = max(1, _DRAW_BUDGET // sum(map(math.prod, shapes)))
    rngs = [stream(seed, role, t) for t in range(len(shapes))]
    bufs = tuple(np.empty((min(chunk, n_draws),) + shape) for shape in shapes)
    h = np.empty((n_draws, len(sigmas)))
    for lo in range(0, n_draws, chunk):
        tensors = tuple(buf[: min(chunk, n_draws - lo)] for buf in bufs)
        for rng, t in zip(rngs, tensors):
            rng.standard_normal(out=t)
        h[lo : lo + len(tensors[0])] = _contract(fm, tensors, sigmas)
    return h


def covariance_exact(fm: FiniteModel, a: np.ndarray, b: np.ndarray) -> float:
    """E H(a) H(b) through two independent routes, with a built-in assertion.

    Route one sums D_tuple^2 * prod_j a_{i_j} b_{i_j} over ordered index
    tuples, term by term and species assignment by species assignment.
    Route two is N * xi(R(a, b)).  Disagreement beyond _COVARIANCE_RTOL
    raises CoefficientLawError: it means the coefficient law or its
    combinatorics are implemented wrong.
    """
    a = validate_configuration(fm, a)
    b = validate_configuration(fm, b)
    block_dots = [float(a[sl] @ b[sl]) for sl in fm.block_slices]
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
    if abs(route1 - route2) > _COVARIANCE_RTOL * max(1.0, abs(route2)):
        raise CoefficientLawError(
            f"covariance routes disagree: tuple sum {route1!r} vs N*xi(R) {route2!r}"
        )
    return route1


# ----------------------------------------------------------------------
# estimators


@dataclass(frozen=True)
class EstimatorResult:
    """An estimate with its standard error, sample count and seed.  ess is
    the effective sample size (sum w)^2 / sum w^2 of the estimate's weights:
    exp(beta H) for the free energies, the hit indicators for the level set,
    whose ess is therefore its hit count."""

    estimate: float
    std_error: float
    n_samples: int
    seed: int
    ess: float
    n_hits: int | None = None

    def to_dict(self) -> dict:
        doc = {
            "estimate": self.estimate,
            "std_error": self.std_error,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "ess": self.ess,
        }
        if self.n_hits is not None:
            doc["n_hits"] = self.n_hits
        return doc


def estimator_record(fm: FiniteModel, result: EstimatorResult) -> dict:
    """JSON record for an estimate: result fields plus the run context."""
    doc = result.to_dict()
    doc.update(
        {
            "N": fm.N,
            "block_sizes": list(fm.block_sizes),
            "model_hash": model_hash(fm.model),
        }
    )
    return doc


def _check_samples(n_samples: int) -> None:
    """The estimators' sample-count rule: at least 100 samples and at most
    TENSOR_BUDGET (the scalar bound on the H values held)."""
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    if n_samples > TENSOR_BUDGET:
        raise ValueError(f"{n_samples} samples exceed the budget of {TENSOR_BUDGET}")


def _check(fm: FiniteModel, disorder: DisorderSample, n_samples: int, *betas: float) -> None:
    """The estimators' inputs, checked on entry: ``fm`` is the disorder's own
    finite model (by value), the sample count (``_check_samples``), and every
    beta is finite (a negative beta is allowed)."""
    if fm != disorder.fm:
        raise ValueError("fm is not the finite model the disorder was drawn for")
    _check_samples(n_samples)
    if not all(map(math.isfinite, betas)):
        raise ValueError(f"beta must be finite, got {betas}")


def _spare_cores(environ, cpus: int) -> int:
    """The cores the Monte Carlo loop may add a thread on: the process's
    ``cpus`` minus the threads OpenBLAS runs its products on, capped at one.

    OpenBLAS takes its thread count from the first of OPENBLAS_NUM_THREADS,
    GOTO_NUM_THREADS and OMP_NUM_THREADS that reads as a positive number,
    and otherwise uses every CPU.  It reads each with C's ``atoi``: leading
    white space, a sign and the digits up to the first other character, so
    "1.5" and "1x" are 1, and a value with no leading digits is 0.
    """
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        digits = re.match(r"[ \t\n\v\f\r]*([+-]?[0-9]+)", environ.get(var, ""))
        threads = int(digits[1]) if digits else 0
        if threads > 0:
            return min(1, max(0, cpus - threads))
    return 0


# whether ``_hamiltonians`` starts a helper thread beside the calling one
_HELPER = _spare_cores(
    os.environ, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1) > 0


def _hamiltonians(disorder: DisorderSample, rng: np.random.Generator, n_samples: int,
                  blocks: list[tuple]) -> np.ndarray:
    """H at configuration i < n_samples: normals [i N, (i + 1) N) of ``rng``,
    read in order a chunk of rows at a time and put in place by ``_place``
    with ``blocks``.

    The calling thread and, when ``_HELPER`` is set and there is more than
    one chunk, one helper of this call run the same loop: draw the next
    chunk under a lock, then place and contract it outside the lock into
    its own slice of H.  A thread stops at its first error, the other once
    it sees one; the error of the earliest chunk is raised, as a serial
    loop would raise it.
    """
    fm = disorder.fm
    tensors = tuple(J[None] for J in disorder.tensors)
    h = np.empty(n_samples)
    starts = iter(range(0, n_samples, _CHUNK))
    lock = threading.Lock()
    errors = []  # (chunk start, exception)

    def run():
        start = -1
        try:
            buf = np.empty((min(_CHUNK, n_samples), fm.N))
            while True:
                with lock:
                    start = next(starts, n_samples)
                    if errors or start == n_samples:
                        return
                    rows = buf[: min(_CHUNK, n_samples - start)]
                    rng.standard_normal(out=rows)
                _place(rows, blocks)
                h[start : start + len(rows)] = _contract(fm, tensors, rows)[0]
        except BaseException as exc:
            errors.append((start, exc))

    helper = _HELPER and n_samples > _CHUNK and threading.Thread(target=run, name="spinmix-chunks")
    if helper:
        helper.start()
    run()  # which raises nothing: errors are kept
    if helper:
        helper.join()
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return h


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


def _free_energy(fm: FiniteModel, beta: float, h: np.ndarray, seed: int) -> EstimatorResult:
    """(1/N) log of the mean of exp(beta H) over the Hamiltonian values ``h``."""
    lme, se, ess = _log_mean_exp(beta * h)
    if ess < 10.0:
        warnings.warn(f"effective sample size {ess:.1f} < 10; estimate unreliable")
    return EstimatorResult(lme / fm.N, se / fm.N, len(h), int(seed), ess)


def _level_set(fm: FiniteModel, beta: float, epsilon: float, h: np.ndarray,
               seed: int) -> EstimatorResult:
    """(1/N) log of the share of the Hamiltonian values ``h`` with
    |H/N - beta*xi(1)| < epsilon, -inf when none is."""
    n_samples = len(h)
    hits = int(np.count_nonzero(np.abs(h / fm.N - beta * fm.model.xi1()) < epsilon))
    if hits == 0:
        return EstimatorResult(float("-inf"), float("inf"), n_samples, int(seed), 0.0, n_hits=0)
    p = hits / n_samples
    se = math.sqrt((1.0 - p) / (p * n_samples)) / fm.N
    return EstimatorResult(math.log(p) / fm.N, se, n_samples, int(seed), float(hits),
                           n_hits=hits)


def estimate_free_energy(
    fm: FiniteModel, disorder: DisorderSample, beta: float, n_samples: int, seed: int
) -> EstimatorResult:
    """(1/N) log Z by plain Monte Carlo over uniform configurations.

    The estimate is overflow-safe (shifted log-mean-exp); the standard
    error comes from the delta method on the log.  A warning is issued
    when the effective sample size drops below 10.
    """
    _check(fm, disorder, n_samples, beta)
    h = _hamiltonians(disorder, stream(seed, UNIFORM), n_samples, _blocks(fm))
    return _free_energy(fm, beta, h, seed)


def estimate_level_set(
    fm: FiniteModel,
    disorder: DisorderSample,
    beta: float,
    epsilon: float,
    n_samples: int,
    seed: int,
) -> EstimatorResult:
    """(1/N) log of the uniform measure of {|H/N - beta*xi(1)| < epsilon}:
    ``_level_set`` of a uniform sample drawn from its own stream,
    ``stream(seed, LEVELSET)``, independent of ``estimate_free_energy``'s.
    ``verify``'s level-set check reads ``_level_set`` of the free-energy
    check's sample instead (``stream(seed, UNIFORM)``)."""
    _check(fm, disorder, n_samples, beta)
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
    h = _hamiltonians(disorder, stream(seed, LEVELSET), n_samples, _blocks(fm))
    return _level_set(fm, beta, epsilon, h, seed)


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
    _check(fm, disorder, n_samples, beta)
    r = _coerce_r(fm.n_species, r)
    center = validate_configuration(fm, center)
    h = _hamiltonians(disorder, stream(seed, BAND), n_samples, _blocks(fm, center, r))
    return _free_energy(fm, beta, h, seed)


def band_prediction(fm: FiniteModel, beta: float, r, h_center: float) -> float:
    """Conditional-mean prediction for the band free energy around a point
    with Hamiltonian value ``h_center``:

        beta * (xi(r)/xi(1)) * h_center / N + beta^2 xi(1) / 2.
    """
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta!r}")
    r = _coerce_r(fm.n_species, r)
    xi1 = fm.model.xi1()
    if not xi1 > 0.0:
        raise ValueError(f"band prediction requires xi(1) > 0, got {xi1!r}")
    xir = float(fm.model.mixture.eval(r))
    return beta * (xir / xi1) * (h_center / fm.N) + 0.5 * beta * beta * xi1


def band_probe(
    disorder: DisorderSample, seed: int, role: int, betas, n_samples: int
) -> list[tuple[EstimatorResult, float]]:
    """For each beta, the band free energy at overlap 0.2 in every species
    around a center drawn from ``stream(seed, role)``, with its
    ``band_prediction``: ``estimate_band_free_energy`` on ``disorder.fm`` at
    that center, whose band is drawn and contracted once for every beta."""
    fm = disorder.fm
    betas = [float(beta) for beta in betas]
    _check(fm, disorder, n_samples, *betas)
    center = sample_uniform(fm, stream(seed, role))
    h_center = evaluate_H(disorder, center)
    r = np.full(fm.n_species, 0.2)
    h = _hamiltonians(disorder, stream(seed, BAND), n_samples, _blocks(fm, center, r))
    return [(_free_energy(fm, beta, h, seed), band_prediction(fm, beta, r, h_center))
            for beta in betas]
