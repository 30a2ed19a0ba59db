"""Deterministic functionals on overlap space and their global maximization.

The central object is

    f_beta(r) = 0.5 * sum_s lam(s) * log(1 - r(s)^2) + beta^2 * xi(r)

on [0, 1)^S, together with the truncated variant whose energy term is
beta^2 * xi(1) xi(r) / (xi(1) + xi(r)), the single-species criterion
g_beta(r) = log(1-r) + r + beta^2 xi(r), analytic first and second
derivatives, and the Hessian of f_beta at the origin

    M(beta) = -diag(lam) + beta^2 * Q

with Q the degree-2 coefficient matrix of the mixture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .model import ModelSpec

__all__ = [
    "MaximizeResult",
    "f_beta",
    "f_tilde_beta",
    "g_beta",
    "f_grad",
    "f_hessian",
    "hessian_at_zero",
    "maximize_f",
    "DOMAIN_CLAMP",
    "TOL_MAX",
    "TOL_ZERO",
]

# coordinates are kept below 1 - DOMAIN_CLAMP during ascent (log singularity)
DOMAIN_CLAMP = 1e-8
# value tolerance targeted by the maximizer
TOL_MAX = 1e-9
# values at or below this count as "the maximum is zero"
TOL_ZERO = 1e-10

# certification grid points per axis (pitch 1/200), |S| <= 3
_GRID_POINTS = 201


def _coerce_r(model: ModelSpec, r, *, signed: bool = False) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.ndim == 0:
        r = np.full(model.n_species, float(r))
    if r.shape != (model.n_species,):
        raise ValueError(f"overlap vector must have shape ({model.n_species},)")
    lo = -1.0 if signed else 0.0
    if np.any(r < lo) or np.any(r >= 1.0):
        box = "[-1, 1)" if signed else "[0, 1)"
        raise ValueError(f"overlap vector {r} outside {box}^S")
    return r


def _entropy(model: ModelSpec, r: np.ndarray) -> float:
    return 0.5 * float(np.sum(model.species.lam * np.log1p(-r * r)))


def f_beta(model: ModelSpec, beta: float, r) -> float:
    """Entropy-plus-energy functional; equals 0 at r = 0."""
    r = _coerce_r(model, r)
    return _entropy(model, r) + beta * beta * float(model.mixture.eval(r))


def f_tilde_beta(model: ModelSpec, beta: float, r) -> float:
    """Truncated variant with energy beta^2 xi(1) xi(r) / (xi(1) + xi(r))."""
    r = _coerce_r(model, r)
    xi1 = model.xi1()
    if xi1 <= 0.0:
        raise ValueError("truncated functional requires xi(1) > 0")
    xir = float(model.mixture.eval(r))
    return _entropy(model, r) + beta * beta * xi1 * xir / (xi1 + xir)


def g_beta(model: ModelSpec, beta: float, r: float) -> float:
    """Single-species criterion log(1-r) + r + beta^2 xi(r)."""
    if model.n_species != 1:
        raise ValueError("g_beta is defined for single-species models only")
    r = float(r)
    if not 0.0 <= r < 1.0:
        raise ValueError(f"r={r} outside [0, 1)")
    return float(np.log1p(-r)) + r + beta * beta * float(model.mixture.eval(r))


def f_grad(model: ModelSpec, beta: float, r) -> np.ndarray:
    """Analytic gradient: -lam*r/(1-r^2) + beta^2 * grad xi."""
    r = _coerce_r(model, r)
    lam = model.species.lam
    return -lam * r / (1.0 - r * r) + beta * beta * model.mixture.grad(r)


def f_hessian(model: ModelSpec, beta: float, r) -> np.ndarray:
    """Analytic Hessian; the entropy part is diagonal."""
    r = _coerce_r(model, r)
    lam = model.species.lam
    H = beta * beta * model.mixture.hessian(r)
    H[np.diag_indices_from(H)] += -lam * (1.0 + r * r) / (1.0 - r * r) ** 2
    return H


def hessian_at_zero(model: ModelSpec, beta: float) -> np.ndarray:
    """M(beta) = -diag(lam) + beta^2 * Q, from degree-2 coefficients only."""
    return -np.diag(model.species.lam) + beta * beta * model.mixture.degree2_matrix()


@dataclass(frozen=True)
class MaximizeResult:
    """Outcome of the global maximization of f over [0, 1)^S.

    ``near_maximizers`` lists grid-certified points whose value is within
    TOL_ZERO of the best (only when the certification grid ran); ties in
    the final comparison are broken toward the smallest Euclidean norm.
    """

    argmax: np.ndarray
    value: float
    starts_used: int
    converged: bool
    grid_certified: bool = False
    fun_evals: int = 0
    near_maximizers: tuple = ()


def _tilde_parts(model: ModelSpec, beta: float):
    xi1 = model.xi1()
    if xi1 <= 0.0:
        raise ValueError("truncated objective requires xi(1) > 0")
    b2 = beta * beta

    def value(xir):
        return b2 * xi1 * xir / (xi1 + xir)

    def dvalue(xir):
        return b2 * xi1 * xi1 / (xi1 + xir) ** 2

    return value, dvalue


def _objective(model: ModelSpec, beta: float, objective: str):
    """Return (f, grad f) callables on the clamped box."""
    lam = model.species.lam
    mix = model.mixture
    b2 = beta * beta
    if objective == "plain":
        def fun(r):
            return 0.5 * float(np.sum(lam * np.log1p(-r * r))) + b2 * float(mix.eval(r))

        def grad(r):
            return -lam * r / (1.0 - r * r) + b2 * mix.grad(r)
    elif objective == "tilde":
        energy, denergy = _tilde_parts(model, beta)

        def fun(r):
            return 0.5 * float(np.sum(lam * np.log1p(-r * r))) + energy(float(mix.eval(r)))

        def grad(r):
            xir = float(mix.eval(r))
            return -lam * r / (1.0 - r * r) + denergy(xir) * mix.grad(r)
    else:
        raise ValueError(f"unknown objective {objective!r}, expected 'plain' or 'tilde'")
    return fun, grad


def _xi_on_grid(model: ModelSpec, axes: list[np.ndarray]) -> np.ndarray:
    """xi evaluated on a tensor-product grid via per-axis power tables."""
    mix = model.mixture
    S = len(axes)
    if mix.n_terms == 0:
        return np.zeros(tuple(len(a) for a in axes))
    pows = [axes[s][:, None] ** mix.exponents[None, :, s] for s in range(S)]
    if S == 1:
        return pows[0] @ mix.coeffs
    if S == 2:
        return np.einsum("at,bt,t->ab", pows[0], pows[1], mix.coeffs)
    if S == 3:
        return np.einsum("at,bt,ct,t->abc", pows[0], pows[1], pows[2], mix.coeffs)
    raise ValueError("tensor-product grid supports at most 3 species")


def _grid(model: ModelSpec, n: int, per_axis):
    """Tensor-product grid of n points per axis over [0, 1 - DOMAIN_CLAMP]^S.

    Returns the axis, xi on the grid and the separable sum
    sum_s per_axis(s, axis), broadcast one axis at a time so that only the
    final sum has the full grid's size.
    """
    S = model.n_species
    axis = np.linspace(0.0, 1.0 - DOMAIN_CLAMP, n)
    xi_grid = _xi_on_grid(model, [axis] * S)
    total = None
    for s in range(S):
        shape = [1] * S
        shape[s] = n
        piece = per_axis(s, axis).reshape(shape)
        total = piece if total is None else total + piece
    return axis, xi_grid, total


def _grid_scan(model: ModelSpec, beta: float, objective: str):
    """Dense certification grid over [0, 1)^S for |S| <= 3."""
    lam = model.species.lam
    axis, xi_grid, ent = _grid(
        model, _GRID_POINTS, lambda s, a: 0.5 * lam[s] * np.log1p(-a * a)
    )
    if objective == "plain":
        F = ent + beta * beta * xi_grid
    else:
        energy, _ = _tilde_parts(model, beta)
        F = ent + energy(xi_grid)
    flat = int(np.argmax(F))
    idx = np.unravel_index(flat, F.shape)
    best = np.array([axis[i] for i in idx])
    fmax = float(F[idx])
    near_idx = np.argwhere(F >= fmax - TOL_ZERO)
    near = tuple(np.array([axis[i] for i in row]) for row in near_idx[:32])
    return best, fmax, near, F.size


def _starts(S: int, n_random_starts: int = 32) -> list[np.ndarray]:
    """Deterministic local-search starts in [0, 1)^S.

    Origin-perturbed points, then a coarse 3^S grid for |S| <= 3, or the
    2^S corners of an inner box plus seeded uniform points for |S| >= 4.
    """
    starts = [np.full(S, eps) for eps in (1e-4, 1e-2, 0.1)]
    if S <= 3:
        for combo in np.ndindex(*([3] * S)):
            starts.append(np.array([0.15 + 0.3 * c for c in combo]))
    else:
        for combo in np.ndindex(*([2] * S)):
            starts.append(np.array([0.2 + 0.4 * c for c in combo]))
        rng = np.random.Generator(np.random.Philox(key=2 + S))
        starts.extend(rng.uniform(0.0, 0.95, size=(n_random_starts, S)))
    return starts


def maximize_f(
    model: ModelSpec,
    beta: float,
    objective: str = "plain",
    *,
    n_random_starts: int = 32,
) -> MaximizeResult:
    """Global maximum of f_beta (or the truncated variant) over [0, 1)^S.

    Multi-start projected quasi-Newton ascent from origin-perturbed and
    coarse-grid starts, plus a dense certification grid for |S| <= 3.  The
    origin (value exactly 0) is always a candidate, so the reported value
    is always >= 0.  Non-convergence is flagged, never silently wrong.
    """
    if beta < 0.0:
        raise ValueError("beta must be >= 0")
    S = model.n_species
    if S > 6:
        raise ValueError("maximization supports at most 6 species")
    fun, grad = _objective(model, beta, objective)
    hi = 1.0 - DOMAIN_CLAMP
    bounds = [(0.0, hi)] * S

    starts = _starts(S, n_random_starts)
    grid_certified = False
    near: tuple = ()
    fun_evals = 0
    if S <= 3:
        g_best, g_val, near, g_evals = _grid_scan(model, beta, objective)
        starts.append(g_best)
        grid_certified = True
        fun_evals += g_evals

    # (value, norm, coordinates) candidates; the origin anchors value 0
    candidates: list[tuple[float, float, np.ndarray, bool]] = [
        (0.0, 0.0, np.zeros(S), True)
    ]
    for x0 in starts:
        res = minimize(
            lambda r: -fun(r),
            np.clip(x0, 0.0, hi),
            jac=lambda r: -grad(r),
            method="L-BFGS-B",
            bounds=bounds,
            options={"ftol": 1e-16, "gtol": 1e-12, "maxiter": 500},
        )
        fun_evals += int(res.nfev)
        x = np.clip(res.x, 0.0, hi)
        candidates.append((fun(x), float(np.linalg.norm(x)), x, bool(res.success)))

    candidates.sort(key=lambda t: (-t[0], t[1], tuple(t[2])))
    value, norm, argmax, ok = candidates[0]
    if value < 0.0:  # numerically impossible given the origin anchor
        value, argmax, ok = 0.0, np.zeros(S), True
    if grid_certified and g_val > value + TOL_MAX:
        # ascent missed the grid optimum's basin; fall back to the grid point
        value, argmax, ok = g_val, g_best, False
    near_kept = tuple(p for p in near if value - fun(p) <= TOL_ZERO) if grid_certified else ()
    return MaximizeResult(
        argmax=argmax,
        value=float(value),
        starts_used=len(starts),
        converged=bool(ok),
        grid_certified=grid_certified,
        fun_evals=fun_evals,
        near_maximizers=near_kept,
    )
