"""Deterministic functionals on overlap space and their global maximization.

The central object is

    f_beta(r) = 0.5 * sum_s lam(s) * log(1 - r(s)^2) + beta^2 * xi(r)

on [0, 1)^S, together with the truncated variant whose energy term is
beta^2 * xi(1) xi(r) / (xi(1) + xi(r)), the single-species criterion
g_beta(r) = log(1-r) + r + beta^2 xi(r), analytic first and second
derivatives, and the Hessian of f_beta at the origin

    M(beta) = -diag(lam) + beta^2 * Q

with Q the degree-2 coefficient matrix of the mixture.

Both functionals are defined once, as the separable entropy plus an energy
term in x = xi(r) (`_energy`, `_objective`): the pointwise functions, the
maximizer and its certification grid all evaluate that one definition.  The
tensor-product kernel `_grid` (xi and a separable per-axis sum on the grid
axis^S) is defined once as well; `criticality` and `quadrature` share it.
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


def _coerce_r(n_species: int, r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.ndim == 0:
        r = np.full(n_species, float(r))
    if r.shape != (n_species,):
        raise ValueError(f"overlap vector must have shape ({n_species},)")
    if np.any(r < 0.0) or np.any(r >= 1.0):
        raise ValueError(f"overlap vector {r} outside [0, 1)^S")
    return r


def _energy(model: ModelSpec, beta: float, objective: str):
    """Energy term as a function of x = xi(r), and its slope dE/dx at r.

    "plain" is beta^2 x, whose slope needs no xi; "tilde" is
    beta^2 xi(1) x / (xi(1) + x).
    """
    b2 = beta * beta
    if objective == "plain":
        return (lambda x: b2 * x), (lambda r: b2)
    if objective != "tilde":
        raise ValueError(f"unknown objective {objective!r}, expected 'plain' or 'tilde'")
    xi1 = model.xi1()
    if xi1 <= 0.0:
        raise ValueError("truncated functional requires xi(1) > 0")
    mix = model.mixture

    def energy(x):
        return b2 * xi1 * x / (xi1 + x)

    def slope(r):
        return b2 * xi1 * xi1 / (xi1 + float(mix.eval(r))) ** 2

    return energy, slope


def _objective(model: ModelSpec, beta: float, objective: str):
    """Return (f, grad f) callables on the clamped box."""
    lam = model.species.lam
    mix = model.mixture
    energy, slope = _energy(model, beta, objective)

    def fun(r):
        return 0.5 * float(np.sum(lam * np.log1p(-r * r))) + energy(float(mix.eval(r)))

    def grad(r):
        return -lam * r / (1.0 - r * r) + slope(r) * mix.grad(r)

    return fun, grad


def f_beta(model: ModelSpec, beta: float, r) -> float:
    """Entropy-plus-energy functional; equals 0 at r = 0."""
    return _objective(model, beta, "plain")[0](_coerce_r(model.n_species, r))


def f_tilde_beta(model: ModelSpec, beta: float, r) -> float:
    """Truncated variant with energy beta^2 xi(1) xi(r) / (xi(1) + xi(r))."""
    return _objective(model, beta, "tilde")[0](_coerce_r(model.n_species, r))


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
    return _objective(model, beta, "plain")[1](_coerce_r(model.n_species, r))


def f_hessian(model: ModelSpec, beta: float, r) -> np.ndarray:
    """Analytic Hessian; the entropy part is diagonal."""
    r = _coerce_r(model.n_species, r)
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


def _xi_on_grid(model: ModelSpec, axis: np.ndarray) -> np.ndarray:
    """xi on the tensor-product grid axis^S via per-axis power tables."""
    mix = model.mixture
    S = model.n_species
    if mix.n_terms == 0:
        return np.zeros((len(axis),) * S)
    pows = [axis[:, None] ** mix.exponents[None, :, s] for s in range(S)]
    if S == 1:  # a matrix-vector product; einsum would round differently
        return pows[0] @ mix.coeffs
    axes = "abcdef"[:S]
    return np.einsum(",".join(c + "t" for c in axes) + ",t->" + axes, *pows, mix.coeffs)


def _box_axis(n: int) -> np.ndarray:
    """n points on [0, 1 - DOMAIN_CLAMP], the axis of the certification grids."""
    return np.linspace(0.0, 1.0 - DOMAIN_CLAMP, n)


def _grid(model: ModelSpec, axis: np.ndarray, per_axis):
    """xi and the separable sum sum_s per_axis(s, axis) on the grid axis^S.

    The sum is broadcast one axis at a time, so that only the final sum
    has the full grid's size.
    """
    S = model.n_species
    xi_grid = _xi_on_grid(model, axis)
    total = None
    for s in range(S):
        piece = per_axis(s, axis).reshape([len(axis) if t == s else 1 for t in range(S)])
        total = piece if total is None else total + piece
    return xi_grid, total


def _grid_scan(model: ModelSpec, beta: float, objective: str):
    """Dense certification grid over [0, 1)^S for |S| <= 3."""
    lam = model.species.lam
    axis = _box_axis(_GRID_POINTS)
    xi_grid, ent = _grid(model, axis, lambda s, a: 0.5 * lam[s] * np.log1p(-a * a))
    F = ent + _energy(model, beta, objective)[0](xi_grid)
    idx = np.unravel_index(int(np.argmax(F)), F.shape)
    best = np.array([axis[i] for i in idx])
    fmax = float(F[idx])
    near_idx = np.argwhere(F >= fmax - TOL_ZERO)
    near = tuple(np.array([axis[i] for i in row]) for row in near_idx[:32])
    return best, fmax, near, F.size


def _starts(S: int) -> list[np.ndarray]:
    """Deterministic local-search starts in [0, 1)^S.

    Origin-perturbed points, then a coarse 3^S grid for |S| <= 3, or the
    2^S corners of an inner box plus 32 seeded uniform points for |S| >= 4.
    """
    starts = [np.full(S, eps) for eps in (1e-4, 1e-2, 0.1)]
    if S <= 3:
        for combo in np.ndindex(*([3] * S)):
            starts.append(np.array([0.15 + 0.3 * c for c in combo]))
    else:
        for combo in np.ndindex(*([2] * S)):
            starts.append(np.array([0.2 + 0.4 * c for c in combo]))
        rng = np.random.Generator(np.random.Philox(key=2 + S))
        starts.extend(rng.uniform(0.0, 0.95, size=(32, S)))
    return starts


def maximize_f(model: ModelSpec, beta: float, objective: str = "plain") -> MaximizeResult:
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

    starts = _starts(S)
    grid_certified = S <= 3
    near: tuple = ()
    fun_evals = 0
    if grid_certified:
        g_best, g_val, near, fun_evals = _grid_scan(model, beta, objective)
        starts.append(g_best)

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
