"""Exact finite-N second moment by log-domain Gauss-Legendre quadrature.

The quantity computed is

    (1/N) log  integral over [-1,1]^S of
        prod_s (omega_{N_s-1}/omega_{N_s}) (1 - r(s)^2)^{(N_s-3)/2}
        * exp(N beta^2 (xi(1) + xi(r)))  dr

with omega_d the surface area of the unit sphere in R^d.  The density
factor is the exact law of the per-species overlap between two independent
uniform points, so the value is 0 at beta = 0 for every N.  The sum over
the tensor-product nodes eliminates species (`_plan`): the species other
than a pivot split into components no term joins, and each is summed out
per pivot node on landscape's tensor-product grid, `_grid`, slab by slab.
So a chain, star or separable three-species model costs O(n^2) for n nodes
per axis, and only a model coupled across its non-pivot species (a triangle,
an r1 r2 r3 term) the O(n^3) of the full grid; the node ladder stops where a
rung would sum more than 513^3 points.  Everything is assembled in the log
domain; the only exponentiation happens inside shifted logsumexps, one per
component and slab, and one over the pivot nodes.

The Gauss-Legendre rule of a rung depends on the rung alone, so the module's
`roots_legendre` is scipy's, solved once per rung per process and held for
at most the ladder's six rungs, with read-only arrays.  `_log_integral` looks
that name up on every rung, so a wrapper bound to it sees one call per rung
on every call, warm or cold.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import special

from .landscape import _grid
from .montecarlo import FiniteModel

__all__ = ["QuadratureError", "log_sphere_surface", "log_overlap_density", "log_E_Z2_exact"]

_NODE_LADDER = (65, 129, 257, 513, 1025, 2049)
# two consecutive refinements must agree to this, absolutely
_REFINE_TOL = 1e-9
_MAX_POINTS = 513**3  # the most points one rung may sum


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to converge; carries the last residual."""

    def __init__(self, residual: float, nodes: int):
        super().__init__(f"quadrature residual {residual:.3e} after {nodes} nodes per axis")
        self.residual = residual
        self.nodes = nodes


@functools.lru_cache(maxsize=len(_NODE_LADDER))
def roots_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """scipy's n-node Gauss-Legendre (nodes, weights), solved once per n;
    the arrays are shared by every caller, so they are read-only."""
    rule = special.roots_legendre(n)
    for a in rule:
        a.flags.writeable = False
    return rule


def log_sphere_surface(d: int) -> float:
    """log of the surface area of the unit sphere in R^d."""
    return np.log(2.0) + (d / 2.0) * np.log(np.pi) - special.gammaln(d / 2.0)


def log_overlap_density(r: np.ndarray, d: int) -> np.ndarray:
    """log density of the overlap of two uniform points on a d-sphere."""
    return log_sphere_surface(d - 1) - log_sphere_surface(d) + ((d - 3) / 2.0) * np.log1p(-r * r)


def _logsumexp(a: np.ndarray, axis=None):
    """log(sum(exp(a))) over axis (every axis by default), bit for bit
    scipy.special.logsumexp's on finite input (scipy 1.17): the greatest
    elements are counted, m, and left out of the shifted sum, s, and the
    result is log1p(s / m) + log(m) + max."""
    axis = tuple(range(a.ndim)) if axis is None else axis
    top = np.max(a, axis=axis, keepdims=True)
    at_top = a == top
    shifted = a - top
    np.exp(shifted, out=shifted)
    shifted[at_top] = 0.0
    m = np.sum(at_top, axis=axis, keepdims=True, dtype=float)
    out = np.log1p(np.sum(shifted, axis=axis, keepdims=True) / m) + np.log(m) + top
    return out.squeeze(axis)[()]


def _plan(mix) -> tuple[int, list[list[int]]]:
    """The elimination order: (pivot, components).

    The pivot is the first species such that no term touches two others,
    each other species then a component alone; else species 0, with every
    other species in one component.
    """
    touches = mix.exponents > 0
    S = touches.shape[1]
    for p in range(S):
        rest = [s for s in range(S) if s != p]
        if touches[:, rest].sum(axis=1).max(initial=0) <= 1:
            return p, [[s] for s in rest]
    return 0, [list(range(1, S))]


def _log_integral(fm: FiniteModel, beta: float, n_nodes: int,
                  plan: tuple[int, list[list[int]]]) -> float:
    nodes, weights = roots_legendre(n_nodes)
    mix, nb2 = fm.model.mixture, fm.N * beta * beta
    touches = mix.exponents > 0
    p, comps = plan
    costs = [np.log(weights) + log_overlap_density(nodes, n_s) for n_s in fm.block_sizes]
    zeros = np.zeros(n_nodes)

    def per_axis(s, axis):  # the pivot's cost enters once, in the pivot vector
        return zeros if s == p else costs[s]

    # the pivot's own terms, plus each component reduced by a logsumexp over
    # its sub-grid per pivot node; one logsumexp over the pivot nodes
    pivot_terms = np.flatnonzero(~np.delete(touches, p, axis=1).any(axis=1))
    xi_p = np.concatenate([xi for xi, _ in _grid(fm.model, nodes, per_axis, [p], pivot_terms)])
    total = costs[p] + nb2 * (fm.model.xi1() + xi_p)
    for comp in comps:
        terms = np.flatnonzero(touches[:, comp].any(axis=1))
        sums = []
        for xi, cost in _grid(fm.model, nodes, per_axis, [p, *comp], terms):
            xi *= nb2  # the block N beta^2 xi + cost, built in xi's memory
            xi += cost
            del cost  # the logsumexp's temporaries may reuse its memory
            sums.append(_logsumexp(xi, axis=tuple(range(1, len(comp) + 1))))
        total = total + np.concatenate(sums)
    return float(_logsumexp(total)) / fm.N


def log_E_Z2_exact(fm: FiniteModel, beta: float) -> float:
    """(1/N) log of the exact finite-N second moment of the partition function.

    Adaptive Gauss-Legendre per axis: the node count is doubled until two
    consecutive refinements agree to _REFINE_TOL; raises QuadratureError when
    the ladder is exhausted.  Deterministic, no randomness involved.
    """
    if fm.model.n_species > 3:
        raise ValueError("tensor-product quadrature supports at most 3 species")
    if not np.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta!r}")
    prev = None
    # a rung sums n^(1 + largest component) points, capped for time rather
    # than memory: a coupled three-species model stops at 513 nodes
    plan = _plan(fm.model.mixture)
    largest = max(map(len, plan[1]), default=0)
    ladder = [n for n in _NODE_LADDER if n ** (1 + largest) <= _MAX_POINTS]
    for n_nodes in ladder:
        val = _log_integral(fm, beta, n_nodes, plan)
        residual = abs(val - prev) if prev is not None else np.inf
        if residual <= _REFINE_TOL:
            return val
        prev = val
    raise QuadratureError(residual, ladder[-1])
