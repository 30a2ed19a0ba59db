"""Exact finite-N second moment by log-domain Gauss-Legendre quadrature.

The quantity computed is

    (1/N) log  integral over [-1,1]^S of
        prod_s (omega_{N_s-1}/omega_{N_s}) (1 - r(s)^2)^{(N_s-3)/2}
        * exp(N beta^2 (xi(1) + xi(r)))  dr

with omega_d the surface area of the unit sphere in R^d.  The density
factor is the exact law of the per-species overlap between two independent
uniform points, so the value is 0 at beta = 0 for every N.  The sum over
the tensor-product nodes eliminates species: the species other than a pivot
split into components no term joins, and each is summed out per pivot node.
So a chain, star or separable three-species model costs O(n^2) for n nodes
per axis, and only a model coupled across its non-pivot species (a triangle,
an r1 r2 r3 term) the O(n^3) of the full grid.  Everything is assembled in
the log domain; the only exponentiation happens inside shifted logsumexps,
per component and slab of pivot nodes, per slab, and once over the slabs.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln, logsumexp, roots_legendre

from . import landscape
from .montecarlo import FiniteModel

__all__ = ["QuadratureError", "log_sphere_surface", "log_overlap_density", "log_E_Z2_exact"]

_NODE_LADDER = (65, 129, 257, 513, 1025, 2049)
# two consecutive refinements must agree to this, absolutely
_REFINE_TOL = 1e-9


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to converge; carries the last residual."""

    def __init__(self, residual: float, nodes: int):
        super().__init__(f"quadrature residual {residual:.3e} after {nodes} nodes per axis")
        self.residual = residual
        self.nodes = nodes


def log_sphere_surface(d: int) -> float:
    """log of the surface area of the unit sphere in R^d."""
    return np.log(2.0) + (d / 2.0) * np.log(np.pi) - gammaln(d / 2.0)


def log_overlap_density(r: np.ndarray, d: int) -> np.ndarray:
    """log density of the overlap of two uniform points on a d-sphere."""
    return log_sphere_surface(d - 1) - log_sphere_surface(d) + ((d - 3) / 2.0) * np.log1p(-r * r)


def _log_integral(fm: FiniteModel, beta: float, n_nodes: int) -> float:
    nodes, weights = roots_legendre(n_nodes)
    mix, S = fm.model.mixture, fm.model.n_species
    nb2 = fm.N * beta * beta
    touches = mix.exponents > 0
    for p in range(S):  # pivot: the first species such that no term touches two others
        rest = [s for s in range(S) if s != p]
        if touches[:, rest].sum(axis=1).max(initial=0) <= 1:
            comps = [[s] for s in rest]  # each a component alone
            break
    else:
        p, comps = 0, [list(range(1, S))]
    pows = [nodes[:, None] ** mix.exponents[None, :, s] for s in range(S)]
    costs = [np.log(weights) + log_overlap_density(nodes, fm.block_sizes[s]) for s in range(S)]
    # the pivot's own terms, then per slab of pivot nodes each component
    # reduced by a logsumexp over its sub-grid; one logsumexp per slab and one
    # over the slabs
    pivot_terms = np.flatnonzero(~np.delete(touches, p, axis=1).any(axis=1))
    pivot = costs[p] + nb2 * (fm.model.xi1() + landscape._xi_block(
        mix, pows, [p], pivot_terms, slice(None)))
    rows = max(1, landscape._SLAB_POINTS // n_nodes ** max(map(len, comps), default=0))
    slabs = []
    for lo in range(0, n_nodes, rows):
        total = pivot[lo:lo + rows]
        for comp in comps:
            terms = np.flatnonzero(touches[:, comp].any(axis=1))
            block = nb2 * landscape._xi_block(mix, pows, [p, *comp], terms, slice(lo, lo + rows))
            for i, s in enumerate(comp, 1):
                block = block + landscape._along(i, len(comp) + 1, costs[s])
            total = total + logsumexp(block, axis=tuple(range(1, len(comp) + 1)))
        slabs.append(logsumexp(total))
    return float(logsumexp(slabs)) / fm.N


def log_E_Z2_exact(fm: FiniteModel, beta: float) -> float:
    """(1/N) log of the exact finite-N second moment of the partition function.

    Adaptive Gauss-Legendre per axis: the node count is doubled until two
    consecutive refinements agree to _REFINE_TOL; raises QuadratureError when
    the ladder is exhausted.  Deterministic, no randomness involved.
    """
    if fm.model.n_species > 3:
        raise ValueError("tensor-product quadrature supports at most 3 species")
    prev = None
    # three species stop at 513 nodes for time, not memory: a coupled model
    # sums 513^3 points, about 8 times the 257^3 rung (others cost n^2)
    ladder = _NODE_LADDER if fm.model.n_species < 3 else _NODE_LADDER[:4]
    for n_nodes in ladder:
        val = _log_integral(fm, beta, n_nodes)
        residual = abs(val - prev) if prev is not None else np.inf
        if residual <= _REFINE_TOL:
            return val
        prev = val
    raise QuadratureError(residual, ladder[-1])
