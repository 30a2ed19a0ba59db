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
at most the ladder's six rungs, with read-only arrays, and so are its log
weights and log1p(-x^2) at its nodes (`_log_rule`).  `_log_integral` looks
that name up on every rung, so a wrapper bound to it sees one call per rung
on every call, warm or cold.

xi on a rung's nodes depends on neither N nor beta: the pivot's xi vector
and each component's xi grid are held (`_xi_grids`), read-only, keyed by
the exponent matrix's shape and bytes, the coefficients' bytes and the
rung, for every rung whose grids each fit in one slab of
landscape._SLAB_POINTS points.  The rungs used least recently are dropped
past _HELD_POINTS = 2^20 points (8 MB) in all; larger rungs, every rung of a
coupled three-species model among them, stream slab by slab.  A call builds
each block N beta^2 xi + cost from the held xi, broadcasting the component's
cost, and the logsumexp shifts that block in place; the value is bitwise
the one computed without holding anything.
"""

from __future__ import annotations

import collections
import functools

import numpy as np

from . import landscape
from .landscape import _grid, _on
from .montecarlo import FiniteModel

__all__ = ["QuadratureError", "log_sphere_surface", "log_overlap_density", "log_E_Z2_exact"]

_NODE_LADDER = (65, 129, 257, 513, 1025, 2049)
# two consecutive refinements must agree to this, absolutely
_REFINE_TOL = 1e-9
_MAX_POINTS = 513**3  # the most points one rung may sum
# the rungs' xi grids held for later calls (`_xi_grids`), least recently
# used first, and the most points they may hold together: four slabs of
# landscape._SLAB_POINTS, 8 MB
_HELD: collections.OrderedDict = collections.OrderedDict()
_HELD_POINTS = 2**20


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to converge; carries the last residual."""

    def __init__(self, residual: float, nodes: int):
        super().__init__(f"quadrature residual {residual:.3e} after {nodes} nodes per axis")
        self.residual = residual
        self.nodes = nodes


@functools.lru_cache(maxsize=len(_NODE_LADDER))
def roots_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """scipy's n-node Gauss-Legendre (nodes, weights), solved once per n;
    the arrays are shared by every caller, so they are read-only.  scipy is
    imported here, on first use, so that a process that never integrates
    never loads it."""
    from scipy import special

    rule = special.roots_legendre(n)
    for a in rule:
        a.flags.writeable = False
    return rule


@functools.lru_cache(maxsize=len(_NODE_LADDER))
def _log_rule(n: int, rule=roots_legendre) -> tuple[np.ndarray, np.ndarray]:
    """log of the n-node rule's weights and log1p(-x^2) at its nodes, from
    the cached rule (bound at definition, so a hook on the module attribute
    sees no call from here): computed once per rung and process, read-only."""
    nodes, weights = rule(n)
    held = np.log(weights), np.log1p(-nodes * nodes)
    for a in held:
        a.flags.writeable = False
    return held


_LOG_2, _LOG_PI = np.log(2.0), np.log(np.pi)


def log_sphere_surface(d: int) -> float:
    """log of the surface area of the unit sphere in R^d."""
    from scipy import special

    return _LOG_2 + (d / 2.0) * _LOG_PI - special.gammaln(d / 2.0)


def log_overlap_density(r: np.ndarray, d: int) -> np.ndarray:
    """log density of the overlap of two uniform points on a d-sphere."""
    return _log_density(np.log1p(-r * r), d)


def _log_density(log1m: np.ndarray, d: int) -> np.ndarray:
    """`log_overlap_density` from log1m = log1p(-r^2)."""
    return log_sphere_surface(d - 1) - log_sphere_surface(d) + ((d - 3) / 2.0) * log1m


def _logsumexp(a: np.ndarray, axis=None):
    """log(sum(exp(a))) over axis (every axis by default), bit for bit
    scipy.special.logsumexp's on finite input (scipy 1.17): the greatest
    elements are counted, m, and left out of the shifted sum, s, and the
    result is log1p(s / m) + log(m) + max.

    The shift and the exponential are computed in a's memory, so a is
    overwritten: pass a copy of an array that is still needed.
    """
    axis = tuple(range(a.ndim)) if axis is None else axis
    top = a.max(axis=axis, keepdims=True)
    at_top = a == top
    a -= top
    np.exp(a, out=a)
    a[at_top] = 0.0
    m = at_top.sum(axis=axis, keepdims=True, dtype=float)
    out = np.log1p(a.sum(axis=axis, keepdims=True) / m) + np.log(m) + top
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


def _xi_grids(model, nodes: np.ndarray, plan: tuple[int, list[list[int]]]):
    """xi on a rung's grids, as (xi_p, blocks): xi_p sums the pivot's own
    terms at the nodes, and blocks holds per component the slabs of the sum
    of its terms on the grid nodes^(1 + len(comp)), pivot axis first.

    A rung whose every grid fits in one slab of landscape._SLAB_POINTS points
    is held (`_HELD`), read-only, keyed by the exponent matrix's shape and
    bytes, the coefficients' bytes and the node count, so every later call
    on that mixture and rung reads it; its component grids are then one slab
    each.  The plan must be the mixture's `_plan`, which the exponents fix.
    Any other rung is streamed, each slab a new array.
    """
    (p, comps), n = plan, len(nodes)
    sizes = [n ** (1 + len(comp)) for comp in comps]
    if max(sizes, default=n) > landscape._SLAB_POINTS or n + sum(sizes) > _HELD_POINTS:
        return _stream_xi(model, nodes, plan)
    mix = model.mixture
    key = mix.exponents.shape, mix.exponents.tobytes(), mix.coeffs.tobytes(), n
    held = _HELD.get(key)
    if held is None:
        xi_p, blocks = _stream_xi(model, nodes, plan)
        held = _HELD[key] = xi_p, *(xi for block in blocks for xi in block)
        for xi in held:
            xi.flags.writeable = False
        while _held_points() > _HELD_POINTS:  # never the rung just held
            _HELD.popitem(last=False)
    else:
        _HELD.move_to_end(key)
    return held[0], [(xi,) for xi in held[1:]]


def _stream_xi(model, nodes: np.ndarray, plan: tuple[int, list[list[int]]]):
    """`_xi_grids`, slab by slab from landscape's `_grid`."""
    p, comps = plan
    touches = model.mixture.exponents > 0
    pivot_terms = np.flatnonzero(touches.sum(axis=1) == touches[:, p])  # on p alone
    xi_p = np.concatenate(list(_grid(model, nodes, None, [p], pivot_terms)))
    comp_terms = (np.flatnonzero(touches[:, comp].any(axis=1)) for comp in comps)
    return xi_p, [_grid(model, nodes, None, [p, *comp], terms)
                  for comp, terms in zip(comps, comp_terms)]


def _held_points() -> int:
    """The points of every grid held."""
    return sum(xi.size for held in _HELD.values() for xi in held)


def _log_integral(fm: FiniteModel, beta: float, n_nodes: int,
                  plan: tuple[int, list[list[int]]]) -> float:
    nodes, _ = roots_legendre(n_nodes)
    log_weights, log1m = _log_rule(n_nodes)
    nb2 = fm.N * beta * beta
    p, comps = plan
    costs = [log_weights + _log_density(log1m, n_s) for n_s in fm.block_sizes]
    # the pivot's own terms, plus each component reduced by a logsumexp over
    # its sub-grid per pivot node; one logsumexp over the pivot nodes
    xi_p, blocks = _xi_grids(fm.model, nodes, plan)
    total = costs[p] + nb2 * (fm.model.xi1() + xi_p)
    for comp, slabs in zip(comps, blocks):
        # the component's cost, along the block's axes after the pivot's
        parts = [costs[s][_on(i, len(comp) + 1)] for i, s in enumerate(comp, 1)]
        cost = sum(parts[1:], parts[0])
        sums = []
        for xi in slabs:
            # the block N beta^2 xi + cost, in xi's memory unless xi is held
            block = np.multiply(xi, nb2, out=xi if xi.flags.writeable else None)
            block += cost
            sums.append(_logsumexp(block, axis=tuple(range(1, len(comp) + 1))))
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
