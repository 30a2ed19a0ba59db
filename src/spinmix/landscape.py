"""Deterministic functionals on overlap space and their global maximization.

The central object is

    f_beta(r) = 0.5 * sum_s lam(s) * log(1 - r(s)^2) + beta^2 * xi(r)

on [0, 1)^S, together with the truncated variant whose energy term is
beta^2 * xi(1) xi(r) / (xi(1) + xi(r)), the single-species criterion
g_beta(r) = log(1-r) + r + beta^2 xi(r), analytic first and second
derivatives, and the Hessian of f_beta at the origin

    M(beta) = -diag(lam) + beta^2 * Q

with Q the degree-2 coefficient matrix of the mixture (`hessian_at_zero`
is `f_hessian` at 0).

All three functionals are one table, `_energy`: an energy term in x = xi(r)
minus a separable cost, the entropy for f_beta and its truncated variant and
-(log(1-r) + r) for g_beta.  Every energy term has one form, E(x) = A x /
(B + C x): beta^2 x is (beta^2, 1, 0), the xi(1) -> infinity limit of the
truncated beta^2 xi(1) x / (xi(1) + x), which is (beta^2 xi(1), xi(1), 1).
An objective of the global search, `_search`, is a rule (`_Rule`): (A, B, C)
and a kind, a function of x = xi(r) and of the cost summed over species, c.
f, its truncated twin and g are the kind E(x) - c, with partials (E'(x), -1)
in x and c; `criticality`'s threshold ratios are the other kind, -(c + t) /
E(x) at beta = 1 with t = TOL_ZERO, with partials ((c + t) E'(x) / E(x)^2,
-1 / E(x)).  Only this module turns a rule into its value (`_value`), its
value and partials, which share B + C x and E(x) (`_partials`), and its
level for the second-order bound (`_may_hold`), each branching once on the
kind.  A batch is one rule whose fields hold one entry per row, which one
expression evaluates; the rules of one search share their kind
(`maximize_f` searches f, `criticality` the ratios), so the kind is never
per row.  `_search` evaluates the rule on the certification grid and, by
`_evaluate`, at the points of its local phase: the values and the gradient
by the chain rule, dvalue/dx grad xi + dvalue/dc grad c, from one pass of
xi's table of the orders 0 and 1.  The pointwise functions are `_evaluate`
on a batch of one, so each objective is written once, and a maximum is its
functional at its argmax, bit for bit.  `_starts` alone
holds the per-S policy (`_GRIDS`): the grid (4001 points for one
species, 201 per axis for two or three, none for four to six), whose best
point is one start, and the fixed starts; a grid
searched whole is computed once for all the rules.  `_search` refuses more
than six species and returns, for each of several rules that share one cost,
the best of its starts after one local phase for them all, `_ascend`, which
moves every start of every rule at once as one batch by projected
quasi-Newton steps in u = artanh(r), where the entropy's log barrier
-1/2 log(1 - r^2) is log cosh u, of curvature at most 1, no trial moving a
coordinate of u by more than 1, so the rules and their gradients are
evaluated on batches of points r, elementwise and without BLAS: each round
reads xi and grad xi at every trial from one power table per point.  A
batch takes as many rounds as its slowest start, and each rule's result is
the one it reaches alone, bit for bit.  No run ends below its start, so a
gridded result is never below the search's value at the grid's best point,
bit for bit.  xi's terms are added in term order, on the grid as in the
search, so a grid point's xi is the search's, bit for bit (`mixture`).
`maximize_f` is one search of one rule; `maximize_each` searches f and its
truncated twin at a beta as one batch (`spinmix scan`).

The tensor-product kernel `_kernel` (the mixture's xi, `Mixture._on_grid`,
and a separable per-axis sum at points of the grid axis^k, over some or all
species) is written once.  `_grid` runs it on the whole grid in slabs of
about _SLAB_POINTS points, each consumer reducing slab by slab (an argmax, a
logsumexp), so memory stays bounded at any grid size: the search's grid of
one or two species, and `quadrature`'s blocks over which it eliminates
species.  For three species the search's grid of 8.1M points is searched by
branch and bound (`_grid_start`): xi and every cost are nondecreasing in
each coordinate, so the corners of a box of grid points bound the rule on
it, and a rule whose cost is the entropy, E(xi) minus the entropy with E
concave and nondecreasing, is also bounded to second order from xi at the
box's corners, which the kernel has computed for the corner bound, and one
box-enclosure layer, `_enclose`: xi and grad xi at the centre, hess xi at
the upper corner, which bounds it entrywise, and the entropy's value,
gradient and least curvature.  f, its truncated twin
and minus both threshold ratios (by Dinkelbach's parametrization) are all
such rules.  Only the boxes that may hold the greatest value are evaluated,
whole; the best point and its value are the whole grid's, bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .mixture import _coerce_r
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
    "maximize_each",
    "DOMAIN_CLAMP",
    "TOL_ZERO",
]

# every point searched has coordinates at most 1 - DOMAIN_CLAMP, where the
# entropy's log singularity is still resolved: the grids' top point, and in
# the ascent r = min(tanh(u), 1 - DOMAIN_CLAMP), with u at most its artanh
DOMAIN_CLAMP = 1e-8
# values at or below this count as "the maximum is zero"
TOL_ZERO = 1e-10

# points per slab of a tensor-product grid: 2 MB per float64 array
_SLAB_POINTS = 2**18
# the search's grids by species count (`_starts`): points per axis, and the
# side of the boxes `_grid_start` evaluates whole, which is the whole axis
# where no branch and bound runs
_GRIDS = {1: (4001, 4001), 2: (201, 201), 3: (201, 4)}
# `_grid_start` drops a box whose bound is below the greatest value seen by
# more than this times max(1, |that value|) (`_cut`)
_PRUNE = 1e-12

# the local ascent (`_ascend`): the stopping tolerances on the sup norm of the
# projected gradient in u = artanh(r) and on the relative change of f, the
# round budget, the Armijo constant, the trials one line search may take, the
# widest active-set margin, the growth of a line search's first trial over
# the last step taken, and the least curvature s.y / y.y of a BFGS pair
_GTOL = 1e-12
_FTOL = 1e-14
_MAXITER = 1000
_ARMIJO = 1e-4
_BACKTRACKS = 30
_EPS_ACTIVE = 1e-9
_GROW = 4.0
_CURVATURE = 2.2e-16


def _entropy(lam, a):
    """The entropy's cost -1/2 lam log(1 - a^2) at the coordinates a, with lam
    one species' proportion along a grid axis, or every species' on a (K, S)
    batch of points."""
    return -0.5 * lam * np.log1p(-a * a)


def _entropy_grad(lam, r):
    return lam * r / (1.0 - r * r)


def _g_cost(lam, a):
    """g's cost -(log(1 - a) + a), of one species."""
    return -(np.log1p(-a) + a)


def _g_cost_grad(lam, r):
    return r / (1.0 - r)


class _Rule(NamedTuple):
    """A searched objective of x = xi(r) and c, the cost summed over species,
    through the energy E(x) = A x / (B + C x): E(x) - c, or when `ratio`,
    -(c + TOL_ZERO) / E(x), minus a threshold ratio, -inf where E(x) = 0.  In
    a batch (`_search`) a coefficient its rules do not share is an array, one
    entry per row; the kind `ratio` is always shared."""

    A: float
    B: float
    C: float
    ratio: bool = False


def _energy(model: ModelSpec, beta: float, objective: str):
    """The objective's rule (`_Rule`) and its cost: (rule, cost, dcost), with
    f = E(xi(r)) minus the sum over species of cost(lam_s, r_s), and dcost
    the cost's gradient, cost(lam, r) and dcost(lam, r) on a (K, S) batch.

      "plain"      E = beta^2 x                      (A, B, C) = (beta^2, 1, 0)
      "tilde"      E = beta^2 xi(1) x / (xi(1) + x)  (beta^2 xi(1), xi(1), 1)
      "talagrand"  E = beta^2 x                      (beta^2, 1, 0)

    with the entropy as cost (`_entropy`), but for "talagrand", the g
    criterion of one species, whose cost is -(log(1 - r) + r) (`_g_cost`).
    At beta = 1 each is the energy of the objective's threshold ratio.
    """
    b2 = beta * beta
    if objective == "talagrand" and model.n_species != 1:
        raise ValueError("the g criterion applies to single-species models only")
    cost, dcost = ((_g_cost, _g_cost_grad) if objective == "talagrand"
                   else (_entropy, _entropy_grad))
    if objective != "tilde":
        return _Rule(b2, 1.0, 0.0), cost, dcost
    xi1 = model.xi1()
    if xi1 <= 0.0:
        raise ValueError("truncated functional requires xi(1) > 0")
    return _Rule(b2 * xi1, xi1, 1.0), cost, dcost


def _value(rule: _Rule, x, c, energy=None):
    """The rule's value at x = xi(r) and the summed cost c, from the energy
    E(x) when it is given."""
    A, B, C, ratio = rule
    energy = A * x / (B + C * x) if energy is None else energy
    if not ratio:
        return energy - c
    return np.divide(-(c + TOL_ZERO), energy, out=np.full(np.shape(energy), -np.inf),
                     where=energy > 0.0)


def _partials(rule: _Rule, x, c):
    """The rule's value (`_value`) and its partial derivatives in x and in c:
    (E'(x), -1) for f, with E'(x) = A B / (B + C x)^2, and ((c + TOL_ZERO)
    E'(x) inv^2, -inv) for minus a ratio, with inv = 1 / E(x), 0 where E(x)
    = 0.  The two share B + C x and E(x)."""
    A, B, C, ratio = rule
    den = B + C * x
    energy = A * x / den
    value, slope = _value(rule, x, c, energy), A * B / den ** 2
    if not ratio:
        return value, slope, -1.0
    inv = np.divide(1.0, energy, out=np.zeros(np.shape(energy)), where=energy > 0.0)
    return value, (c + TOL_ZERO) * slope * inv * inv, -inv


def _take(rule: _Rule, index) -> _Rule:
    """The batch's rule at the rows `index`: each field held per row taken."""
    return _Rule(*(f.take(index) if isinstance(f, np.ndarray) else f for f in rule))


def _evaluate(model: ModelSpec, rule: _Rule, cost, dcost, X):
    """The rule's values at xi(r) and the sum over s of cost(lam_s, r(s)),
    and their r-gradients, at the (K, S) batch X: xi and grad xi from one
    pass of the mixture's table of the orders 0 and 1, the gradient by the
    chain rule, dvalue/dx grad xi + dvalue/dc grad c.  A rule's field may
    hold one entry per row (`_search`)."""
    lam = model.species.lam
    jet = model.mixture._partials(X, (0, 1))  # xi, then its gradient
    value, dx, dc = _partials(rule, jet[:, 0], np.add.reduce(cost(lam, X), -1))
    return value, (dx * jet[:, 1:].T + dc * dcost(lam, X).T).T


def _at(model: ModelSpec, beta: float, objective: str, r):
    """The objective's value and r-gradient at the point r: the search's
    evaluation (`_evaluate`) on a batch of one."""
    value, grad = _evaluate(model, *_energy(model, beta, objective),
                            _coerce_r(model.n_species, r)[None])
    return float(value[0]), grad[0]


def f_beta(model: ModelSpec, beta: float, r) -> float:
    """Entropy-plus-energy functional; equals 0 at r = 0."""
    return _at(model, beta, "plain", r)[0]


def f_tilde_beta(model: ModelSpec, beta: float, r) -> float:
    """Truncated variant with energy beta^2 xi(1) xi(r) / (xi(1) + xi(r))."""
    return _at(model, beta, "tilde", r)[0]


def g_beta(model: ModelSpec, beta: float, r: float) -> float:
    """Single-species criterion log(1-r) + r + beta^2 xi(r)."""
    return _at(model, beta, "talagrand", r)[0]


def f_grad(model: ModelSpec, beta: float, r) -> np.ndarray:
    """Analytic gradient: -lam*r/(1-r^2) + beta^2 * grad xi."""
    return _at(model, beta, "plain", r)[1]


def f_hessian(model: ModelSpec, beta: float, r) -> np.ndarray:
    """Analytic Hessian; the entropy part is diagonal."""
    r = _coerce_r(model.n_species, r)
    lam = model.species.lam
    H = beta * beta * model.mixture.hessian(r)
    H[np.diag_indices_from(H)] += -lam * (1.0 + r * r) / (1.0 - r * r) ** 2
    return H


def hessian_at_zero(model: ModelSpec, beta: float) -> np.ndarray:
    """M(beta) = -diag(lam) + beta^2 * Q, the Hessian of f_beta at the origin."""
    return f_hessian(model, beta, 0.0)


@dataclass(frozen=True)
class MaximizeResult:
    """Outcome of a global maximization over [0, 1)^S (`_search`): of f for
    maximize_f, of minus a threshold ratio for `criticality`.

    Ties in the final comparison are broken toward the smallest Euclidean
    norm.
    """

    argmax: np.ndarray
    value: float
    starts_used: int
    converged: bool
    grid_certified: bool
    fun_evals: int


@functools.cache
def _box_axis(n: int) -> np.ndarray:
    """n points on [0, 1 - DOMAIN_CLAMP], the axis of the certification grids:
    made once per n and per process, and read-only, since searches share it."""
    axis = np.linspace(0.0, 1.0 - DOMAIN_CLAMP, n)
    axis.setflags(write=False)
    return axis


def _on(i: int, dims: int, k=slice(None)) -> tuple:
    """An index that places k along axis i of a dims-axis block, a new axis
    on each of the others."""
    return tuple(k if a == i else None for a in range(dims))


def _kernel(model: ModelSpec, axis: np.ndarray, per_axis, axes=None, terms=slice(None)):
    """The tensor-product kernel on the grid axis^len(axes), species axes[i]
    along grid axis i (every species by default): a function of one index
    per grid axis, each an integer array or slices and new axes (`_on`),
    whose results broadcast together, returning (xi, sum_i
    per_axis(lam[axes[i]], axis)[index[i]]) at those grid points, lam the
    species' proportions, or xi alone when per_axis is None.

    xi is the mixture's, the sum of its `terms` (every term by default) on
    the grid (`Mixture._on_grid`).  The cost is summed from grid axis 0 on.
    Each point's bits depend on its indices only, never on the other points
    evaluated with it.
    """
    axes = range(model.n_species) if axes is None else axes
    xi = model.mixture._on_grid(axis, axes, terms)
    if per_axis is None:
        return xi
    costs = [per_axis(model.species.lam[s], axis) for s in axes]

    def at(index):
        parts = [costs[i][index[i]] for i in range(len(axes))]
        # the per-axis sum, unnamed so that the caller holds its only reference
        return xi(index), sum(parts[1:], parts[0])

    return at


def _grid(model: ModelSpec, axis: np.ndarray, per_axis, axes=None, terms=slice(None)):
    """Yield `_kernel`'s (xi, summed cost), or xi alone when per_axis is
    None, on the whole grid axis^len(axes), slab by slab.

    A slab is a block of leading-axis rows in C order, of at most
    _SLAB_POINTS points (one row when a row alone is larger), so no array
    holds the whole grid.  Each slab's xi is a new array, which the consumer
    may overwrite.
    """
    at = _kernel(model, axis, per_axis, axes, terms)
    dims = model.n_species if axes is None else len(axes)
    n = len(axis)
    rows = max(1, _SLAB_POINTS // n ** (dims - 1))
    for lo in range(0, n, rows):
        yield at([_on(0, dims, slice(lo, lo + rows))] + [_on(i, dims) for i in range(1, dims)])


def _cut(best: float) -> float:
    """The least bound of a box `_grid_start` keeps, given the greatest value
    seen."""
    return best - _PRUNE * max(1.0, abs(best))


class _Enclosure(NamedTuple):
    """`_enclose`'s pieces on a batch of boxes [a, b], one row per box."""

    c: np.ndarray       # (K, S) centres
    h: np.ndarray       # (K, S) half-widths: |r - c| <= h on the box
    xi_c: np.ndarray    # (K,) xi at c
    grad_c: np.ndarray  # (K, S) grad xi at c
    hess_b: np.ndarray  # (K, S, S) hess xi at b, entrywise its greatest
    cost_c: np.ndarray  # (K,) the entropy at c, summed over species
    dcost_c: np.ndarray  # (K, S) its gradient at c
    curv_a: np.ndarray  # (K, S) -lam (1 + a^2) / (1 - a^2)^2, the greatest
    #                     on the box of minus the entropy's second derivative


def _enclose(model: ModelSpec, a: np.ndarray, b: np.ndarray) -> _Enclosure:
    """The enclosures of xi and of the entropy -1/2 sum_s lam_s log(1 - r_s^2)
    on a (K, S) batch of boxes [a, b] in [0, 1)^S, one row per box, but for
    xi's bounds at the corners, which the caller has.

    Every coefficient is nonnegative, so xi and each of its partial
    derivatives is nondecreasing in each coordinate: on a box xi lies in
    [xi(a), xi(b)] and hess xi lies entrywise in [0, hess xi(b)].  The
    entropy's second derivative in r_s, lam_s (1 + r_s^2) / (1 - r_s^2)^2,
    rises with r_s, so it is least at a.
    """
    mix, lam = model.mixture, model.species.lam
    c = 0.5 * (a + b)
    # one ulp above the rounded distances, each within half an ulp
    h = np.nextafter(np.maximum(b - c, c - a), np.inf)
    aa = a * a
    jet = mix._partials(c, (0, 1))  # xi, then its gradient
    return _Enclosure(
        c, h, jet[:, 0], jet[:, 1:],
        mix._partials(b, 2).reshape(b.shape + b.shape[-1:]),
        np.add.reduce(_entropy(lam, c), -1), _entropy_grad(lam, c),
        -lam * (1.0 + aa) / (1.0 - aa) ** 2)


def _may_hold(model: ModelSpec, rule: _Rule, a: np.ndarray, b: np.ndarray, xi_a: np.ndarray,
              xi_b: np.ndarray, level: float) -> np.ndarray:
    """Whether each box [a, b] of a (K, S) batch, with xi at its corners
    xi_a and xi_b, may hold a point where the rule, with the entropy as its
    cost, is at least `level`, xi computed as the grid and the search
    compute it, bit for bit alike (`Mixture._on_grid`): False only where the
    second-order bound rules it out.

    The rule's level (w, t) is (1, level) for E(xi) - c, and (-level,
    TOL_ZERO) for minus a ratio (Dinkelbach's parametrization: at level < 0,
    -(c + t) / E is at least level exactly where -level E - c is at least
    t).  With E now w times the rule's energy, concave and nondecreasing,
    the box must hold a point where phi = E(xi) - entropy is at least t.  On
    a box of centre c and half-width h (`_enclose`), Taylor's theorem with
    r = c + d gives

        phi(r) <= phi(c) + sum_s max_{|d_s| <= h_s} (g_s d_s + U_ss d_s^2 / 2)
                  + sum_{s != u} U_su h_s h_u / 2,

    with g = grad phi(c) and U = E'(xi(a)) hess xi(b) + diag(curv_a): the
    Hessian of phi is E'(xi) hess xi + E''(xi) grad xi grad xi' minus the
    entropy's, the middle term is at most 0, E' falls as xi rises from
    xi(a), and hess xi rises to hess xi(b).  The maximum over d_s is
    g_s^2 / (2 |U_ss|) where U_ss < 0 and the peak lies inside, |g_s| <
    -U_ss h_s, else |g_s| h_s + U_ss h_s^2 / 2.

    Rounding.  Each piece of the bound, and the rule's value at a grid
    point, is a sum of at most S^2 + S + 1 terms, each made by at most 3 S +
    T + 8 operations (T the terms of xi), every one of them within an ulp
    (numpy's pow, log1p and arithmetic); the corner values of xi are the
    grid's, at most 2 S + T operations each (S powers, S - 1 products, the
    coefficient and T - 1 sums): fewer
    than S^2 + 4 S + T + 10 roundings of relative size eps, and a further
    eps / (1 - r^2) where 1 - r^2 is formed.  Twice that count covers the
    products of errors, so on the box computed and exact values differ by
    less than

        margin = 2 (S^2 + 4 S + T + 10) eps / min_s (1 - b_s^2) * M,

    with M the sum of the pieces' magnitudes: E(xi(b)) and sum_s lam_s (the
    energy at any point of the box, and the entropy, whose value there is
    at most sum_s lam_s / (2 (1 - b_s^2))), |t|, E(xi(c)) and the entropy at
    c, the two parts of each |g_s| h_s, and each |U_su| h_s h_u.  A box is
    ruled out only where bound + margin < t.
    """
    w, t = (-level, TOL_ZERO) if rule.ratio else (1.0, level)
    form = rule._replace(ratio=False)  # E(x) - c, read at c = 0 for E and E'
    K, S = a.shape
    lam = model.species.lam
    keep = np.ones(K, dtype=bool)
    if not (math.isfinite(w) and w >= 0.0 and math.isfinite(t)):
        return keep
    terms = model.mixture.n_terms
    units = 2 * (S * S + 4 * S + terms + 10) * np.finfo(float).eps
    # the largest temporary, hess xi's gather of at most S factors for the
    # S^2 partials of every term, stays within _SLAB_POINTS scalars
    per = max(1, _SLAB_POINTS // (S**3 * max(terms, 1)))
    for lo in range(0, K, per):
        box = slice(lo, lo + per)
        e = _enclose(model, a[box], b[box])
        # the energy and its gradient at c, and its part of U
        centre, slope, _ = _partials(form, e.xi_c, 0.0)
        rise = w * slope[..., None] * e.grad_c
        curve = w * _partials(form, xi_a[box], 0.0)[1][..., None, None] * e.hess_b
        g = np.abs(rise - e.dcost_c)  # |g_s|
        # the energy's part of U_su h_s h_u, summed over every pair and over
        # the diagonal, and -U_ss h_s
        cross = curve * (e.h[:, :, None] * e.h[:, None, :])
        pairs, diagonal = cross.sum((1, 2)), cross.diagonal(0, 1, 2).sum(-1)
        drop = -(curve.diagonal(0, 1, 2) + e.curv_a) * e.h
        inner = g < drop
        peak = np.where(inner, 0.5 * g * g / np.where(inner, drop, 1.0) * e.h,
                        (g - 0.5 * drop) * e.h)
        centre = w * centre
        bound = centre - e.cost_c + peak.sum(-1) + 0.5 * (pairs - diagonal)
        size = (w * _value(form, xi_b[box], 0.0) + lam.sum() + abs(t) + centre + e.cost_c
                + ((rise + e.dcost_c - e.curv_a * e.h) * e.h).sum(-1) + pairs)
        margin = units * size / (1.0 - b[box] * b[box]).min(-1)
        keep[box] = ~(bound + margin < t)
    return keep


def _grid_scan(model: ModelSpec, rules, cost, axis: np.ndarray) -> list[tuple[int, int]]:
    """`_grid_start` of each of `rules` on the whole grid, with no bound: one
    pass of `_grid`, whose slabs' xi and summed cost serve every rule."""
    best, flat, evals = [-np.inf] * len(rules), [0] * len(rules), 0
    for xi, c in _grid(model, axis, cost):
        for k, rule in enumerate(rules):
            v = _value(rule, xi, c)
            i = int(np.argmax(v))
            if evals == 0 or v.flat[i] > best[k]:
                best[k], flat[k] = v.flat[i], evals + i
        evals += xi.size
    return [(f, evals) for f in flat]


def _grid_start(model: ModelSpec, rule: _Rule, cost, axis: np.ndarray,
                side: int) -> tuple[int, int]:
    """The first greatest value in C order of the rule (`_value`) on the
    grid axis^S, as (C-order index, values computed), by branch and bound
    over boxes of grid points down to boxes of side `side`.

    Every coefficient is nonnegative, so xi and every cost are nondecreasing
    in each coordinate, and each rule rises with xi and falls with c: on a
    box, value(xi at its upper corner, cost at its lower corner) bounds the
    rule from above (H. Tuy, "Monotonic optimization", SIAM J. Optim. 11
    (2000)).  That corner bound is first order in the box's side, so a rule
    whose cost is the entropy is bounded by the least of it and a
    second-order bound (`_may_hold`).  The grid is the root box, of side a
    power of two times `side`, which must be less than the grid's (the whole
    grid's scan is `_grid_scan`).  Each level splits every box into 2^S boxes
    of half its side, bounds them, evaluates the rule at both corners of
    each, and drops the boxes whose corner bound is below the greatest value
    seen by more than _PRUNE max(1, |value|), the cut (`_cut`), then those of
    the others that the second-order bound rules out at the cut.  The boxes
    of side `side` left are evaluated whole, greatest corner bound first, in
    slabs of at most _SLAB_POINTS points, until the next corner bound falls
    below the cut.

    The corner bound is exact in floating point for the plain rules, since
    rounding is monotone; the slack covers the few ulps by which the
    truncated quotient may fall as xi rises, ulps of numbers within about 9
    (the entropy at the clamp) of the greatest value.  The second-order
    bound carries its own rounding margin.  So no dropped box holds a value
    at or above the greatest, and every value is `_kernel`'s, bit for bit:
    the result is the whole grid scan's.  The values computed are, for each
    box bounded, its two corner values and its corner bound, one more (the
    value at its centre) when it is bounded to second order, and every point
    of the boxes evaluated whole.
    """
    S, n = model.n_species, len(axis)
    at = _kernel(model, axis, cost)
    lo = np.zeros((1, S), dtype=np.intp)  # the root
    width, best, evals = side, -np.inf, 0
    while width < n:
        width *= 2
    while width > side:
        width //= 2
        lo = (lo[:, None, :] + width * np.array(list(np.ndindex(*(2,) * S)))).reshape(-1, S)
        lo = lo[(lo < n).all(-1)]
        hi = np.minimum(lo + width - 1, n - 1)
        (xi_lo, c_lo), (xi_hi, c_hi) = at(lo.T), at(hi.T)
        bound = _value(rule, xi_hi, c_lo)
        best = max(best, _value(rule, xi_lo, c_lo).max(), _value(rule, xi_hi, c_hi).max())
        evals += 3 * len(lo)
        keep = ~(bound < _cut(best))  # a NaN bound is kept
        if cost is _entropy:
            kept = keep.nonzero()[0]
            keep[kept] = _may_hold(model, rule, axis[lo[kept]], axis[hi[kept]], xi_lo[kept],
                                   xi_hi[kept], _cut(best))
            evals += len(kept)
        lo, bound = lo[keep], bound[keep]
    order = np.argsort(-bound, kind="stable")
    lo, bound = lo[order], bound[order]
    per_slab = max(1, _SLAB_POINTS // side**S)
    # a slab's boxes lie along the last axis, so that numpy's loops run along
    # the boxes, not along a box's side
    offsets = [np.arange(side)[_on(i, S + 1)] for i in range(S)]
    top, flat = -np.inf, n**S
    for start in range(0, len(lo), per_slab):
        slab = slice(start, start + per_slab)
        boxes = lo[slab][~(bound[slab] < _cut(best))]
        if not len(boxes):
            break
        index = [np.minimum(offsets[i] + boxes[:, i], n - 1) for i in range(S)]
        values = _value(rule, *at(index))
        evals += values.size
        m = values.max()
        best = max(best, m)
        if m < top:
            continue
        hits = np.nonzero(values == m)
        first = int(np.ravel_multi_index(
            [np.broadcast_to(k, values.shape)[hits] for k in index], (n,) * S).min())
        if m > top or first < flat:
            top, flat = m, first
    return flat, evals


def _starts(model: ModelSpec, rules, cost) -> list[tuple[np.ndarray, int]]:
    """The search's starts in [0, 1)^S for each of `rules`, one per row, and
    the number of grid values computed to choose them: the search's whole
    per-S policy.

    One species: the best point of a 4001-point grid.  Two or three:
    origin-perturbed points, a coarse 3^S grid and the best point of the
    grid of 201 points per axis (pitch 1/200).  Four to six: origin-perturbed
    points and the 2^S corners of an inner box, with no grid.  The best grid
    point is the rule's first greatest value in C order, found with the box
    side of _GRIDS: for one or two species the whole grid is one box, whose
    xi and summed cost are computed once for every rule (`_grid_scan`), and
    for three each rule's branch and bound (`_grid_start`, bounded to second
    order where the cost is the entropy) goes down to boxes of 4^3 points.
    """
    S = model.n_species
    if S == 1:
        fixed = np.empty((0, 1))
    else:
        k, lo, step = (3, 0.15, 0.3) if S <= 3 else (2, 0.2, 0.4)
        fixed = np.array([np.full(S, eps) for eps in (1e-4, 1e-2, 0.1)]
                         + [lo + step * np.array(combo) for combo in np.ndindex(*([k] * S))])
    if S not in _GRIDS:
        return [(fixed, 0) for _ in rules]
    n, side = _GRIDS[S]
    axis = _box_axis(n)
    found = (_grid_scan(model, rules, cost, axis) if side >= n
             else [_grid_start(model, rule, cost, axis, side) for rule in rules])
    return [(np.vstack([fixed, axis[list(np.unravel_index(flat, (n,) * S))]]), evals)
            for flat, evals in found]


def _ascend(evaluate, X0):
    """Maximize from every row of X0 at once over [0, 1 - DOMAIN_CLAMP]^S.

    evaluate(X, rows) maps a (K, S) batch of points, the current trial
    points of the starts from rows `rows` of X0 (ascending), to their K
    values and their (K, S) gradients; each row is computed independently
    of the others.

    The ascent moves in u = artanh(r), on the box [0, artanh(1 -
    DOMAIN_CLAMP)]^S, where the entropy's barrier -1/2 log(1 - r^2) is
    log cosh u, whose curvature sech^2 u is at most 1, against lam (1 + r^2)
    / (1 - r^2)^2 in r.  Each point evaluated is r = min(tanh(u), 1 -
    DOMAIN_CLAMP), and the u-gradient is the r-gradient times 1 - r^2.  A
    start keeps the point r it was evaluated at beside its u: the first
    evaluation is at X0 itself (clipped to the box), and a start that
    accepts no step returns its row of X0, bit for bit.

    Every start takes projected quasi-Newton steps in u: coordinates within
    eps of a bound whose gradient points out of the box are held there by a
    plain projected gradient step (Bertsekas's active set, eps the size of
    the projected gradient, at most _EPS_ACTIVE), and the others follow the
    start's own S x S BFGS inverse Hessian, restricted to them.  An Armijo
    backtracking search runs along the projection arc.  After a step that
    gives a curvature pair the next search begins at 1 if the step was its
    search's first trial or the start's first pair, else at _GROW times the
    step, at most 1; after a step along which the value is not concave, at
    _GROW times it.  Every search, the first included, begins at most at
    1 / max|d| along its direction d, so no trial moves a u-coordinate by
    more than 1: a full quasi-Newton step near the origin would otherwise
    reach the clamp corner and backtrack from there.

    Each round evaluates the value and the gradient once, at every live
    start's current trial point, and keeps the gradients of the trials
    accepted; a start is never held back by the others.  Starts leave the
    batch as they stop, so a row's path is the one it takes alone, bit for
    bit, whatever the other rows are.

    A start is converged when its projected u-gradient has sup norm at most
    _GTOL, or at a relative-f stop: a trial that changes f by at most
    _FTOL max(|f|, 1), accepted, or rejected with a predicted gain at most
    as large.  It is not converged when _MAXITER rounds pass, or when its
    line search fails: _BACKTRACKS trials in a row miss the Armijo
    condition, with the gradient above _GTOL.

    No row ends below its start's value: a trial is accepted only at a
    gain of at least _ARMIJO times the predicted gain, which is
    nonnegative, since H is positive definite and a held coordinate moves
    along its gradient.

    Returns (X, F, converged, evals): the final points r and values, a
    boolean per row, and the number of points evaluated per row.
    """
    hi, tiny = 1.0 - DOMAIN_CLAMP, np.finfo(float).tiny
    top = np.arctanh(hi)  # the box's upper bound in u
    total = np.add.reduce  # a.sum(axis), without its Python-level wrapper

    def direction(u, g, H):
        """The projected gradient's sup norm, the search direction, its slope
        on the free coordinates, the gradient on the held ones and the
        longest step along it that moves no coordinate by more than 1."""
        pg = np.maximum.reduce(np.abs(np.minimum(np.maximum(u + g, 0.0), top) - u), 0)
        eps = np.minimum(pg, _EPS_ACTIVE)
        free = ((u > eps) | (g >= 0.0)) & ((u < top - eps) | (g <= 0.0))
        gf = np.where(free, g, 0.0)
        d = np.where(free, total(H * gf, 1), g)
        reach = 1.0 / np.maximum(np.maximum.reduce(np.abs(d), 0), tiny)
        return pg, d, total(gf * d, 0), g - gf, reach

    # the state is species-major, a column per start, so that each operation
    # runs along the starts; every sum over species is over at most six
    # terms, which numpy adds in order whatever the layout
    x = np.minimum(np.maximum(np.asarray(X0, dtype=float).T, 0.0), hi, order="C")
    u = np.arctanh(x)
    S, K = x.shape
    X, F, converged = x.T.copy(), np.empty(K), np.zeros(K, dtype=bool)
    rows = np.arange(K)             # the row of X0 each live start came from
    evals = np.ones(K, dtype=np.int64)
    f, grad = evaluate(x.T, rows)
    # f and the u-gradient are updated in place
    f, g = np.array(f, dtype=float), grad.T * (1.0 - x * x)
    H = np.eye(S)[:, :, None] * np.ones(K)
    pg, d, gd, ga, reach = direction(u, g, H)
    alpha = np.minimum(1.0, reach)  # the current trial step
    fresh = np.ones(K, dtype=bool)  # no curvature pair yet: H is the identity
    tries = np.zeros(K, dtype=int)  # trials of the current line search
    done = ok = pg <= _GTOL
    for rounds in range(_MAXITER):
        if done.any():
            out = rows[done]
            X[out], F[out], converged[out] = x.compress(done, 1).T, f[done], ok[done]
            evals[out] += rounds
            keep = ~done
            x, u, g, H, d, ga, f, gd, alpha, fresh, tries, rows = (
                a.compress(keep, -1)
                for a in (x, u, g, H, d, ga, f, gd, alpha, fresh, tries, rows))
        if not rows.size:
            break
        ut = np.minimum(np.maximum(u + alpha * d, 0.0), top)
        xt = np.minimum(np.tanh(ut), hi)
        ft, grad = evaluate(xt.T, rows)
        tries += 1
        # Bertsekas's predicted gain: the slope on the free coordinates, the
        # projected move on the held ones
        gain = alpha * gd + total(ga * (ut - u), 0)
        change, tol = ft - f, _FTOL * np.maximum(np.abs(f), 1.0)
        moved = change >= _ARMIJO * gain
        flat = (change <= tol) & (moved | ((gain <= tol) & (change >= -tol)))
        # a rejected trial backtracks to the peak of the quadratic through f,
        # the predicted slope and f(xt), kept within [0.1, 0.5] of the step
        back = ~moved
        if back.any():
            b = back.nonzero()[0]
            a, gb = alpha[b], gain[b]
            quad = 0.5 * gb * a / np.maximum(gb - change[b], tiny)
            alpha[b] = np.fmin(np.fmax(quad, 0.1 * a), 0.5 * a)
        # an accepted step moves the start, and ends it when flat; the others
        # get a curvature pair and a new direction
        ok = flat
        j = (moved & ~flat).nonzero()[0]
        if j.size:
            xj, uj = xt.take(j, 1), ut.take(j, 1)  # the starts' new points
            g_new = grad.take(j, 0).T * (1.0 - xj * xj)
            s = uj - u.take(j, 1)
            y = g.take(j, 1) - g_new  # the change in the gradient of -f
            g[:, j] = g_new
            sy, yy = total(s * y, 0), total(y * y, 0)
            curved = sy > _CURVATURE * yy
            c = j
            if not curved.all():
                c = j[curved]
                s, y, sy, yy = (a.compress(curved, -1) for a in (s, y, sy, yy))
            # BFGS, H + v s' + s v'; the first pair scales the identity to the
            # curvature it saw
            Hc = H.take(c, 2) * np.where(fresh[c], sy / yy, 1.0)
            Hy = total(Hc * y, 1)
            rho = 1.0 / sy
            v = (0.5 * rho * (total(y * Hy, 0) * rho + 1.0)) * s - rho * Hy
            Hc += v[:, None, :] * s
            Hc += s[:, None, :] * v
            H[:, :, c] = Hc
            grown = _GROW * alpha[j]
            pg_j, d[:, j], gd[j], ga[:, j], reach = direction(uj, g_new, H.take(j, 2))
            alpha[j] = np.minimum(reach, np.where(~curved, grown, np.where(
                (tries[j] == 1) | fresh[j], 1.0, np.minimum(1.0, grown))))
            fresh[c] = False
            tries[j] = 0
            ok[j] = pg_j <= _GTOL
        np.copyto(x, xt, where=moved)
        np.copyto(u, ut, where=moved)
        np.copyto(f, ft, where=moved)
        # stopped: a projected-gradient or relative-f stop, or a failed line
        # search
        done = ok | (back & (tries >= _BACKTRACKS))
    else:  # out of rounds: the starts that did not stop are not converged
        X[rows], F[rows], converged[rows] = x.T, f, ok
        evals[rows] += _MAXITER
    return X, F, converged, evals


def _search(model: ModelSpec, rules, cost, dcost) -> list[MaximizeResult]:
    """Greatest value of each rule (`_Rule`) at xi(r) and the sum over s of
    cost(lam_s, r(s)), over [0, 1 - DOMAIN_CLAMP]^S, one result per rule,
    from one batched ascent.

    The rules share their kind and the cost: cost(lam_s, a) is species s's
    cost at the coordinates a (cost(lam, X) every species' on a (K, S)
    batch) and dcost(lam, X) its gradient on a (K, S) batch.  For three
    species each rule must rise with xi and fall with c, and the cost rise
    with a, as every rule of nonnegative (A, B, C) does, and a rule whose
    cost is the entropy (`_entropy`) is also bounded to second order: the
    grid is searched by bounds that rest on this (`_grid_start`).

    The package's one search: more than six species are refused, `_starts`
    gives each rule's starts, from one pass over the grid for one or two
    species, and one `_ascend` moves the starts of every rule at once, in
    u = artanh(r), in as many rounds as its slowest start takes.  Each round
    is one `_evaluate` of the batch's trials, each row holding its rule's
    fields: xi and grad xi from one power table per point, the summed cost
    and its gradient, every row's value and partials in one expression
    (`_partials`) and the gradient by the chain rule.  A rule's rows take
    the path they take in a search of that rule alone, so its result is
    that search's, bit for bit, and its value is the rule's pointwise
    function at its argmax, bit for bit.  The result is the best
    polished start, ties going to the smallest norm, then the coordinates.
    For |S| <= 3 the grid's best point is one start and no run ends below
    its start, so the result is never below the search's value at the best
    grid point, bit for bit: it is grid-certified.  xi's terms are added in
    term order, so that value is the grid's, bit for bit.  fun_evals counts
    the rule's values computed: those on the grid (every grid point for one
    or two species; for three, the corners, bounds, centres and boxes of
    `_grid_start`, a few thousand of the grid's 8.1M points for the
    package's rules), then the ascent's at the rule's starts.
    """
    if model.n_species > 6:
        raise ValueError("the landscape search supports at most 6 species")
    starts, grid_evals = zip(*_starts(model, rules, cost))
    bounds = list(itertools.accumulate((len(X0) for X0 in starts), initial=0))
    # the batch's rule: a field the rules share is one value, any other one
    # entry per start
    batch = _Rule(*(v[0] if len(set(v)) == 1 else np.repeat(v, np.diff(bounds))
                    for v in zip(*rules)))
    rowwise = any(isinstance(f, np.ndarray) for f in batch)

    def evaluate(X, rows):
        return _evaluate(model, _take(batch, rows) if rowwise else batch, cost, dcost, X)

    X, F, ok, evals = _ascend(evaluate, np.concatenate(starts))
    norms = np.sqrt((X * X).sum(-1))
    results = []
    for lo, hi, grid in zip(bounds[:-1], bounds[1:], grid_evals):
        best = min(range(lo, hi), key=lambda k: (-F[k], norms[k], tuple(X[k])))
        results.append(MaximizeResult(
            argmax=X[best], value=float(F[best]), starts_used=hi - lo,
            converged=bool(ok[best]), grid_certified=grid > 0,
            fun_evals=grid + int(np.add.reduce(evals[lo:hi]))))
    return results


def _maximize(model: ModelSpec, beta: float, objectives) -> list[MaximizeResult]:
    """maximize_f of each objective at beta, in one `_search`."""
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"beta must be finite and >= 0, got {beta!r}")
    if not objectives:
        raise ValueError("no objective to maximize")
    for objective in objectives:
        if objective not in ("plain", "tilde"):
            raise ValueError(f"unknown objective {objective!r}, expected 'plain' or 'tilde'")
    b2, xi1 = beta * beta, model.xi1()
    if not math.isfinite(b2 * xi1):
        raise ValueError(f"beta = {beta!r} is too large: beta^2 xi(1) is not finite")
    # the truncated energy's numerator, beta^2 xi(1) xi(r), is at most this
    if "tilde" in objectives and not math.isfinite(b2 * xi1 * xi1):
        raise ValueError(f"beta = {beta!r} is too large for the truncated functional: "
                         "beta^2 xi(1)^2 is not finite")
    # the ascent's inner products of gradients, and of their differences,
    # are at most about S (2 beta^2 max_s d_s xi(1))^2
    scale = 2.0 * b2 * float(model.mixture.grad(np.ones(model.n_species)).max())
    if not math.isfinite(model.n_species * scale * scale):
        raise ValueError(f"beta = {beta!r} is too large for the ascent: "
                         "S (2 beta^2 max_s d_s xi(1))^2 is not finite")
    rules, costs, dcosts = zip(*(_energy(model, beta, objective) for objective in objectives))
    return [replace(res, argmax=np.zeros(model.n_species), value=0.0, converged=True)
            if res.value <= 0.0 else res  # the origin anchors value 0 and wins ties
            for res in _search(model, rules, costs[0], dcosts[0])]


def maximize_f(model: ModelSpec, beta: float, objective: str = "plain") -> MaximizeResult:
    """Global maximum of f_beta (or the truncated variant) over [0, 1)^S.

    One `_search` of f: a dense certification grid for |S| <= 3, polished
    together with the starts by projected quasi-Newton ascent in u =
    artanh(r), which returns points r of [0, 1 - DOMAIN_CLAMP]^S.  The origin
    (value exactly 0) is always a candidate and wins ties, so the reported
    value is always >= 0.  Non-convergence is flagged, never silently wrong.
    A beta at which the ascent's products of gradients would overflow is
    refused.
    """
    return _maximize(model, beta, (objective,))[0]


def maximize_each(model: ModelSpec, beta: float, objectives) -> list[MaximizeResult]:
    """maximize_f of each objective ("plain", "tilde") at beta, as one
    batched search: each result is maximize_f's, bit for bit."""
    return _maximize(model, beta, tuple(objectives))
