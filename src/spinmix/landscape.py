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

All three functionals are one table, `_energy`: an energy term in
x = xi(r) minus a separable cost, the entropy for f_beta and its truncated
variant and -(log(1-r) + r) for g_beta.  An objective of the global search,
`_search`, is one rule value(x, c) of x = xi(r) and of the cost summed over
species, c, with its gradient and the per-axis cost; f, its truncated twin
and g are value = energy(x) - c (`_objective`), and `criticality`'s
threshold ratios are rules of the same two pieces.  `_search` evaluates the
rule on the certification grid and at the points of its local phase, and
the pointwise functions evaluate it at one point, so each objective is
written once.  `_starts` alone holds the per-S policy (`_GRIDS`): the grid
(4001 points for one species, 201 per axis for two or three, none for four
to six), whose best point is one start, and the fixed starts.  `_search`
refuses more than six species and returns the best of its starts after its
local phase, `_ascend`, which moves every start at once as one (K, S)
batch by projected quasi-Newton steps, so the objective and its gradient
are evaluated on batches of points, elementwise and without BLAS.  No run
ends below its start, so a gridded result is never below the grid's best
point.

The tensor-product kernel `_kernel` (a sum of xi's terms and a separable
per-axis sum at points of the grid axis^k, over some or all species) is
written once.  `_grid` runs it on the whole grid in slabs of about
_SLAB_POINTS points, each consumer reducing slab by slab (an argmax, a
logsumexp), so memory stays bounded at any grid size: the search's grid of
one or two species, and `quadrature`'s blocks over which it eliminates
species.  For three species the search's grid of 8.1M points is searched by
branch and bound (`_grid_start`): xi and every cost are nondecreasing in
each coordinate, so the corners of a box of grid points bound the rule on
it, and only the boxes that may hold the greatest value are evaluated,
whole, in slabs of the same size.  The best point and its value are the
whole grid's, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    "DOMAIN_CLAMP",
    "TOL_ZERO",
]

# coordinates are kept below 1 - DOMAIN_CLAMP during ascent (log singularity)
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

# the local ascent (`_ascend`): the stopping tolerances on the projected
# gradient's sup norm and on the relative change of f, the round budget, the
# Armijo constant, the trials one line search may take, the widest
# active-set margin, the growth of a line search's first trial over the
# last step taken, and the least curvature s.y / y.y of a BFGS pair
_GTOL = 1e-12
_FTOL = 1e-14
_MAXITER = 1000
_ARMIJO = 1e-4
_BACKTRACKS = 30
_EPS_ACTIVE = 1e-9
_GROW = 4.0
_CURVATURE = 2.2e-16


def _energy(model: ModelSpec, beta: float, objective: str):
    """The objective's pieces (energy, slope, cost, dcost); f = energy(xi(r))
    minus the sum over species of the separable cost.

    energy(x) is the energy term as a function of x = xi(r) and slope(r) its
    derivative dE/dx at r; cost(s, a) is the cost of axis s at a (s may be
    an index, or slice(None) for every axis at once) and dcost(r) its
    gradient.

      "plain"      beta^2 x                          entropy
      "tilde"      beta^2 xi(1) x / (xi(1) + x)      entropy
      "talagrand"  beta^2 x                          -(log(1 - r) + r), one species

    with the entropy -1/2 lam_s log(1 - r^2); "talagrand" makes f the g
    criterion.
    """
    b2 = beta * beta
    lam = model.species.lam
    if objective == "talagrand":
        if model.n_species != 1:
            raise ValueError("the g criterion applies to single-species models only")

        def cost(s, a):
            return -(np.log1p(-a) + a)

        def dcost(r):
            return r / (1.0 - r)
    else:
        def cost(s, a):
            return -0.5 * lam[s] * np.log1p(-a * a)

        def dcost(r):
            return lam * r / (1.0 - r * r)
    if objective != "tilde":
        return (lambda x: b2 * x), (lambda r: b2), cost, dcost
    xi1 = model.xi1()
    if xi1 <= 0.0:
        raise ValueError("truncated functional requires xi(1) > 0")
    mix = model.mixture

    def energy(x):
        return b2 * xi1 * x / (xi1 + x)

    def slope(r):
        return b2 * xi1 * xi1 / (xi1 + mix.eval(r)) ** 2

    return energy, slope, cost, dcost


def _objective(model: ModelSpec, beta: float, objective: str):
    """Return (value, grad, cost), `_search`'s arguments for f, its truncated
    twin or g: f(r) = value(xi(r), sum over s of cost(s, r(s))).

    grad takes one point, or a (K, S) batch of points with one row per
    point; for f it evaluates neither xi nor the cost.
    """
    mix = model.mixture
    energy, slope, cost, dcost = _energy(model, beta, objective)

    def value(x, c):
        return energy(x) - c

    def grad(r):
        return np.expand_dims(slope(r), -1) * mix.grad(r) - dcost(r)

    return value, grad, cost


def _pointwise(model: ModelSpec, value, cost):
    """The rule value(x, c) as a function of r: value(xi(r), sum over s of
    cost(s, r(s))), at one point or on a (K, S) batch of points."""
    mix = model.mixture
    return lambda r: value(mix.eval(r), cost(slice(None), r).sum(-1))


def _at(model: ModelSpec, beta: float, objective: str, r) -> float:
    value, _, cost = _objective(model, beta, objective)
    return float(_pointwise(model, value, cost)(_coerce_r(model.n_species, r)))


def f_beta(model: ModelSpec, beta: float, r) -> float:
    """Entropy-plus-energy functional; equals 0 at r = 0."""
    return _at(model, beta, "plain", r)


def f_tilde_beta(model: ModelSpec, beta: float, r) -> float:
    """Truncated variant with energy beta^2 xi(1) xi(r) / (xi(1) + xi(r))."""
    return _at(model, beta, "tilde", r)


def g_beta(model: ModelSpec, beta: float, r: float) -> float:
    """Single-species criterion log(1-r) + r + beta^2 xi(r)."""
    return _at(model, beta, "talagrand", r)


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


def _box_axis(n: int) -> np.ndarray:
    """n points on [0, 1 - DOMAIN_CLAMP], the axis of the certification grids."""
    return np.linspace(0.0, 1.0 - DOMAIN_CLAMP, n)


def _on(i: int, dims: int, k=slice(None)) -> tuple:
    """An index that places k along axis i of a dims-axis block, a new axis
    on each of the others."""
    return tuple(k if a == i else None for a in range(dims))


def _kernel(model: ModelSpec, axis: np.ndarray, per_axis, axes=None, terms=None):
    """The tensor-product kernel on the grid axis^len(axes), species axes[i]
    along grid axis i (every species by default): a function of one index
    per grid axis, each an integer array or slices and new axes (`_on`),
    whose results broadcast together, returning (xi, sum_i
    per_axis(axes[i], axis)[index[i]]) at those grid points.

    xi is the sum of the mixture's `terms` (every term by default), in the
    order given, each the product of its per-axis powers in axes order times
    its coefficient; factors x**0 = 1 are skipped, which is exact.  The cost
    is summed from grid axis 0 on.  Each point's bits depend on its indices
    only, never on the other points evaluated with it.
    """
    mix = model.mixture
    axes = range(model.n_species) if axes is None else axes
    terms = range(len(mix.coeffs)) if terms is None else terms
    pows = [axis ** mix.exponents[terms, s][:, None] for s in axes]  # row j: terms[j]
    costs = [per_axis(s, axis) for s in axes]

    def at(index):
        parts = [costs[i][index[i]] for i in range(len(axes))]
        xi = np.zeros(np.broadcast_shapes(*(part.shape for part in parts)))
        for j, t in enumerate(terms):
            factors = (pows[i][j][index[i]] for i, s in enumerate(axes) if mix.exponents[t, s])
            xi += math.prod(factors) * mix.coeffs[t]
        # the per-axis sum, unnamed so that the caller holds its only reference
        return xi, sum(parts[1:], parts[0])

    return at


def _grid(model: ModelSpec, axis: np.ndarray, per_axis, axes=None, terms=None):
    """Yield `_kernel`'s (xi, summed cost) on the whole grid axis^len(axes),
    slab by slab.

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


def _grid_start(model: ModelSpec, value, cost, axis: np.ndarray, side: int) -> tuple[int, int]:
    """The first greatest value in C order of the rule value(xi, c) on the
    grid axis^S, as (C-order index, values computed), by branch and bound
    over boxes of grid points down to boxes of side `side`.

    Every coefficient is nonnegative, so xi and every cost are nondecreasing
    in each coordinate, and each rule rises with xi and falls with c: on a
    box, value(xi at its upper corner, cost at its lower corner) bounds the
    rule from above (H. Tuy, "Monotonic optimization", SIAM J. Optim. 11
    (2000)).  The grid is the root box, of side a power of two times `side`.
    Each level splits every box into 2^S boxes of half its side, bounds
    them, evaluates the rule at both corners of each, and drops the boxes
    whose bound is below the greatest value seen by more than _PRUNE
    max(1, |value|).  The boxes of side `side` left are evaluated whole,
    greatest bound first, in slabs of at most _SLAB_POINTS points, until the
    next bound falls below that cut.  When `side` covers the grid, the
    grid is one box, evaluated by `_grid` with no bound.

    The bound is exact in floating point for the plain rules, since
    rounding is monotone; the slack covers the few ulps by which the
    truncated quotient may fall as xi rises, ulps of numbers within about 9
    (the entropy at the clamp) of the greatest value.  So no dropped box
    holds a value at or above the greatest, and every value is `_kernel`'s,
    bit for bit: the result is the whole grid scan's.
    """
    S, n = model.n_species, len(axis)
    if side >= n:  # one box, the whole grid, slab by slab
        evals = 0
        for xi, c in _grid(model, axis, cost):
            values = value(xi, c)
            i = int(np.argmax(values))
            if evals == 0 or values.flat[i] > best:
                best, flat = values.flat[i], evals + i
            evals += values.size
        return flat, evals
    at = _kernel(model, axis, cost)
    lo = np.zeros((1, S), dtype=np.intp)  # the root
    width, best, evals = side, -np.inf, 0
    while width < n:
        width *= 2
    while width > side:
        width //= 2
        lo = (lo[:, None, :] + width * np.array(list(np.ndindex(*(2,) * S)))).reshape(-1, S)
        lo = lo[(lo < n).all(-1)]
        (xi_lo, c_lo), (xi_hi, c_hi) = at(lo.T), at(np.minimum(lo + width - 1, n - 1).T)
        bound = value(xi_hi, c_lo)
        best = max(best, value(xi_lo, c_lo).max(), value(xi_hi, c_hi).max())
        evals += 3 * len(lo)
        keep = ~(bound < _cut(best))  # a NaN bound is kept
        lo, bound = lo[keep], bound[keep]
    order = np.argsort(-bound, kind="stable")
    lo, bound = lo[order], bound[order]
    per_slab = max(1, _SLAB_POINTS // side**S)
    offsets = [np.arange(side)[_on(1 + i, S + 1)] for i in range(S)]
    top, flat = -np.inf, n**S
    for start in range(0, len(lo), per_slab):
        slab = slice(start, start + per_slab)
        boxes = lo[slab][~(bound[slab] < _cut(best))]
        if not len(boxes):
            break
        index = [np.minimum(boxes[:, i].reshape((-1,) + (1,) * S) + offsets[i], n - 1)
                 for i in range(S)]
        values = value(*at(index))
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


def _starts(model: ModelSpec, value, cost):
    """The search's starts in [0, 1)^S, one per row, and the number of grid
    values computed to choose them: the search's whole per-S policy.

    One species: the best point of a 4001-point grid.  Two or three:
    origin-perturbed points, a coarse 3^S grid and the best point of the
    grid of 201 points per axis (pitch 1/200).  Four to six: origin-perturbed
    points and the 2^S corners of an inner box, with no grid.  The best grid
    point is the first greatest value in C order of the rule value(xi, c),
    found by `_grid_start` with the box side of _GRIDS: the whole grid, one
    box, for one or two species, and branch and bound down to boxes of 4^3
    points for three.
    """
    S = model.n_species
    if S == 1:
        fixed = np.empty((0, 1))
    else:
        k, lo, step = (3, 0.15, 0.3) if S <= 3 else (2, 0.2, 0.4)
        fixed = np.array([np.full(S, eps) for eps in (1e-4, 1e-2, 0.1)]
                         + [lo + step * np.array(combo) for combo in np.ndindex(*([k] * S))])
    if S not in _GRIDS:
        return fixed, 0
    n, side = _GRIDS[S]
    axis = _box_axis(n)
    flat, evals = _grid_start(model, value, cost, axis, side)
    return np.vstack([fixed, axis[list(np.unravel_index(flat, (n,) * S))]]), evals


def _ascend(fun, grad, X0):
    """Maximize fun from every row of X0 at once over [0, 1 - DOMAIN_CLAMP]^S.

    fun maps a (K, S) batch of points to K values and grad to their (K, S)
    gradients, each row independently of the others.  Every start takes
    projected quasi-Newton steps: coordinates within eps of a bound whose
    gradient points out of the box are held there by a plain projected
    gradient step (Bertsekas's active set, eps the size of the projected
    gradient, at most _EPS_ACTIVE), and the others follow the start's own
    S x S BFGS inverse Hessian, restricted to them.  An Armijo backtracking
    search runs along the projection arc.  The first step is scaled to move
    no coordinate by more than 1.  After a step that gives a curvature pair
    the next search begins at 1 if the step was its search's first trial
    and not the start's first pair, else at _GROW times the step, at most
    1; after a step along which fun is not concave, at _GROW times it.

    Each round evaluates fun once, at every live start's current trial
    point, and grad once, at the trial points accepted; a start is never
    held back by the others.  Starts leave the batch as they stop, so a
    row's path is the one it takes alone, bit for bit.

    A start is converged when its projected gradient has sup norm at most
    _GTOL, or at a relative-f stop: a trial that changes f by at most
    _FTOL max(|f|, 1), accepted, or rejected with a predicted gain at most
    as large.  It is not converged when _MAXITER rounds pass, or when its
    line search fails: _BACKTRACKS trials in a row miss the Armijo
    condition, with the gradient above _GTOL.

    No row ends below its start's value: a trial is accepted only at a
    gain of at least _ARMIJO times the predicted gain, which is
    nonnegative, since H is positive definite and a held coordinate moves
    along its gradient.

    Returns (X, F, converged, evals): the final points and values, a
    boolean per row, and the number of points fun evaluated.
    """
    hi = 1.0 - DOMAIN_CLAMP

    def direction(x, g, H):
        """The projected gradient's sup norm, the search direction, its slope
        on the free coordinates and the gradient on the held ones."""
        pg = np.abs(np.minimum(np.maximum(x + g, 0.0), hi) - x).max(-1)
        eps = np.minimum(pg, _EPS_ACTIVE)[:, None]
        free = ((x > eps) | (g >= 0.0)) & ((x < hi - eps) | (g <= 0.0))
        gf = np.where(free, g, 0.0)
        d = np.where(free, (H * gf[:, None, :]).sum(-1), g)
        return pg, d, (gf * d).sum(-1), g - gf

    x = np.clip(np.asarray(X0, dtype=float), 0.0, hi)
    K, S = x.shape
    X, F, converged = x.copy(), np.empty(K), np.zeros(K, dtype=bool)
    f, g = np.array(fun(x), dtype=float), np.array(grad(x), dtype=float)  # updated in place
    evals = K
    H = np.eye(S) * np.ones((K, 1, 1))
    pg, d, gd, ga = direction(x, g, H)
    alpha = 1.0 / np.maximum(np.abs(d).max(-1), 1.0)  # the current trial step
    fresh = np.ones(K, dtype=bool)  # no curvature pair yet: H is the identity
    tries = np.zeros(K, dtype=int)  # trials of the current line search
    rows = np.arange(K)             # the row of X0 each live start came from
    done = ok = pg <= _GTOL
    for _ in range(_MAXITER):
        if done.any():
            X[rows[done]], F[rows[done]], converged[rows[done]] = x[done], f[done], ok[done]
            keep = ~done
            x, f, g, H, d, gd, ga, alpha, fresh, tries, rows = (
                a[keep] for a in (x, f, g, H, d, gd, ga, alpha, fresh, tries, rows))
        if not rows.size:
            break
        xt = np.minimum(np.maximum(x + alpha[:, None] * d, 0.0), hi)
        ft = fun(xt)
        evals += rows.size
        tries += 1
        # Bertsekas's predicted gain: the slope on the free coordinates, the
        # projected move on the held ones
        gain = alpha * gd + (ga * (xt - x)).sum(-1)
        change, tol = ft - f, _FTOL * np.maximum(np.abs(f), 1.0)
        moved = change >= _ARMIJO * gain
        flat = (change <= tol) & (moved | ((gain <= tol) & (change >= -tol)))
        # a rejected trial backtracks to the peak of the quadratic through f,
        # the predicted slope and f(xt), kept within [0.1, 0.5] of the step
        back = ~moved
        if back.any():
            b, a = np.flatnonzero(back), alpha[back]
            quad = 0.5 * gain[b] * a / np.maximum(gain[b] - change[b], np.finfo(float).tiny)
            alpha[b] = np.fmin(np.fmax(quad, 0.1 * a), 0.5 * a)
        # an accepted step moves the start, and ends it when flat; the others
        # get a curvature pair and a new direction
        j = np.flatnonzero(moved & ~flat)
        s = xt[j] - x[j]
        x[moved], f[moved], ok = xt[moved], ft[moved], flat.copy()
        if j.size:
            g_new = grad(x[j])
            y = g[j] - g_new  # the change in the gradient of -fun
            g[j] = g_new
            sy, yy = (s * y).sum(-1), (y * y).sum(-1)
            curved = sy > _CURVATURE * yy
            c = j
            if not curved.all():
                c, s, y, sy, yy = j[curved], s[curved], y[curved], sy[curved], yy[curved]
            # BFGS, H + v s' + s v'; the first pair scales the identity to the
            # curvature it saw
            Hc = H[c] * np.where(fresh[c], sy / yy, 1.0)[:, None, None]
            Hy = (Hc * y[:, None, :]).sum(-1)
            rho = (1.0 / sy)[:, None]
            v = (0.5 * rho * ((y * Hy).sum(-1)[:, None] * rho + 1.0)) * s - rho * Hy
            H[c] = Hc + v[:, :, None] * s[:, None, :] + s[:, :, None] * v[:, None, :]
            grown = _GROW * alpha[j]
            alpha[j] = np.where(~curved, grown, np.where((tries[j] == 1) & ~fresh[j], 1.0,
                                                         np.minimum(1.0, grown)))
            alpha[c[fresh[c]]] = 1.0
            fresh[c] = False
            tries[j] = 0
            pg_j, d[j], gd[j], ga[j] = direction(x[j], g[j], H[j])
            ok[j] = pg_j <= _GTOL
        # stopped: a projected-gradient or relative-f stop, or a failed line
        # search
        done = ok | (back & (tries >= _BACKTRACKS))
    else:  # out of rounds: the starts that did not stop are not converged
        X[rows], F[rows], converged[rows] = x, f, ok
    return X, F, converged, evals


def _search(model: ModelSpec, value, grad, cost) -> MaximizeResult:
    """Greatest value of the objective value(xi(r), sum over s of cost(s,
    r(s))), whose gradient is grad, over [0, 1 - DOMAIN_CLAMP]^S.

    value takes xi and the summed cost as arrays of one shape (or
    broadcastable), cost(s, a) is species s's cost at the coordinates a
    (slice(None) for every species of a (K, S) batch), and grad takes a
    (K, S) batch of points.  For three species value must rise with xi
    and fall with c, and cost(s, a) rise with a, as in every rule of the
    package: the grid is searched by bounds that rest on this
    (`_grid_start`).  The package's one search: more than six
    species are refused, `_starts` gives the starts, one `_ascend` moves
    them all at once on the rule at points (`_pointwise`), and the result is
    the best polished start, ties going to the smallest norm, then the
    coordinates.  For |S| <= 3 the grid's best point is one start and no
    run ends below its start, so the result is never below the best grid
    point: it is grid-certified.  fun_evals counts the rule's values
    computed: those on the grid (every grid point for one or two species;
    for three, the bounds, corners and boxes of `_grid_start`), then the
    ascent's.
    """
    if model.n_species > 6:
        raise ValueError("the landscape search supports at most 6 species")
    starts, grid_evals = _starts(model, value, cost)
    X, F, ok, evals = _ascend(_pointwise(model, value, cost), grad, starts)
    norms = np.sqrt((X * X).sum(-1))
    best = min(range(len(X)), key=lambda k: (-F[k], norms[k], tuple(X[k])))
    return MaximizeResult(argmax=X[best], value=float(F[best]), starts_used=len(starts),
                          converged=bool(ok[best]), grid_certified=grid_evals > 0,
                          fun_evals=grid_evals + evals)


def maximize_f(model: ModelSpec, beta: float, objective: str = "plain") -> MaximizeResult:
    """Global maximum of f_beta (or the truncated variant) over [0, 1)^S.

    One `_search` of f: a dense certification grid for |S| <= 3, polished
    together with the starts by projected quasi-Newton ascent.  The origin
    (value exactly 0) is always a candidate and wins ties, so the reported
    value is always >= 0.  Non-convergence is flagged, never silently wrong.
    """
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"beta must be finite and >= 0, got {beta!r}")
    xi1 = model.xi1()
    if not math.isfinite(beta * beta * xi1):
        raise ValueError(f"beta = {beta!r} is too large: beta^2 xi(1) is not finite")
    # the truncated energy's numerator, beta^2 xi(1) xi(r), is at most this
    if objective == "tilde" and not math.isfinite(beta * beta * xi1 * xi1):
        raise ValueError(f"beta = {beta!r} is too large for the truncated functional: "
                         "beta^2 xi(1)^2 is not finite")
    if objective not in ("plain", "tilde"):
        raise ValueError(f"unknown objective {objective!r}, expected 'plain' or 'tilde'")
    res = _search(model, *_objective(model, beta, objective))
    if res.value <= 0.0:  # the origin anchors value 0 and wins ties
        return replace(res, argmax=np.zeros(model.n_species), value=0.0, converged=True)
    return res
