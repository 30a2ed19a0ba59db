"""Multi-species mixture polynomials and their calculus.

A mixture is a finite nonnegative-coefficient polynomial

    xi(x) = sum_p  c_p * prod_s x(s)^p(s)

over multi-indices p indexed by a fixed ordered species tuple.  The
coefficients c_p are variances (squared amplitudes), never amplitudes, so
they are nonnegative by construction.  Every partial derivative is one
expression,

    d^a xi(x) = sum_p  c_p * prod_s (p(s))_a(s) * x^max(p - a, 0)

with (n)_a the falling factorial, read from one table per tuple of
multi-indices a: xi (a = 0), the gradient, the Hessian and the degree-2
matrix Q = Hessian at 0 each read the table of their order.  The falling
factorials and the lowered exponents depend on the exponents alone and are
tabulated once per process for each exponent matrix and tuple (`_layout`),
the weights once per mixture, each order on first use.  At a point, each
table reads a power table, x(s)^d for the distinct lowered exponents d of
the tuple, one numpy power for all of them, and each monomial is the
product of its nonzero-exponent factors in species order
(`_power_products`); the bits are those of one power per (point,
multi-index, term, species) entry.  Every order, xi's included, sums a
single point as it sums a row of a batch, elementwise and without BLAS, so
a point's value is its row's in any batch.  The band recentering transform

    xi_r(x) = xi((1 - r^2) x + r^2) - xi(r^2)      (elementwise in r)

reads the same table: its coefficients are xi's Taylor coefficients at
r^2, d^a xi(r^2) / a! * prod_s (1 - r(s)^2)^a(s), one for every nonzero
multi-index a under a term.  The module also gives the transform's
directional derivative at r = 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

__all__ = ["SpeciesSet", "Mixture"]

# coefficients produced by the recentering transform below this magnitude
# are pure underflow noise and are dropped
_COEFF_FLOOR = 1e-300


@dataclass(frozen=True, eq=False)
class SpeciesSet:
    """Ordered species labels with their limiting proportions.

    ``lam[i]`` is the proportion of species ``names[i]``; proportions sum
    to 1 and are strictly interior to (0, 1) unless there is a single
    species, in which case the proportion is exactly 1.
    """

    names: tuple[str, ...]
    lam: np.ndarray

    def __post_init__(self):
        names = tuple(self.names)
        lam = np.asarray(self.lam, dtype=float).copy()
        lam.setflags(write=False)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "lam", lam)
        if len(names) == 0:
            raise ValueError("species set must be non-empty")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate species labels: {names}")
        if lam.shape != (len(names),):
            raise ValueError("one proportion per species required")
        if not np.all(np.isfinite(lam)):
            raise ValueError(f"proportions must be finite, got {lam}")
        if abs(float(lam.sum()) - 1.0) > 1e-12:
            raise ValueError(f"proportions sum to {lam.sum()!r}, expected 1")
        if len(names) > 1 and not np.all((lam > 0.0) & (lam < 1.0)):
            raise ValueError("proportions must lie strictly inside (0, 1)")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpeciesSet):
            return NotImplemented
        return self.names == other.names and bool(np.array_equal(self.lam, other.lam))

    @property
    def n(self) -> int:
        return len(self.names)


def _coerce_r(n_species: int, r) -> np.ndarray:
    """An overlap vector in [0, 1)^S; a scalar is the constant vector."""
    r = np.asarray(r, dtype=float)
    if r.ndim == 0:
        r = np.full(n_species, float(r))
    if r.shape != (n_species,):
        raise ValueError(f"overlap vector must have shape ({n_species},)")
    if not np.all((r >= 0.0) & (r < 1.0)):  # NaN fails both comparisons
        raise ValueError(f"overlap vector {r} outside [0, 1)^S")
    return r


@lru_cache(maxsize=None)
def _multi_indices(S: int, order) -> tuple:
    """The multi-indices of a derivative order, or of each of a tuple of
    orders in turn: 0 for xi, e_s for the gradient and e_s + e_t for every
    ordered pair (s, t) for the Hessian."""
    return tuple(tuple(pair.count(s) for s in range(S)) for k in np.atleast_1d(order)
                 for pair in itertools.product(range(S), repeat=k))


@lru_cache(maxsize=64)
def _layout(shape: tuple[int, int], data: bytes, alphas: tuple):
    """The kernel's (falling, degrees, factors) for the tuple of multi-indices
    a of the mixtures whose exponent matrix, int64 in C order, has this
    shape and these bytes: they depend on the exponents alone, so each is
    made once per process for every mixture of that form, read-only, on
    first use (the 64 used last are kept).

    falling[a, p] is prod_s (p(s))_a(s), with (n)_a the falling factorial,
    so 0 where a(s) > p(s) for some s: integers, held as floats, exact below
    2^53.  degrees is an (S, n) array whose every row holds the n distinct
    lowered exponents max(p - a, 0) of the tuple, 0 first when it occurs.
    factors[:, a, p] are the columns of the flattened power table
    (`_power_products`) that hold x(s)^max(p(s) - a(s), 0) for each species
    s where that exponent is nonzero, in species order, padded with column
    0, species 0's x^0 = 1; a monomial with fewer factors than another has a
    zero exponent, so 0 is a degree.
    """
    S = shape[1]
    p = np.frombuffer(data, dtype=np.int64).reshape(shape)
    alphas = np.array(alphas, dtype=np.int64).reshape(-1, 1, S)
    falling = np.ones((len(alphas),) + shape)
    for k in range(int(alphas.max(initial=0))):
        # clipped at 0: past a factor p(s) - p(s) = 0 a negative one would make -0
        falling *= np.where(alphas > k, np.maximum(p - k, 0), 1)
    falling = falling.prod(-1)
    lowered = np.maximum(p - alphas, 0)
    present = np.bincount(lowered.ravel()) > 0
    degrees = present.nonzero()[0]
    n = len(degrees)
    # a column rises with the species, so sorting puts each entry's
    # nonzero-exponent columns first, in species order, and S n last
    column = (present.cumsum() - 1)[lowered] + n * np.arange(S)
    nonzero = lowered > 0
    factors = np.sort(np.where(nonzero, column, S * n), -1)
    factors = factors[..., :int(nonzero.sum(-1).max(initial=0))]
    factors = np.where(factors < S * n, factors, 0).transpose(2, 0, 1).copy()
    layout = falling, degrees[None].repeat(S, 0), factors
    for a in layout:
        a.setflags(write=False)
    return layout


def _power_products(x, degrees, factors) -> np.ndarray:
    """x^max(p - a, 0) for every multi-index a and term p of a layout
    (`_layout`), on the last two axes, at x (species on the last axis), in C
    order.

    One power table per point holds x(s)^d for each distinct lowered
    exponent d of the layout, one numpy power for the whole table; each
    monomial is the product of its nonzero-exponent factors in species
    order.  Its bits are those of the product over every species of
    x(s)^max(p - a, 0)(s), one numpy power per entry (tests/test_mixture.py
    keeps that expression): a factor x^0 = 1 is exact, and numpy computes
    x^2 as x*x exactly when the exponent array has one element, there for
    one species and one term, here for one species and one distinct
    exponent, which differ only where every exponent is 0.  Any other power
    is numpy's pow, whose SIMD loops, chosen by numpy's build and the CPU,
    may round x^2 otherwise than x*x (54,044 of 10^6 uniform squares with
    numpy 2.4.6 on an AVX-512 Xeon): these bits hold per numpy build and
    CPU, and a table of several exponents, as of the orders (0, 1), may
    differ in the last bit from one whose only exponent is 2.  The result is
    in C order, as the per-entry form's, since numpy's order of summation
    over terms depends on the layout.
    """
    table = (x[..., None] ** degrees).reshape(x.shape[:-1] + (-1,))
    return np.multiply.reduce(table.take(factors, -1), -3)


@dataclass(frozen=True, eq=False)
class Mixture:
    """Finite nonnegative-coefficient polynomial over an ordered species tuple.

    ``exponents`` has one row per term, one nonnegative integer per species,
    and ``coeffs`` the matching variances.  Construction refuses a term of
    degree 0 (so xi(0) = 0), a negative or non-integer exponent, a negative
    or non-finite coefficient and a repeated multi-index, naming the term,
    and sorts the rows lexicographically: a polynomial has one canonical
    form, whatever the order of its terms.  Base models further refuse
    degree-1 terms (see ``ModelSpec``); recentred mixtures carry them.
    """

    species: tuple[str, ...]
    exponents: np.ndarray = field(repr=False)
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        species = tuple(self.species)
        raw = np.asarray(self.exponents)
        raw = raw.reshape(0, len(species)) if raw.size == 0 else raw
        coeffs = np.asarray(self.coeffs, dtype=float).reshape(-1)
        if raw.shape != (len(coeffs), len(species)):
            raise ValueError(f"exponents of shape {raw.shape} need one row per coefficient "
                             f"({len(coeffs)}) and one column per species {species}")
        # sorted rows put a repeated multi-index next to its twin
        order = np.lexsort(raw.T[::-1])
        raw, coeffs = raw[order], coeffs[order]
        exps = raw.astype(np.int64)
        for ok, rule in (
            (np.all((exps == raw) & (exps >= 0), axis=1), "exponents must be nonnegative integers"),
            (exps.sum(axis=1) >= 1, "degree 0 is not allowed, xi(0) = 0"),
            (np.isfinite(coeffs) & (coeffs >= 0.0), "coefficient must be finite and >= 0"),
            (np.any(np.diff(exps, axis=0, prepend=-1) != 0, axis=1), "multi-index appears twice"),
        ):
            if not ok.all():
                i = int(np.argmin(ok))
                raise ValueError(f"term {tuple(raw[i].tolist())} (coefficient {coeffs[i]}): {rule}")
        exps.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "species", species)
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "coeffs", coeffs)

    # ------------------------------------------------------------------
    # construction and plumbing

    @classmethod
    def from_terms(cls, species, terms) -> "Mixture":
        """Build from a map {exponent tuple -> coefficient}."""
        return cls(species, list(terms), list(terms.values()))

    def terms(self) -> dict[tuple[int, ...], float]:
        """Coefficient map in canonical order (insertion order is sorted)."""
        return {tuple(int(d) for d in row): float(c) for row, c in zip(self.exponents, self.coeffs)}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mixture):
            return NotImplemented
        return (
            self.species == other.species
            and bool(np.array_equal(self.exponents, other.exponents))
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )

    @property
    def n_species(self) -> int:
        return len(self.species)

    @property
    def n_terms(self) -> int:
        return int(self.coeffs.shape[0])

    def _coerce_point(self, x) -> np.ndarray:
        """Accept a scalar (constant vector) or a length-S array."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return np.full(self.n_species, float(x))
        if x.shape[-1] != self.n_species:
            raise ValueError(f"point has {x.shape[-1]} coordinates, expected {self.n_species}")
        return x

    # ------------------------------------------------------------------
    # evaluation and derivatives

    def eval(self, x) -> float | np.ndarray:
        """Evaluate xi at x; scalars broadcast to the constant vector.

        Supports batched input with species on the last axis.  xi is the
        partials' order 0 (`_partials`): a point is summed as a batch's row
        is, without BLAS, so its value is its row's in any batch.
        """
        xi = self._partials(x, 0)[..., 0]
        return float(xi) if xi.ndim == 0 else xi

    @cached_property
    def _tables(self) -> dict:
        """The kernel's tables by derivative order, each made on first use
        (`_table`)."""
        return {}

    def _table(self, order):
        """The kernel's (weights, degrees, factors) for derivative order 0, 1
        or 2, or for a tuple of orders, their multi-indices in turn (`_layout`
        of the orders' `_multi_indices`), with weights c_p * prod_s
        (p(s))_a(s), one row per multi-index a."""
        table = self._tables.get(order)
        if table is None:
            falling, degrees, factors = _layout(self.exponents.shape, self.exponents.tobytes(),
                                                _multi_indices(self.n_species, order))
            table = self._tables[order] = (self.coeffs * falling, degrees, factors)
        return table

    def _partials(self, x, order) -> np.ndarray:
        """Every partial derivative of xi of the given order, or tuple of
        orders, at x, one per multi-index on the last axis, sum_p weight *
        x^(lowered p); a batch of points has species on the last axis and gets
        the same expression and reduction order row by row.  The orders (0,
        1) give xi and its gradient from one power table per point."""
        weights, degrees, factors = self._table(order)
        return np.add.reduce(weights * _power_products(self._coerce_point(x), degrees, factors), -1)

    def grad(self, x) -> np.ndarray:
        """Gradient of xi at x; a batch of points gives one row per point."""
        return self._partials(x, 1)

    def hessian(self, x) -> np.ndarray:
        """Symmetric matrix of second partials of xi at a single point."""
        x = self._coerce_point(x)
        if x.ndim != 1:
            raise ValueError("hessian expects a single point")
        return self._partials(x, 2).reshape(self.n_species, self.n_species)

    def degree2_matrix(self) -> np.ndarray:
        """The matrix Q with Q[s,s] = 2*c_{2e_s}, Q[s,t] = c_{e_s+e_t}: the
        Hessian of xi at the origin, where only degree-2 terms contribute."""
        return self.hessian(0.0)

    # ------------------------------------------------------------------
    # band recentering

    def tilde_transform(self, r) -> "Mixture":
        """Recentred mixture xi_r(x) = xi((1-r^2)x + r^2) - xi(r^2).

        The shift acts like an external field: for r != 0 the result carries
        degree-1 terms, so it is no base model.  At r = 0 it equals xi, bit
        for bit.  The coefficient of each nonzero multi-index a under a term
        is xi's Taylor coefficient at r^2, read from the kernel's table of
        those a (`_layout`),

            c_{a,r} = sum_p c_p * prod_s C(p(s), a(s)) * (r(s)^2)^max(p(s) - a(s), 0)
                      * prod_s (1 - r(s)^2)^a(s),

        with the binomial C(p, a) the quotient prod_s (p(s))_a(s) / a!
        rounded to an integer: exact while the falling factorial is below
        2^53, a few ulps off above.
        """
        r = _coerce_r(self.n_species, r)
        r2 = r * r
        # the multi-indices under some term, sorted, less the first, 0
        alphas = tuple(sorted({a for p in self.exponents.tolist()
                               for a in itertools.product(*(range(d + 1) for d in p))}))[1:]
        falling, degrees, factors = _layout(self.exponents.shape, self.exponents.tobytes(), alphas)
        under = np.array(alphas, dtype=np.int64).reshape(-1, self.n_species)
        factorials = np.cumprod(np.maximum(np.arange(under.max(initial=0) + 1), 1.0))
        weights = self.coeffs * np.rint(falling / factorials[under].prod(-1)[:, None])
        coeffs = (np.add.reduce(weights * _power_products(r2, degrees, factors), -1)
                  * ((1.0 - r2) ** under).prod(-1))
        keep = coeffs >= _COEFF_FLOOR
        return Mixture(self.species, under[keep], coeffs[keep])

    def eta_direction(self, x, z) -> float:
        """Directional derivative of eps -> xi_sqrt(eps*x)(z) at eps = 0.

        Closed form: sum_s [ d_s xi(z) * x(s) * (1 - z(s)) - d_s xi(0) * x(s) ].
        """
        x = self._coerce_point(x)
        z = self._coerce_point(z)
        g_z = self.grad(z)
        g_0 = self.grad(np.zeros(self.n_species))
        return float(np.sum(g_z * x * (1.0 - z) - g_0 * x))

    # ------------------------------------------------------------------
    # positivity

    def positive_off_origin(self) -> bool:
        """True iff xi(x) > 0 for every nonzero x in [0, 1]^S.

        For nonnegative coefficients this holds exactly when every species
        carries a pure term (all other degrees zero) with positive
        coefficient: a vector supported on one species kills every mixed
        monomial.
        """
        has_pure = [False] * self.n_species
        for row, c in zip(self.exponents, self.coeffs):
            if c <= 0.0:
                continue
            nz = np.nonzero(row)[0]
            if len(nz) == 1:
                has_pure[int(nz[0])] = True
        return all(has_pure)
