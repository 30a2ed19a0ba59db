"""Independent numerical oracles used by the tests.

Everything here deliberately avoids the code paths it is used to check:
finite differences instead of analytic derivatives, 1-d tangency root
finding instead of the ratio minimization over the overlap box, per-species
1-d maxima instead of the landscape search for separable models, direct
substitution and an exact rational binomial expansion instead of the
recentering transform's Taylor coefficients, and full-N tensor contractions
with block-masked configurations instead of the blocked matrix products of
the Hamiltonian.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import brentq


def fd_gradient(fun, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return out


def fd_hessian(fun, x: np.ndarray, h: float = 3e-5) -> np.ndarray:
    # h balances the O(h^2) truncation error (large near the box boundary,
    # where the entropy term's fourth derivative blows up) against the
    # O(eps/h^2) cancellation error of the four-point stencil
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            ei = np.zeros(n); ei[i] = h
            ej = np.zeros(n); ej[j] = h
            val = (
                fun(x + ei + ej) - fun(x + ei - ej)
                - fun(x - ei + ej) + fun(x - ei - ej)
            ) / (4.0 * h * h)
            out[i, j] = val
            out[j, i] = val
    return out


def rel_close(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b)) <= tol * max(1.0, float(np.linalg.norm(b)))


def degree2_matrix_by_hand(mixture) -> np.ndarray:
    """Q from the degree-2 coefficients alone: Q[s,s] = 2 c_{2e_s} and
    Q[s,t] = Q[t,s] = c_{e_s+e_t}; the Hessian of xi at the origin."""
    S = mixture.n_species
    Q = np.zeros((S, S))
    for degrees, c in mixture.terms().items():
        if sum(degrees) != 2:
            continue
        s, t = (i for i, d in enumerate(degrees) for _ in range(d))
        if s == t:
            Q[s, s] = 2.0 * c
        else:
            Q[s, t] = Q[t, s] = c
    return Q


def recentred_coefficients(mixture, r) -> dict:
    """The coefficients of xi_r(x) = xi((1 - r^2) x + r^2) - xi(r^2) in exact
    rational arithmetic, {multi-index: Fraction} for every nonzero one, by
    the binomial expansion of each term p over the multi-indices a <= p:

        c_{a,r} = sum_{p >= a} c_p * prod_s C(p(s), a(s))
                  * (1 - r(s)^2)^a(s) * r(s)^(2 (p(s) - a(s))),

    with the multi-index 0 left out, cancelled by the shift -xi(r^2).  The
    floats of r and of the coefficients are taken exactly."""
    r2 = [Fraction(float(v)) ** 2 for v in np.asarray(r, dtype=float)]
    acc: dict = {}
    for p, c in mixture.terms().items():
        for a in itertools.product(*(range(d + 1) for d in p)):
            w = Fraction(c) * math.prod(math.comb(d, j) * (1 - q) ** j * q ** (d - j)
                                        for d, j, q in zip(p, a, r2))
            if any(a) and w:
                acc[a] = acc.get(a, 0) + w
    return acc


def laplace_constant(model, beta: float) -> float:
    """c = -1/2 log det(I - beta^2 diag(lam)^-1 Q), the limit of
    N * ((1/N) log E Z^2 - beta^2 xi(1)) for beta < beta_m.

    Near the origin the overlap r(s) is about N(0, 1/(lam(s) N)) and the
    exponent N beta^2 xi(r) about N beta^2 r.Q r / 2; c is the log of that
    Gaussian integral.  Q comes from the degree-2 coefficients by hand.
    """
    lam = np.asarray(model.species.lam, dtype=float)
    Q = degree2_matrix_by_hand(model.mixture)
    sign, logdet = np.linalg.slogdet(np.eye(len(lam)) - beta * beta * Q / lam[:, None])
    assert sign > 0.0, "beta is past the origin's instability"
    return -0.5 * float(logdet)


def log_second_moment_by_full_grid(model, block_sizes, beta: float, n: int) -> float:
    """(1/N) log of the n-node Gauss-Legendre sum of the second-moment
    integral, summed over every point of the full n^S node grid at once.

    Nodes and weights come from numpy, the overlap density from its closed
    form Gamma(d/2) / (Gamma((d-1)/2) sqrt(pi)) (1 - r^2)^((d-3)/2), and xi
    from the mixture's term map; nothing is factored or eliminated.
    """
    from numpy.polynomial.legendre import leggauss

    S, N = model.n_species, sum(block_sizes)
    nodes, weights = leggauss(n)
    axes = [nodes.reshape([-1 if k == s else 1 for k in range(S)]) for s in range(S)]
    values = np.zeros((n,) * S)
    for s, d in enumerate(block_sizes):
        log_norm = math.lgamma(d / 2) - math.lgamma((d - 1) / 2) - 0.5 * math.log(math.pi)
        values = values + (np.log(weights) + log_norm + (d - 3) / 2 * np.log1p(-nodes * nodes)
                           ).reshape(axes[s].shape)
    xi = np.zeros((n,) * S)
    for degrees, c in model.mixture.terms().items():
        xi = xi + c * math.prod(axes[s] ** d for s, d in enumerate(degrees))
    values = values + N * beta * beta * (model.xi1() + xi)
    top = values.max()
    return float(top + np.log(np.sum(np.exp(values - top)))) / N


def pure_beta_m(p: int) -> float:
    """Tangency solution of f = 0, f' = 0 for xi(r) = r^p, single species.

    Eliminating beta from f'(r) = 0 gives beta^2 = 1/(p r^{p-2} (1 - r^2)),
    and f(r) = 0 becomes 0.5 log(1-r^2) + r^2/(p (1-r^2)) = 0.
    """
    fun = lambda r: 0.5 * np.log1p(-r * r) + r * r / (p * (1.0 - r * r))
    r = brentq(fun, 1e-6, 1.0 - 1e-12, xtol=1e-15, rtol=8.9e-16)
    return float(np.sqrt(1.0 / (p * r ** (p - 2) * (1.0 - r * r))))


def separable_max_f(model, beta: float, n: int = 20001) -> float:
    """max f_beta over [0, 1 - 1e-8]^S for a model whose terms are all pure.

    f_beta is then the sum over species of
    phi_s(r) = 1/2 lam_s log(1 - r^2) + beta^2 sum_p c_{s,p} r^p, so its
    maximum is the sum of their one-dimensional maxima.  Each is the best of
    an n-point grid, refined by the root of phi_s' that the grid maximum's
    neighbours bracket; phi_s and phi_s' are written from the term map.
    """
    terms = model.mixture.terms()
    if any(np.count_nonzero(degrees) > 1 for degrees in terms):
        raise ValueError("the model has a mixed term")
    b2 = beta * beta
    grid = np.linspace(0.0, 1.0 - 1e-8, n)
    total = 0.0
    for s, lam in enumerate(model.species.lam):
        pure = [(degrees[s], c) for degrees, c in terms.items() if degrees[s]]
        phi = lambda r: 0.5 * lam * np.log1p(-r * r) + b2 * sum(c * r ** p for p, c in pure)
        dphi = lambda r: -lam * r / (1.0 - r * r) + b2 * sum(p * c * r ** (p - 1) for p, c in pure)
        i = int(np.argmax(phi(grid)))
        best = float(phi(grid[i]))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, n - 1)]
        if dphi(lo) > 0.0 > dphi(hi):
            best = max(best, float(phi(brentq(dphi, lo, hi, xtol=1e-15, rtol=8.9e-16))))
        total += best
    return total


def pure_beta_c_talagrand(p: int) -> float:
    """Tangency solution of g = 0, g' = 0 for xi(r) = r^p, single species."""
    fun = lambda r: np.log1p(-r) + r + r * r / (p * (1.0 - r))
    r = brentq(fun, 1e-6, 1.0 - 1e-12, xtol=1e-15, rtol=8.9e-16)
    return float(np.sqrt(r ** (2 - p) / (p * (1.0 - r))))


def hamiltonian_by_masks(disorder, sigmas: np.ndarray) -> np.ndarray:
    """H for each row of ``sigmas``, one row and one species pattern at a time.

    A term of multi-index p sums over the distinct orderings of its species
    pattern; each mode of the full (N,)*|p| tensor is contracted with sigma
    zeroed outside that position's species block.  The prefactor sqrt(N) * D
    comes from the coefficient law

        D^2 = c_p * (prod_s p(s)!) / |p|! * prod_s N_s^{-p(s)}.
    """
    fm = disorder.fm
    mix = fm.model.mixture
    positions = np.arange(fm.N)
    masks = [(positions >= sl.start) & (positions < sl.stop) for sl in fm.block_slices]
    out = []
    for sigma in np.atleast_2d(sigmas):
        masked = [np.where(mask, sigma, 0.0) for mask in masks]
        total = 0.0
        for degrees, coeff, J in zip(mix.exponents, mix.coeffs, disorder.tensors):
            pattern = [s for s, d in enumerate(degrees) for _ in range(int(d))]
            d_sq = float(coeff) / math.factorial(len(pattern))
            for s, d in enumerate(degrees):
                d_sq *= math.factorial(int(d)) * float(fm.block_sizes[s]) ** -int(d)
            acc = 0.0
            for assign in set(itertools.permutations(pattern)):
                v = J
                for s in reversed(assign):
                    v = v @ masked[s]
                acc += float(v)
            total += math.sqrt(fm.N * d_sq) * acc
        out.append(total)
    return np.array(out)
