"""Independent numerical oracles used by the tests.

Everything here deliberately avoids the code paths it is used to check:
finite differences instead of analytic derivatives, 1-d tangency root
finding instead of the ratio minimization over the overlap box, and direct
substitution instead of the binomial coefficient transform.
"""

from __future__ import annotations

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


def pure_beta_m(p: int) -> float:
    """Tangency solution of f = 0, f' = 0 for xi(r) = r^p, single species.

    Eliminating beta from f'(r) = 0 gives beta^2 = 1/(p r^{p-2} (1 - r^2)),
    and f(r) = 0 becomes 0.5 log(1-r^2) + r^2/(p (1-r^2)) = 0.
    """
    fun = lambda r: 0.5 * np.log1p(-r * r) + r * r / (p * (1.0 - r * r))
    r = brentq(fun, 1e-6, 1.0 - 1e-12, xtol=1e-15, rtol=8.9e-16)
    return float(np.sqrt(1.0 / (p * r ** (p - 2) * (1.0 - r * r))))


def pure_beta_c_talagrand(p: int) -> float:
    """Tangency solution of g = 0, g' = 0 for xi(r) = r^p, single species."""
    fun = lambda r: np.log1p(-r) + r + r * r / (p * (1.0 - r))
    r = brentq(fun, 1e-6, 1.0 - 1e-12, xtol=1e-15, rtol=8.9e-16)
    return float(np.sqrt(r ** (2 - p) / (p * (1.0 - r))))
