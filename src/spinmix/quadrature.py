"""Exact finite-N second moment by log-domain tensor-product quadrature.

The quantity computed is

    (1/N) log  integral over [-1,1]^S of
        prod_s (omega_{N_s-1}/omega_{N_s}) (1 - r(s)^2)^{(N_s-3)/2}
        * exp(N beta^2 (xi(1) + xi(r)))  dr

with omega_d the surface area of the unit sphere in R^d.  The density
factor is the exact law of the per-species overlap between two independent
uniform points, so the value is 0 at beta = 0 for every N.  Everything is
assembled in the log domain; the only exponentiation happens inside a
shifted logsumexp.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln, logsumexp, roots_legendre

from .landscape import _grid
from .montecarlo import FiniteModel

__all__ = ["QuadratureError", "log_sphere_surface", "log_overlap_density", "log_E_Z2_exact"]

_NODE_LADDER = (65, 129, 257, 513, 1025, 2049)


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to converge; carries the last residual."""

    def __init__(self, residual: float, nodes: int):
        super().__init__(
            f"quadrature residual {residual:.3e} after {nodes} nodes per axis"
        )
        self.residual = residual
        self.nodes = nodes


def log_sphere_surface(d: int) -> float:
    """log of the surface area of the unit sphere in R^d."""
    return np.log(2.0) + (d / 2.0) * np.log(np.pi) - gammaln(d / 2.0)


def log_overlap_density(r: np.ndarray, d: int) -> np.ndarray:
    """log density of the overlap of two uniform points on a d-sphere."""
    return (
        log_sphere_surface(d - 1)
        - log_sphere_surface(d)
        + ((d - 3) / 2.0) * np.log1p(-r * r)
    )


def _log_integral(fm: FiniteModel, beta: float, n_nodes: int) -> float:
    nodes, weights = roots_legendre(n_nodes)
    # xi and the per-axis log(weight) + log(density) on the node grid
    xi, base = _grid(
        fm.model, nodes,
        lambda s, a: np.log(weights) + log_overlap_density(a, fm.block_sizes[s]),
    )
    log_integrand = base + fm.N * beta * beta * (fm.model.xi1() + xi)
    return float(logsumexp(log_integrand)) / fm.N


def log_E_Z2_exact(fm: FiniteModel, beta: float, *, tol: float = 1e-9) -> float:
    """(1/N) log of the exact finite-N second moment of the partition function.

    Adaptive Gauss-Legendre per axis: the node count is doubled until two
    consecutive refinements agree to ``tol``; raises QuadratureError when
    the ladder is exhausted.  Deterministic, no randomness involved.
    """
    if fm.model.n_species > 3:
        raise ValueError("tensor-product quadrature supports at most 3 species")
    prev = None
    ladder = _NODE_LADDER if fm.model.n_species < 3 else _NODE_LADDER[:4]
    for n_nodes in ladder:
        val = _log_integral(fm, beta, n_nodes)
        if prev is not None and abs(val - prev) <= tol:
            return val
        prev = val
    raise QuadratureError(abs(val - prev), ladder[-1])
