"""Reference values for the benchmark's output checks, computed without spinmix.

Models are handled as the JSON documents the benchmark writes (species with
their proportions, terms with degrees and ``delta_sq``), and every formula is
derived again here from its definition:

  xi(r)          sum over terms of delta_sq * prod_s r_s^{d_s}
  f_beta(r)      0.5 * sum_s lam_s log(1 - r_s^2) + beta^2 xi(r)
  f~_beta(r)     same entropy, energy beta^2 xi(1) xi(r) / (xi(1) + xi(r))
  beta_H         1 / sqrt(top eigenvalue of Lam^-1/2 Q Lam^-1/2), with Q the
                 Hessian of xi at the origin (inf when Q = 0)
  beta_m         f_beta <= 0 on [0,1)^S  iff  beta^2 <= inf_r E(r) / xi(r),
                 E(r) = -0.5 sum_s lam_s log(1 - r_s^2); capped at beta_H
  beta_c (S=1)   same with E(r) = -(log(1 - r) + r)

For pure p-spin models the two one-species thresholds are the tangency roots
(f = 0 and f' = 0 at one r), solved as one-dimensional equations.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq, minimize, minimize_scalar

__all__ = [
    "species_names",
    "lam",
    "xi",
    "f_plain",
    "f_tilde",
    "degree2_matrix",
    "beta_H",
    "lambda_max_M",
    "pure_beta_m",
    "pure_beta_c",
    "one_species_beta_m",
    "one_species_beta_c",
    "beta_m_estimate",
]

_EDGE = 1.0 - 1e-12


def species_names(doc: dict) -> list[str]:
    return [s["name"] for s in doc["species"]]


def lam(doc: dict) -> np.ndarray:
    return np.array([float(s["lambda"]) for s in doc["species"]])


def _terms(doc: dict):
    names = species_names(doc)
    for term in doc["terms"]:
        yield [int(term["degrees"].get(n, 0)) for n in names], float(term["delta_sq"])


def xi(doc: dict, r) -> np.ndarray:
    """xi at r; r has the species on its last axis."""
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape[:-1])
    for degrees, c in _terms(doc):
        mono = np.ones(r.shape[:-1])
        for s, d in enumerate(degrees):
            if d:
                mono = mono * r[..., s] ** d
        out = out + c * mono
    return out


def _entropy(doc: dict, r: np.ndarray) -> np.ndarray:
    return 0.5 * np.sum(lam(doc) * np.log1p(-r * r), axis=-1)


def f_plain(doc: dict, beta: float, r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    return _entropy(doc, r) + beta * beta * xi(doc, r)


def f_tilde(doc: dict, beta: float, r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    x1 = float(xi(doc, np.ones(len(doc["species"]))))
    xr = xi(doc, r)
    return _entropy(doc, r) + beta * beta * x1 * xr / (x1 + xr)


def degree2_matrix(doc: dict) -> np.ndarray:
    """Hessian of xi at the origin: only total-degree-2 terms contribute."""
    S = len(doc["species"])
    Q = np.zeros((S, S))
    for degrees, c in _terms(doc):
        if sum(degrees) != 2:
            continue
        idx = [s for s, d in enumerate(degrees) for _ in range(d)]
        if idx[0] == idx[1]:
            Q[idx[0], idx[0]] += 2.0 * c
        else:
            Q[idx[0], idx[1]] += c
            Q[idx[1], idx[0]] += c
    return Q


def beta_H(doc: dict) -> float:
    Q = degree2_matrix(doc)
    inv_sqrt = 1.0 / np.sqrt(lam(doc))
    mu = float(np.linalg.eigvalsh(inv_sqrt[:, None] * Q * inv_sqrt[None, :]).max())
    return 1.0 / math.sqrt(mu) if mu > 0.0 else math.inf


def lambda_max_M(doc: dict, beta: float) -> float:
    """Top eigenvalue of -diag(lam) + beta^2 Q."""
    M = -np.diag(lam(doc)) + beta * beta * degree2_matrix(doc)
    return float(np.linalg.eigvalsh(M).max())


def pure_beta_m(p: int) -> float:
    """Tangency of f for xi = r^p: f'(r) = 0 gives beta^2 = 1 / (p r^(p-2) (1-r^2)),
    and f(r) = 0 then reads 0.5 log(1-r^2) + r^2 / (p (1-r^2)) = 0."""
    r = brentq(lambda r: 0.5 * math.log1p(-r * r) + r * r / (p * (1.0 - r * r)),
               1e-6, _EDGE, xtol=1e-15, rtol=8.9e-16)
    return math.sqrt(1.0 / (p * r ** (p - 2) * (1.0 - r * r)))


def pure_beta_c(p: int) -> float:
    """Tangency of g = log(1-r) + r + beta^2 r^p: g'(r) = 0 gives
    beta^2 = r^(2-p) / (p (1-r)), and g(r) = 0 then reads
    log(1-r) + r + r^2 / (p (1-r)) = 0."""
    r = brentq(lambda r: math.log1p(-r) + r + r * r / (p * (1.0 - r)),
               1e-6, _EDGE, xtol=1e-15, rtol=8.9e-16)
    return math.sqrt(r ** (2 - p) / (p * (1.0 - r)))


def _one_species_ratio_inf(doc: dict, energy) -> float:
    """inf over r in (0,1) of energy(r) / xi(r), by a dense grid and a bounded
    polish around the best grid point, together with the r -> 0 limit."""
    rs = np.linspace(1e-4, 1.0 - 1e-6, 20001)
    vals = energy(rs) / xi(doc, rs[:, None])
    i = int(np.argmin(vals))
    lo, hi = rs[max(i - 1, 0)], rs[min(i + 1, len(rs) - 1)]
    res = minimize_scalar(lambda r: float(energy(np.array([r]))[0] / xi(doc, [[r]])[0]),
                          bounds=(lo, hi), method="bounded", options={"xatol": 1e-14})
    best = min(float(vals[i]), float(res.fun))
    return min(best, beta_H(doc) ** 2)


def one_species_beta_m(doc: dict) -> float:
    return math.sqrt(_one_species_ratio_inf(doc, lambda r: -0.5 * np.log1p(-r * r)))


def one_species_beta_c(doc: dict) -> float:
    return math.sqrt(_one_species_ratio_inf(doc, lambda r: -(np.log1p(-r) + r)))


def beta_m_estimate(doc: dict) -> float:
    """beta_m for any species count from the ratio inf on a 41^S grid,
    polished by one bounded quasi-Newton run; used to place an input beta."""
    S = len(doc["species"])
    L = lam(doc)
    axis = np.linspace(0.02, 0.98, 41)
    grid = np.stack(np.meshgrid(*([axis] * S), indexing="ij"), axis=-1).reshape(-1, S)

    def ratio(r):
        r = np.asarray(r, dtype=float)
        return -0.5 * np.sum(L * np.log1p(-r * r), axis=-1) / xi(doc, r)

    vals = ratio(grid)
    x0 = grid[int(np.argmin(vals))]
    res = minimize(lambda r: float(ratio(r)), x0, method="L-BFGS-B",
                   bounds=[(1e-4, 1.0 - 1e-6)] * S)
    best = min(float(vals.min()), float(res.fun))
    return math.sqrt(min(best, beta_H(doc) ** 2))
