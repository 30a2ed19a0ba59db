"""Threshold computation and the singular-Hessian verdict.

Three thresholds are computed per model:

  beta_m        largest beta with max_{r in [0,1)^S} f_beta(r) <= tol_zero
  beta_m_tilde  same with the truncated functional (always >= beta_m)
  beta_H        smallest beta at which M(beta) = -diag(lam) + beta^2 Q
                acquires a nonnegative eigenvalue (closed form)

f_beta = -E(r) + beta^2 xi(r), with E(r) = -1/2 sum_s lam_s log(1 - r_s^2),
is affine in beta^2, so max f <= t holds exactly when beta^2 is at most an
infimum over the points with xi(r) > 0 (t = tol_zero):

  beta_m^2            inf (E(r) + t) / xi(r)
  beta_m_tilde^2      inf (E(r) + t) * (1/xi(r) + 1/xi(1))
  beta_c_talagrand^2  inf (-(log(1 - r) + r) + t) / xi(r)      (one species)

Each infimum is one minimization: a dense grid, then a bounded L-BFGS
polish with the analytic gradient.  Each threshold is capped at beta_H,
the r -> 0 limit of the same ratio; above beta_H the origin is unstable,
so the cap is exact and lands origin-driven models (SK) on beta_H.

The verdict is EQUAL when M(beta_m) is singular to within tolerance (then
beta_m is the critical inverse-temperature and is reported as such),
STRICTLY_LESS when its top eigenvalue is clearly negative, and
INCONCLUSIVE when the mixture is not strictly positive off the origin on
the unit box (the hypothesis under which the verdict is meaningful), the
eigenvalue cannot be classified, or the certificate fails: one global
maximization of f at beta_m, whose value must not exceed tol_zero.  The
report's witnesses give the ratio argmin and minimum and the certificate's
argmax, value, convergence and grid certification.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .landscape import _GRID_POINTS, DOMAIN_CLAMP, TOL_ZERO, _box_axis, _grid, _starts
from .landscape import hessian_at_zero, maximize_f
from .model import ModelSpec

__all__ = [
    "Verdict",
    "CritReport",
    "beta_m",
    "beta_m_tilde",
    "beta_hessian_singular",
    "beta_c_talagrand",
    "check_nsd",
    "verdict",
    "TOL_SING",
    "BISECT_TOL",
]

TOL_SING = 1e-6     # singularity band, relative to the scale of M
BISECT_TOL = 1e-9   # stated absolute accuracy of every threshold in beta
# beta^2 is taken this fraction below the ratio infimum, so that rounding in
# f cannot lift max f_beta above tol_zero at the reported threshold
_ROUND_DOWN = 1e-12


class Verdict(str, enum.Enum):
    EQUAL = "EQUAL"
    STRICTLY_LESS = "STRICTLY_LESS"
    INCONCLUSIVE = "INCONCLUSIVE"


def _sing_scale(model: ModelSpec, beta: float) -> float:
    """Scale against which 'singular' is judged: |Lam| + beta^2 |Q|."""
    lam_norm = float(np.max(model.species.lam))
    Q = model.mixture.degree2_matrix()
    q_norm = float(np.max(np.abs(np.linalg.eigvalsh(Q)))) if Q.any() else 0.0
    return lam_norm + beta * beta * q_norm


def beta_hessian_singular(model: ModelSpec) -> float:
    """Smallest beta >= 0 with lambda_max(M(beta)) >= 0, in closed form.

    With Lam = diag(lam) and Q the degree-2 coefficient matrix, the
    threshold is 1/sqrt(mu_max) for mu_max the top eigenvalue of
    Lam^{-1/2} Q Lam^{-1/2}; infinite when Q = 0.  lambda_max(M(beta)) is
    nondecreasing in beta, so this is a genuine threshold.
    """
    Q = model.mixture.degree2_matrix()
    if not Q.any():
        return float("inf")
    inv_sqrt = np.diag(1.0 / np.sqrt(model.species.lam))
    mu = float(np.linalg.eigvalsh(inv_sqrt @ Q @ inv_sqrt).max())
    if mu <= 0.0:
        return float("inf")
    return float(1.0 / math.sqrt(mu))


def check_nsd(model: ModelSpec, beta: float) -> tuple[float, bool]:
    """Top eigenvalue of M(beta) and whether M(beta) is negative semi-definite."""
    lam_max = float(np.linalg.eigvalsh(hessian_at_zero(model, beta)).max())
    return lam_max, lam_max <= TOL_SING * _sing_scale(model, beta)


@dataclass(frozen=True)
class _RatioMin:
    beta: float           # sqrt of the infimum, capped at beta_H
    ratio: float          # the infimum, before the cap
    argmin: np.ndarray
    grid_certified: bool  # located on a dense grid (|S| <= 3)


def _ratio_min(model: ModelSpec, objective: str, tol_zero: float) -> _RatioMin:
    """Infimum of (cost(r) + tol_zero) * (1/xi(r) + c) over xi(r) > 0.

    cost is E with c = 0 ("plain") or c = 1/xi(1) ("tilde"), or
    -(log(1 - r) + r) with c = 0 ("talagrand").  The grid argmin (4001
    points for one species, 201 per axis for two or three) is polished by
    one L-BFGS run; four to six species run L-BFGS from each of
    maximize_f's starts instead.
    """
    if model.xi1() <= 0.0:
        raise ValueError("threshold computation requires xi(1) > 0")
    S = model.n_species
    lam = model.species.lam
    mix = model.mixture
    if objective == "talagrand":
        def cost(s, r):
            return -(np.log1p(-r) + r)

        def dcost(r):
            return r / (1.0 - r)
    else:
        def cost(s, r):
            return -0.5 * lam[s] * np.log1p(-r * r)

        def dcost(r):
            return lam * r / (1.0 - r * r)
    c = 1.0 / model.xi1() if objective == "tilde" else 0.0

    def ratio(r):
        xir = float(mix.eval(r))
        if xir <= 0.0:
            return np.inf, np.zeros(S)
        num = sum(float(cost(s, r[s])) for s in range(S)) + tol_zero
        w = 1.0 / xir + c
        return num * w, dcost(r) * w - num * mix.grad(r) / (xir * xir)

    hi = 1.0 - DOMAIN_CLAMP
    if S <= 3:
        axis = _box_axis(4001 if S == 1 else _GRID_POINTS)
        xi_grid, num = _grid(model, axis, cost)
        num += tol_zero
        with np.errstate(divide="ignore", invalid="ignore"):
            num *= 1.0 / xi_grid + c
        num[xi_grid <= 0.0] = np.inf
        idx = np.unravel_index(int(np.argmin(num)), num.shape)
        starts = [axis[list(idx)]]
        best, argmin = float(num[idx]), starts[0]
    else:
        starts = _starts(S)
        best, argmin = np.inf, starts[0]
    for x0 in starts:
        res = minimize(ratio, x0, jac=True, method="L-BFGS-B", bounds=[(0.0, hi)] * S,
                       options={"ftol": 1e-16, "gtol": 1e-12, "maxiter": 500})
        x = np.clip(res.x, 0.0, hi)
        value = ratio(x)[0]
        if value < best:
            best, argmin = value, x
    beta = min(math.sqrt(best * (1.0 - _ROUND_DOWN)), beta_hessian_singular(model))
    return _RatioMin(beta, best, argmin, S <= 3)


def beta_m(model: ModelSpec, *, tol_zero: float = TOL_ZERO) -> float:
    """Second-moment threshold: largest beta with max f_beta <= tol_zero."""
    return _ratio_min(model, "plain", tol_zero).beta


def beta_m_tilde(model: ModelSpec, *, tol_zero: float = TOL_ZERO) -> float:
    """Threshold of the truncated functional; upper-bounds beta_m."""
    return _ratio_min(model, "tilde", tol_zero).beta


def beta_c_talagrand(model: ModelSpec, *, tol_zero: float = TOL_ZERO) -> float:
    """Single-species critical inverse-temperature via the g criterion.

    Largest beta with sup_r g_beta(r) <= tol_zero, capped at the
    origin-instability threshold (g''(0) = lambda_max of M(beta) when
    |S| = 1).  Serves as an independent oracle for beta_c in the
    single-species case.
    """
    if model.n_species != 1:
        raise ValueError("the g criterion applies to single-species models only")
    return _ratio_min(model, "talagrand", tol_zero).beta


@dataclass(frozen=True)
class CritReport:
    """Thresholds, spectrum at beta_m, verdict, witnesses and tolerances."""

    beta_m: float
    beta_m_tilde: float
    beta_H: float
    spectrum_at_beta_m: tuple[float, ...]
    verdict: Verdict
    xi_positive_off_origin: bool
    beta_c: float | None
    witnesses: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "beta_m": self.beta_m,
            "beta_m_tilde": self.beta_m_tilde,
            "beta_H": self.beta_H if np.isfinite(self.beta_H) else "inf",
            "spectrum_at_beta_m": list(self.spectrum_at_beta_m),
            "verdict": self.verdict.value,
            "xi_positive_off_origin": self.xi_positive_off_origin,
            "beta_c": self.beta_c,
            "witnesses": self.witnesses,
            "tolerances": self.tolerances,
        }

    def to_json(self, **extra) -> str:
        doc = self.to_dict()
        doc.update(extra)
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def verdict(
    model: ModelSpec,
    *,
    tol_zero: float = TOL_ZERO,
    tol_sing: float = TOL_SING,
) -> CritReport:
    """Full criticality report for a model.

    EQUAL means beta_c equals beta_m and is reported; STRICTLY_LESS means
    beta_m < beta_c and beta_c itself is not computed (beta_m_tilde is a
    certified lower bound on beta_c); INCONCLUSIVE withholds the verdict.
    One global maximization of f at beta_m certifies the ratio infimum:
    its value must not exceed tol_zero.
    """
    positive = model.mixture.positive_off_origin()
    plain = _ratio_min(model, "plain", tol_zero)
    b_m = plain.beta
    b_t = beta_m_tilde(model, tol_zero=tol_zero)
    b_H = beta_hessian_singular(model)
    cert = maximize_f(model, b_m)
    spectrum = tuple(float(v) for v in np.linalg.eigvalsh(hessian_at_zero(model, b_m)))
    lam_max = spectrum[-1]
    band = tol_sing * _sing_scale(model, b_m)
    if not positive or cert.value > tol_zero:
        v = Verdict.INCONCLUSIVE
    elif abs(lam_max) <= band:
        v = Verdict.EQUAL
    elif lam_max < -band:
        v = Verdict.STRICTLY_LESS
    else:
        v = Verdict.INCONCLUSIVE

    witnesses = {
        "argmin_ratio": [float(x) for x in plain.argmin],
        "min_ratio": float(plain.ratio),
        "grid_certified_ratio": plain.grid_certified,
        "argmax_certificate": [float(x) for x in cert.argmax],
        "value_certificate": float(cert.value),
        "converged_certificate": bool(cert.converged),
        "grid_certified_certificate": bool(cert.grid_certified),
    }
    return CritReport(
        beta_m=float(b_m),
        beta_m_tilde=float(b_t),
        beta_H=float(b_H),
        spectrum_at_beta_m=spectrum,
        verdict=v,
        xi_positive_off_origin=positive,
        beta_c=float(b_m) if v is Verdict.EQUAL else None,
        witnesses=witnesses,
        tolerances={"tol_zero": tol_zero, "tol_sing": tol_sing, "bisect_tol": BISECT_TOL},
    )
