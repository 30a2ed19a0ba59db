"""Threshold computation and the singular-Hessian verdict.

Three thresholds are computed per model:

  beta_m        largest beta with max_{r in [0,1)^S} f_beta(r) <= TOL_ZERO
  beta_m_tilde  same with the truncated functional (always >= beta_m)
  beta_H        smallest beta at which M(beta) = -diag(lam) + beta^2 Q
                acquires a nonnegative eigenvalue (closed form)

f_beta = -E(r) + beta^2 xi(r), with E(r) = -1/2 sum_s lam_s log(1 - r_s^2),
is affine in beta^2, and so is its truncated variant, so max f <= t holds
exactly when beta^2 is at most an infimum over the points with xi(r) > 0
(t = TOL_ZERO):

  beta_m^2            inf (E(r) + t) / xi(r)
  beta_m_tilde^2      inf (E(r) + t) / (xi(1) xi(r) / (xi(1) + xi(r)))
  beta_c_talagrand^2  inf (-(log(1 - r) + r) + t) / xi(r)      (one species)

that is, the objective's cost plus t over its energy term at beta = 1.  Each
infimum is a landscape `_search` of minus the ratio, the search maximize_f
runs, with the same grid, starts, certification and batched ascent
(`landscape._ascend`).  Every searched rule is (A, B, C) and a kind.  Its
energy term is A x / (B + C x) of x = xi(r), with (A, B, C) the objective's
from landscape's table (`landscape._energy`): beta^2 x is (beta^2, 1, 0),
the truncated term (beta^2 xi(1), xi(1), 1).  f is the kind "energy minus
the summed cost c"; minus a ratio is the other kind, -(c + t) / energy at
beta = 1, of the same (A, B, C), with t landscape's TOL_ZERO: landscape
alone turns a rule into its value and partials.  The plain and truncated
ratios share the entropy, so the verdict finds both infima in one batched
search.  Each threshold is capped at beta_H, the r -> 0 limit of the same
ratio; above beta_H the origin is unstable, so the cap is exact and lands
origin-driven models (SK) on beta_H.

The verdict is EQUAL when M(beta_m) is singular to within tolerance (then
beta_m is the critical inverse-temperature and is reported as such),
STRICTLY_LESS when its top eigenvalue is clearly negative, and
INCONCLUSIVE when the mixture is not strictly positive off the origin on
the unit box (the hypothesis under which the verdict is meaningful), the
eigenvalue cannot be classified, or the certificate fails: one global
maximization of f at beta_m, whose value must not exceed TOL_ZERO.  The
report's witnesses give the plain ratio's argmin, minimum, grid
certification and convergence, and the certificate's argmax, value,
convergence and grid certification.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .landscape import TOL_ZERO, _energy, _search
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
    "BETA_TOL",
]

TOL_SING = 1e-6     # singularity band, relative to the scale of M
BETA_TOL = 1e-9     # stated absolute accuracy of every threshold in beta
# beta^2 is taken this fraction below the ratio infimum, so that rounding in
# f cannot lift max f_beta above TOL_ZERO at the reported threshold
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


def _ratio_min(model: ModelSpec, objectives) -> tuple[float, list]:
    """Infimum of each objective's ratio (cost(r) + TOL_ZERO) / E(xi(r)) over
    xi(r) > 0, with cost and E the objective's at beta = 1 from landscape's
    table (`landscape._energy`), as (beta_H, [(beta, search), ...]) with
    beta = sqrt(infimum), capped at beta_H, and search the landscape
    `_search` of minus the ratio.

    The objectives share one cost, so one batched `_search` finds every
    infimum: "plain" and "tilde" share the entropy, and "talagrand" goes
    alone.
    """
    if model.xi1() <= 0.0:
        raise ValueError("threshold computation requires xi(1) > 0")
    rules, costs, dcosts = zip(*(_energy(model, 1.0, objective) for objective in objectives))
    rules = [rule._replace(ratio=True) for rule in rules]
    beta_H = beta_hessian_singular(model)
    return beta_H, [(min(math.sqrt(-search.value * (1.0 - _ROUND_DOWN)), beta_H), search)
                    for search in _search(model, rules, costs[0], dcosts[0])]


def _threshold(model: ModelSpec, objective: str) -> float:
    return _ratio_min(model, (objective,))[1][0][0]


def beta_m(model: ModelSpec) -> float:
    """Second-moment threshold: largest beta with max f_beta <= TOL_ZERO."""
    return _threshold(model, "plain")


def beta_m_tilde(model: ModelSpec) -> float:
    """Threshold of the truncated functional; upper-bounds beta_m."""
    return _threshold(model, "tilde")


def beta_c_talagrand(model: ModelSpec) -> float:
    """Single-species critical inverse-temperature via the g criterion.

    Largest beta with sup_r g_beta(r) <= TOL_ZERO, capped at the
    origin-instability threshold (g''(0) = lambda_max of M(beta) when
    |S| = 1).  Serves as an independent oracle for beta_c in the
    single-species case.
    """
    return _threshold(model, "talagrand")


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
        """Every field, with an infinite beta_H as "inf", the spectrum as a
        list and the verdict as its value."""
        return {**vars(self), "beta_H": self.beta_H if np.isfinite(self.beta_H) else "inf",
                "spectrum_at_beta_m": list(self.spectrum_at_beta_m),
                "verdict": self.verdict.value}

    def to_json(self, **extra) -> str:
        doc = self.to_dict()
        doc.update(extra)
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def verdict(model: ModelSpec) -> CritReport:
    """Full criticality report for a model.

    EQUAL means beta_c equals beta_m and is reported; STRICTLY_LESS means
    beta_m < beta_c and beta_c itself is not computed (beta_m_tilde is a
    certified lower bound on beta_c); INCONCLUSIVE withholds the verdict.
    One global maximization of f at beta_m certifies the ratio infimum:
    its value must not exceed TOL_ZERO.
    """
    positive = model.mixture.positive_off_origin()
    b_H, ((b_m, plain), (b_t, _)) = _ratio_min(model, ("plain", "tilde"))
    cert = maximize_f(model, b_m)
    spectrum = tuple(float(v) for v in np.linalg.eigvalsh(hessian_at_zero(model, b_m)))
    lam_max = spectrum[-1]
    band = TOL_SING * _sing_scale(model, b_m)
    if not positive or cert.value > TOL_ZERO:
        v = Verdict.INCONCLUSIVE
    elif abs(lam_max) <= band:
        v = Verdict.EQUAL
    elif lam_max < -band:
        v = Verdict.STRICTLY_LESS
    else:
        v = Verdict.INCONCLUSIVE

    witnesses = {
        "argmin_ratio": [float(x) for x in plain.argmax],
        "min_ratio": -plain.value,
        "grid_certified_ratio": plain.grid_certified,
        "converged_ratio": bool(plain.converged),
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
        tolerances={"tol_zero": TOL_ZERO, "tol_sing": TOL_SING, "beta_tol": BETA_TOL},
    )
