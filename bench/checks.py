"""Output checks, one function per job kind.

Each check reads a job's output as the benchmark captured it (exit code,
standard output and the files the command wrote, or a library call's return
value) and returns the names of the conditions it fails.  Expected values
come from ``reference``, never from spinmix.
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference as ref

__all__ = ["critical", "talagrand", "scan", "verify", "band_probe", "estimate", "second_moment"]

# a threshold is bisected to 1e-9; the tests hold fixtures to 1e-7
TOL_FIXTURE = 1e-7
# random one-species models against the one-dimensional ratio infimum
TOL_RANDOM = 1e-6
# slack on orderings that hold exactly in exact arithmetic
TOL_ORDER = 1e-9
# a reported maximum may fall short of a probe value by this much
TOL_PROBE = 1e-9
TOL_ZERO_MOMENT = 1e-8

SQRT_HALF = 1.0 / math.sqrt(2.0)


def _num(x) -> float:
    return math.inf if x == "inf" else float(x)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def critical(out: dict, doc: dict, expect: dict) -> list[str]:
    """``expect`` may hold ``beta_m`` (a closed form), ``verdict`` and
    ``beta_c_is_beta_m``; ``random`` asks for the ordering checks."""
    if out["code"] != 0:
        return ["critical.exit_code"]
    rep = json.loads(out["files"][".json"])
    b_m, b_t, b_H = _num(rep["beta_m"]), _num(rep["beta_m_tilde"]), _num(rep["beta_H"])
    fails = []
    if "beta_m" in expect and not _close(b_m, expect["beta_m"], expect["tol"]):
        fails.append("critical.beta_m")
    if "verdict" in expect and rep["verdict"] != expect["verdict"]:
        fails.append("critical.verdict")
    if expect.get("beta_c_is_beta_m") and rep["beta_c"] != rep["beta_m"]:
        fails.append("critical.beta_c")
    if expect.get("random"):
        if not b_m <= b_t + TOL_ORDER:
            fails.append("critical.beta_m_le_beta_m_tilde")
        if not (math.isfinite(b_H) and b_t <= b_H + TOL_ORDER):
            fails.append("critical.beta_m_tilde_le_finite_beta_H")
        if not _close(b_H, ref.beta_H(doc), TOL_ORDER * max(1.0, b_H)):
            fails.append("critical.beta_H")
    return fails


def talagrand(out: dict, expected: float, tol: float) -> list[str]:
    return [] if _close(float(out["value"]), expected, tol) else ["talagrand.beta_c"]


def _scan_rows(text: str):
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    for line in rows[1:]:  # after the header
        beta, max_f, argmax, lam_max, max_tilde = line.split(",")
        yield (float(beta), float(max_f), [float(x) for x in argmax.split(";")],
               float(lam_max), float(max_tilde))


def scan(out: dict, doc: dict, betas: list[float], probes: np.ndarray) -> list[str]:
    """Each row's maxima are at least f at the probe points, its argmax
    attains the reported value, and lambda_max(M) matches the closed form."""
    if out["code"] != 0:
        return ["scan.exit_code"]
    rows = list(_scan_rows(out["files"][".csv"]))
    if [r[0] for r in rows] != betas:
        return ["scan.grid"]
    fails = set()
    for beta, max_f, argmax, lam_max, max_tilde in rows:
        if max_f < float(ref.f_plain(doc, beta, probes).max()) - TOL_PROBE:
            fails.add("scan.max_f_below_probe")
        if max_tilde < float(ref.f_tilde(doc, beta, probes).max()) - TOL_PROBE:
            fails.add("scan.max_f_tilde_below_probe")
        if not _close(float(ref.f_plain(doc, beta, np.array(argmax))), max_f,
                      TOL_PROBE * max(1.0, abs(max_f))):
            fails.add("scan.argmax_value")
        if not _close(lam_max, ref.lambda_max_M(doc, beta), TOL_ORDER * max(1.0, abs(lam_max))):
            fails.add("scan.lambda_max_M")
    return sorted(fails)


def verify(out: dict) -> list[str]:
    fails = [] if out["code"] == 0 else ["verify.exit_code"]
    doc = json.loads(out["files"][".json"]) if out["files"].get(".json") else {}
    if doc.get("all_passed") is not True:
        fails.append("verify.all_passed")
    return fails


def band_probe(out: dict, betas: list[float]) -> list[str]:
    if out["code"] != 0:
        return ["band_probe.exit_code"]
    lines = [l for l in out["files"][".csv"].splitlines() if l and not l.startswith("#")]
    rows = [[float(x) for x in l.split(",")] for l in lines[1:]]
    if [r[0] for r in rows] != betas:
        return ["band_probe.grid"]
    if not all(math.isfinite(x) for r in rows for x in r):
        return ["band_probe.finite"]
    return []


def estimate(out: dict, n_samples: int, seed: int) -> list[str]:
    """A Monte Carlo estimate echoes its sample count and seed, and both the
    estimate and its standard error are finite."""
    fails = []
    if out["n_samples"] != n_samples or out["seed"] != seed:
        fails.append("estimate.echo")
    if not (math.isfinite(out["estimate"]) and math.isfinite(out["std_error"])
            and out["std_error"] > 0.0):
        fails.append("estimate.finite")
    return fails


def second_moment(out: dict, beta: float, xi1: float) -> list[str]:
    """Zero at beta = 0; otherwise at least beta^2 xi(1), because
    E Z^2 >= (E Z)^2 = exp(N beta^2 xi(1)) exactly at every N."""
    v = float(out["value"])
    if beta == 0.0:
        return [] if abs(v) <= TOL_ZERO_MOMENT else ["second_moment.zero_at_beta0"]
    return [] if v >= beta * beta * xi1 - TOL_ZERO_MOMENT else ["second_moment.jensen_bound"]
