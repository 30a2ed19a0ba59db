import math
import time

import numpy as np
import pytest

from spinmix import (
    Mixture,
    ModelSpec,
    SpeciesSet,
    Verdict,
    beta_c_talagrand,
    beta_hessian_singular,
    beta_m,
    beta_m_tilde,
    check_nsd,
    criticality,
    f_beta,
    landscape,
    maximize_f,
    verdict,
)
from spinmix.landscape import TOL_ZERO

from conftest import random_model
from oracles import pure_beta_c_talagrand, pure_beta_m

SQRT_HALF = 1.0 / math.sqrt(2.0)


# ----------------------------------------------------------------------
# thresholds


def test_beta_m_sk(sk):
    assert beta_m(sk) == pytest.approx(SQRT_HALF, abs=1e-8)


def test_beta_c_talagrand_sk_two_routes(sk):
    assert beta_c_talagrand(sk) == pytest.approx(beta_m(sk), abs=1e-7)


@pytest.mark.parametrize("p", [3, 4])
def test_beta_m_pure_matches_tangency_oracle(p):
    from spinmix import pure_model

    assert beta_m(pure_model(p)) == pytest.approx(pure_beta_m(p), abs=1e-7)


@pytest.mark.parametrize("p", [3, 4])
def test_beta_c_talagrand_pure_matches_tangency_oracle(p):
    from spinmix import pure_model

    assert beta_c_talagrand(pure_model(p)) == pytest.approx(
        pure_beta_c_talagrand(p), abs=1e-7
    )


def test_pure3_strict_gap(pure3):
    assert beta_c_talagrand(pure3) - beta_m(pure3) > 1e-3


def test_beta_m_tilde_upper_bounds_beta_m(sk, pure3, cubic_two_species):
    for model in (sk, pure3, cubic_two_species):
        assert beta_m(model) <= beta_m_tilde(model) + 1e-9


def test_threshold_sandwich_when_hessian_threshold_finite(sk, two_quad, cubic_two_species):
    for model in (sk, two_quad, cubic_two_species):
        b_m = beta_m(model)
        b_t = beta_m_tilde(model)
        b_H = beta_hessian_singular(model)
        assert b_m <= b_t + 1e-9
        assert b_t <= b_H + 1e-9


def test_beta_hessian_singular_values(sk, pure3, two_quad):
    assert beta_hessian_singular(sk) == pytest.approx(SQRT_HALF, abs=1e-14)
    assert math.isinf(beta_hessian_singular(pure3))
    assert beta_hessian_singular(two_quad) == pytest.approx(1.0 / math.sqrt(6.0), abs=1e-14)


def test_beta_m_requires_positive_xi1():
    model = ModelSpec(
        SpeciesSet(("a",), np.array([1.0])),
        Mixture(("a",), np.empty((0, 1), dtype=np.int64), np.empty(0)),
    )
    with pytest.raises(ValueError):
        beta_m(model)


# ----------------------------------------------------------------------
# verdicts


def test_verdict_sk_equal(sk):
    rep = verdict(sk)
    assert rep.verdict is Verdict.EQUAL
    assert rep.beta_c == pytest.approx(SQRT_HALF, abs=1e-8)
    assert rep.xi_positive_off_origin
    assert abs(rep.spectrum_at_beta_m[-1]) <= 1e-6


@pytest.mark.parametrize("p", [3, 4])
def test_verdict_pure_strictly_less(p):
    from spinmix import pure_model

    rep = verdict(pure_model(p))
    assert rep.verdict is Verdict.STRICTLY_LESS
    assert rep.beta_c is None
    assert rep.spectrum_at_beta_m == (-1.0,)


def test_verdict_two_species_quadratic_equal(two_quad):
    rep = verdict(two_quad)
    assert rep.verdict is Verdict.EQUAL
    assert rep.beta_m == pytest.approx(rep.beta_H, abs=1e-6)


def test_verdict_quadratic_mixtures_always_equal():
    # any purely quadratic mixture with positivity has a singular M(beta_m)
    model = ModelSpec(
        SpeciesSet(("a", "b"), np.array([0.3, 0.7])),
        Mixture.from_terms(("a", "b"), {(2, 0): 0.8, (0, 2): 1.7, (1, 1): 0.4}),
    )
    rep = verdict(model)
    assert rep.verdict is Verdict.EQUAL


def test_verdict_inconclusive_without_positivity(cross_only):
    rep = verdict(cross_only)
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert not rep.xi_positive_off_origin
    assert rep.beta_c is None
    # thresholds are still computed and reported
    assert math.isfinite(rep.beta_m)


def test_report_invariants(sk, pure3, two_quad, cubic_two_species):
    for model in (sk, pure3, two_quad, cubic_two_species):
        rep = verdict(model)
        assert rep.beta_m <= rep.beta_m_tilde + rep.tolerances["beta_tol"]
        assert rep.beta_m <= rep.beta_H + rep.tolerances["beta_tol"]
        lam_max = rep.spectrum_at_beta_m[-1]
        if rep.verdict is Verdict.EQUAL:
            assert abs(lam_max) <= 1e-5
        if rep.verdict is Verdict.STRICTLY_LESS:
            assert lam_max < 0.0


def test_report_serializes(sk):
    import json

    rep = verdict(sk)
    doc = json.loads(rep.to_json(model_hash="abc"))
    assert doc["verdict"] == "EQUAL"
    assert doc["model_hash"] == "abc"
    assert set(doc["tolerances"]) == {"tol_zero", "tol_sing", "beta_tol"}


def test_the_tolerances_are_the_package_constants(sk):
    # no call sets a tolerance; the report states the constants it used
    assert verdict(sk).tolerances == {"tol_zero": TOL_ZERO, "tol_sing": criticality.TOL_SING,
                                      "beta_tol": criticality.BETA_TOL}
    for call, keyword in ((beta_m, "tol_zero"), (beta_m_tilde, "tol_zero"),
                          (beta_c_talagrand, "tol_zero"), (verdict, "tol_zero"),
                          (verdict, "tol_sing")):
        with pytest.raises(TypeError):
            call(sk, **{keyword: 0.0})


# ----------------------------------------------------------------------
# negative semi-definiteness probe


def test_check_nsd_sk_values(sk):
    lam_max, is_nsd = check_nsd(sk, 0.5)
    assert lam_max == pytest.approx(-0.5, abs=1e-15)
    assert is_nsd
    lam_max, is_nsd = check_nsd(sk, 1.0)
    assert lam_max == pytest.approx(1.0, abs=1e-15)
    assert not is_nsd


def test_check_nsd_at_zero_beta(two_quad, cubic_two_species):
    for model in (two_quad, cubic_two_species):
        lam_max, is_nsd = check_nsd(model, 0.0)
        assert lam_max == pytest.approx(-float(model.species.lam.min()), abs=1e-15)
        assert is_nsd


def test_check_nsd_below_threshold(sk, two_quad, cubic_two_species):
    for model in (sk, two_quad, cubic_two_species):
        if not model.mixture.positive_off_origin():
            continue
        b_m = beta_m(model)
        for frac in (0.25, 0.5, 0.75, 0.95):
            lam_max, is_nsd = check_nsd(model, frac * b_m)
            assert is_nsd
            assert lam_max < 0.0


# ----------------------------------------------------------------------
# ratio infimum against the max-f predicate


def _model(lam, terms):
    names = "abcd"[:len(lam)]
    return ModelSpec(SpeciesSet(tuple(names), np.array(lam)), Mixture.from_terms(names, terms))


def _oracle_models(sk, pure3, pure4, two_quad):
    models = [sk, pure3, pure4, two_quad]
    rng = np.random.default_rng(20211)
    while len(models) < 7:
        model = random_model(rng, 2)
        if model.xi1() > 0.0:
            models.append(model)
    # two three-species chains whose beta_m_tilde a grid-only ratio search
    # (no local starts) put about 1e-5 too high
    models.append(_model(
        [0.40241303044657406, 0.36606610764356734, 0.23152086190985854],
        {(0, 0, 2): 0.6449946949362273, (0, 1, 1): 0.39754597570747563,
         (0, 3, 0): 1.3271039370247955, (1, 1, 0): 0.8219061477307561,
         (4, 0, 0): 1.2533018647084768}))
    models.append(_model(
        [0.37207858784700204, 0.43239871218821585, 0.1955226999647821],
        {(0, 0, 4): 0.728720627763624, (0, 1, 1): 0.9798989849404713,
         (0, 3, 0): 0.8987588451279414, (1, 1, 0): 0.7551359265930321,
         (2, 0, 0): 1.2360571428957443}))
    # a four-species STRICTLY_LESS chain (beta_m 0.26481 < beta_H 0.26486),
    # searched from the four-to-six-species start set with no grid
    models.append(_model(
        [0.28426109111978587, 0.1627645021298978, 0.1923289293150247, 0.36064547743529163],
        {(0, 0, 0, 4): 1.1855419844806947, (0, 0, 1, 1): 0.5722449967853727,
         (0, 0, 3, 0): 1.497209935789211, (0, 1, 1, 0): 0.781912711399658,
         (0, 2, 0, 0): 0.8836775542618834, (1, 1, 0, 0): 0.7553214933874713,
         (2, 0, 0, 0): 1.14718951157425}))
    return models


@pytest.mark.parametrize("objective, threshold", [("plain", beta_m), ("tilde", beta_m_tilde)])
def test_threshold_is_the_edge_of_the_max_f_predicate(sk, pure3, pure4, two_quad,
                                                      objective, threshold):
    # the predicate the thresholds are defined by: max f <= TOL_ZERO holds
    # just below the threshold and, unless the beta_H cap binds, fails just above
    for model in _oracle_models(sk, pure3, pure4, two_quad):
        b = threshold(model)
        assert maximize_f(model, b * (1.0 - 1e-6), objective).value <= TOL_ZERO
        if b < beta_hessian_singular(model) - 1e-6:
            assert maximize_f(model, b * (1.0 + 1e-6), objective).value > TOL_ZERO


def test_four_species_quadratic_mixture_is_equal_at_beta_H():
    names = ("a", "b", "c", "d")
    terms = {(2, 0, 0, 0): 0.9, (0, 2, 0, 0): 0.5, (0, 0, 2, 0): 1.3, (0, 0, 0, 2): 0.7,
             (1, 1, 0, 0): 0.4, (0, 1, 1, 0): 0.6, (0, 0, 1, 1): 0.3}
    model = ModelSpec(SpeciesSet(names, np.array([0.1, 0.2, 0.3, 0.4])),
                      Mixture.from_terms(names, terms))
    t0 = time.perf_counter()
    rep = verdict(model)
    elapsed = time.perf_counter() - t0
    assert rep.verdict is Verdict.EQUAL
    assert rep.beta_m == pytest.approx(rep.beta_H, abs=1e-9)
    assert not rep.witnesses["grid_certified_ratio"]
    assert elapsed < 5.0


def test_seven_species_are_refused_before_any_search(monkeypatch):
    names = tuple("abcdefg")
    terms = {tuple(2 * (t == s) for t in range(7)): 1.0 for s in range(7)}
    model = ModelSpec(SpeciesSet(names, np.full(7, 1.0 / 7.0)), Mixture.from_terms(names, terms))

    def no_search(*args, **kwargs):
        raise AssertionError("a local search ran")

    monkeypatch.setattr(landscape, "_ascend", no_search)
    for compute in (beta_m, beta_m_tilde, verdict):
        with pytest.raises(ValueError, match="at most 6 species"):
            compute(model)


def test_verdict_computes_beta_H_once(two_quad, monkeypatch):
    # the ratio search's cap and the report share one beta_hessian_singular
    calls = []
    closed_form = criticality.beta_hessian_singular
    monkeypatch.setattr(criticality, "beta_hessian_singular",
                        lambda model: calls.append(model) or closed_form(model))
    rep = verdict(two_quad)
    assert len(calls) == 1 and rep.beta_H == closed_form(two_quad)


def test_certificate_rejects_an_infimum_one_percent_too_large(pure3, monkeypatch):
    exact = criticality._ratio_min

    def too_large(model, objectives):
        beta_H, found = exact(model, objectives)
        return beta_H, [(beta * math.sqrt(1.01), search) for beta, search in found]

    monkeypatch.setattr(criticality, "_ratio_min", too_large)
    rep = verdict(pure3)
    assert rep.witnesses["value_certificate"] > rep.tolerances["tol_zero"]
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert rep.beta_c is None


def test_verdict_witnesses_the_ratio_argmin_and_certificate(pure3):
    rep = verdict(pure3)
    w = rep.witnesses
    assert w["grid_certified_ratio"] and w["grid_certified_certificate"]
    assert w["converged_certificate"]
    assert w["value_certificate"] <= rep.tolerances["tol_zero"]
    assert rep.beta_m == pytest.approx(math.sqrt(w["min_ratio"]), abs=1e-12)
    # beta_m^2 xi(r*) = E(r*) + tol_zero at the argmin, so f sits at tol_zero there
    r = w["argmin_ratio"]
    assert f_beta(pure3, rep.beta_m, r) == pytest.approx(rep.tolerances["tol_zero"], abs=1e-12)
