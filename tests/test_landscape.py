import math

import numpy as np
import pytest

from spinmix import (
    f_beta,
    f_tilde_beta,
    f_grad,
    f_hessian,
    g_beta,
    hessian_at_zero,
    maximize_f,
)

from conftest import random_model
from oracles import fd_gradient, fd_hessian, rel_close

SQRT_HALF = 1.0 / math.sqrt(2.0)


# ----------------------------------------------------------------------
# the functionals


def test_f_zero_at_origin(sk, two_quad):
    assert f_beta(sk, 1.3, 0.0) == 0.0
    assert f_beta(two_quad, 0.8, np.zeros(2)) == 0.0


def test_f_sk_by_direct_substitution(sk):
    expected = 0.5 * math.log(0.75) + 0.125
    assert f_beta(sk, SQRT_HALF, 0.5) == pytest.approx(expected, abs=1e-15)


def test_f_monotone_in_beta(cubic_two_species):
    r = np.array([0.3, 0.6])
    vals = [f_beta(cubic_two_species, b, r) for b in (0.0, 0.4, 0.8, 1.5)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_f_rejects_out_of_domain(sk):
    with pytest.raises(ValueError):
        f_beta(sk, 1.0, 1.0)
    with pytest.raises(ValueError):
        f_beta(sk, 1.0, -0.2)


def test_f_tilde_zero_at_origin(sk):
    assert f_tilde_beta(sk, 0.9, 0.0) == 0.0


def test_f_tilde_sk_by_direct_substitution(sk):
    expected = 0.5 * math.log(0.75) + 1.0 * (1.0 * 0.25) / 1.25
    assert f_tilde_beta(sk, 1.0, 0.5) == pytest.approx(expected, abs=1e-15)


def test_f_tilde_below_f_iff_xi_nonzero(cubic_two_species, cross_only):
    r = np.array([0.3, 0.5])
    assert f_tilde_beta(cubic_two_species, 0.7, r) < f_beta(cubic_two_species, 0.7, r)
    # on an axis the cross-only mixture has xi = 0, so the two agree exactly
    axis = np.array([0.5, 0.0])
    assert f_tilde_beta(cross_only, 0.7, axis) == f_beta(cross_only, 0.7, axis)


def test_g_zero_at_origin(sk):
    assert g_beta(sk, 0.77, 0.0) == 0.0


def test_g_rejects_multi_species(two_quad):
    with pytest.raises(ValueError):
        g_beta(two_quad, 0.5, 0.3)


def test_f_minus_g_is_odd_log_series(sk, pure3):
    # f - g = artanh(r) - r = sum_{n>=1} r^{2n+1}/(2n+1)
    for model in (sk, pure3):
        for r in (0.1, 0.45, 0.9):
            series = sum(r ** (2 * n + 1) / (2 * n + 1) for n in range(1, 201))
            diff = f_beta(model, 0.83, r) - g_beta(model, 0.83, r)
            assert diff == pytest.approx(series, abs=1e-8)


# ----------------------------------------------------------------------
# derivatives


def test_f_grad_zero_at_origin(two_quad):
    assert f_grad(two_quad, 0.9, np.zeros(2)) == pytest.approx(np.zeros(2), abs=0)


def test_f_derivatives_match_finite_differences():
    rng = np.random.default_rng(12)
    for _ in range(10):
        model = random_model(rng, int(rng.integers(1, 3)))
        beta = float(rng.uniform(0.2, 1.2))
        r = rng.uniform(0.1, 0.8, size=model.n_species)
        fun = lambda x: f_beta(model, beta, x)
        assert rel_close(fd_gradient(fun, r), f_grad(model, beta, r), 1e-6)
        assert rel_close(fd_hessian(fun, r), f_hessian(model, beta, r), 1e-6)


def test_hessian_at_zero_matches_f_hessian(sk, two_quad, cubic_two_species):
    for model in (sk, two_quad, cubic_two_species):
        for beta in (0.0, 0.5, 1.1):
            M = hessian_at_zero(model, beta)
            H = f_hessian(model, beta, np.zeros(model.n_species))
            assert M == pytest.approx(H, abs=1e-12)


def test_hessian_at_zero_sk_singular_at_sqrt_half(sk):
    assert hessian_at_zero(sk, SQRT_HALF)[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert hessian_at_zero(sk, 0.5)[0, 0] < 0.0
    assert hessian_at_zero(sk, 0.9)[0, 0] > 0.0


def test_hessian_at_zero_pure3_constant(pure3):
    for beta in (0.0, 1.0, 3.0):
        assert hessian_at_zero(pure3, beta) == pytest.approx(np.array([[-1.0]]), abs=0)


def test_hessian_at_zero_two_species_by_hand(two_quad):
    beta = 0.3
    expected = beta**2 * np.array([[2.0, 1.0], [1.0, 2.0]]) - 0.5 * np.eye(2)
    assert hessian_at_zero(two_quad, beta) == pytest.approx(expected, abs=1e-15)


# ----------------------------------------------------------------------
# global maximization


def test_maximize_below_threshold_is_origin(sk):
    for beta in (0.0, 0.3, 0.6, 0.7):
        res = maximize_f(sk, beta)
        # the derivative r (2 beta^2 - 1/(1-r^2)) is <= 0 on [0,1), so the
        # origin is the global maximizer
        assert res.value == 0.0
        assert res.argmax == pytest.approx(np.zeros(1), abs=0)
        assert res.converged


def test_maximize_sk_above_threshold_closed_form(sk):
    beta = 0.8
    res = maximize_f(sk, beta)
    r_star = math.sqrt(1.0 - 1.0 / (2.0 * beta * beta))
    value = beta * beta - 0.5 - 0.5 * math.log(2.0 * beta * beta)
    assert res.value == pytest.approx(value, abs=1e-10)
    assert res.argmax[0] == pytest.approx(r_star, abs=1e-7)
    assert res.value > 0.0


def test_maximize_zero_beta_any_model(cubic_two_species):
    res = maximize_f(cubic_two_species, 0.0)
    assert res.value == 0.0
    assert res.argmax == pytest.approx(np.zeros(2), abs=0)


def test_maximize_value_reevaluates(two_quad):
    # both objectives, through the certification grid of two and three species
    three = random_model(np.random.default_rng(3), 3)
    for model in (two_quad, three):
        for objective, f in (("plain", f_beta), ("tilde", f_tilde_beta)):
            for beta in (0.3, 0.45, 0.8):
                res = maximize_f(model, beta, objective)
                assert res.grid_certified
                assert res.value == pytest.approx(f(model, beta, res.argmax), abs=1e-10)


def test_maximize_stays_inside_clamped_box(pure3):
    res = maximize_f(pure3, 5.0)
    assert np.all(res.argmax <= 1.0 - 1e-8)
    assert np.all(res.argmax >= 0.0)


def test_maximize_value_nondecreasing_in_beta(two_quad, cubic_two_species):
    for model in (two_quad, cubic_two_species):
        vals = [maximize_f(model, b).value for b in np.linspace(0.0, 1.2, 9)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_maximize_tilde_never_exceeds_plain(cubic_two_species):
    for beta in (0.4, 0.8, 1.2):
        plain = maximize_f(cubic_two_species, beta, "plain").value
        tilde = maximize_f(cubic_two_species, beta, "tilde").value
        assert tilde <= plain + 1e-12


def test_maximize_rejects_bad_objective(sk):
    with pytest.raises(ValueError):
        maximize_f(sk, 0.5, "bogus")
