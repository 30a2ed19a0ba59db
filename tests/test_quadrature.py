import math

import mpmath
import numpy as np
import pytest

from spinmix import build_finite_model, log_E_Z2_exact
from spinmix.quadrature import log_overlap_density, log_sphere_surface


def test_sphere_surface_known_values():
    assert log_sphere_surface(2) == pytest.approx(math.log(2 * math.pi), abs=1e-12)
    assert log_sphere_surface(3) == pytest.approx(math.log(4 * math.pi), abs=1e-12)


def test_overlap_density_normalized():
    # the density integrates to 1 over [-1, 1] for every block size
    from scipy.integrate import quad

    for d in (3, 10, 47):
        val, _ = quad(lambda r: math.exp(log_overlap_density(np.array(r), d)), -1, 1)
        assert val == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("N", [50, 100, 200, 400])
def test_zero_beta_gives_zero(sk, N):
    fm = build_finite_model(sk, N)
    assert abs(log_E_Z2_exact(fm, 0.0)) <= 1e-8


def test_zero_beta_multi_species(two_quad, cubic_two_species):
    for model in (two_quad, cubic_two_species):
        fm = build_finite_model(model, 60)
        assert abs(log_E_Z2_exact(fm, 0.0)) <= 1e-8


def test_matches_high_precision_reference(sk):
    # independent evaluation of the same integral with mpmath
    N, beta = 50, 0.5
    fm = build_finite_model(sk, N)
    with mpmath.workdps(40):
        log_ratio = (
            mpmath.loggamma(mpmath.mpf(N) / 2)
            - mpmath.loggamma(mpmath.mpf(N - 1) / 2)
            - mpmath.log(mpmath.sqrt(mpmath.pi))
        )
        integral = mpmath.quad(
            lambda r: mpmath.exp(
                log_ratio
                + mpmath.mpf(N - 3) / 2 * mpmath.log(1 - r * r)
                + N * beta**2 * (1 + r * r)
            ),
            [-1, 0, 1],
        )
        reference = float(mpmath.log(integral) / N)
    assert log_E_Z2_exact(fm, beta) == pytest.approx(reference, abs=1e-10)


def _log_factor(N, d, beta, c):
    # (1/N) log of the 1-D integral of p_d(r) exp(N beta^2 c r^2) over [-1, 1],
    # with the overlap density p_d written out independently of the package
    from scipy.integrate import quad

    log_norm = math.lgamma(d / 2) - math.lgamma((d - 1) / 2) - 0.5 * math.log(math.pi)
    peak = N * beta * beta * c
    val, _ = quad(
        lambda r: math.exp(log_norm + (d - 3) / 2 * math.log1p(-r * r) + peak * (r * r - 1)),
        -1, 1, points=[0.0], epsabs=0.0, epsrel=1e-13, limit=200,
    )
    return (math.log(val) + peak) / N


@pytest.mark.parametrize("lam, coeffs, N, blocks", [
    ((0.4, 0.6), (1.0, 0.5), 60, (24, 36)),
    ((0.2, 0.3, 0.5), (0.8, 0.5, 1.2), 90, (18, 27, 45)),
])
@pytest.mark.parametrize("beta", [0.3, 0.7])
def test_pure_quadratic_mixture_factorizes(lam, coeffs, N, blocks, beta):
    # for xi = sum_s c_s r_s^2 the integral is a product of 1-D integrals, so
    # log_E_Z2_exact = beta^2 xi(1) + sum_s (1/N) log int p_{N_s} e^{N beta^2 c_s r^2};
    # unequal blocks and coefficients make a swap of axes show
    import spinmix as sm

    S = len(lam)
    names = ("a", "b", "c")[:S]
    terms = {tuple(2 * (t == s) for t in range(S)): c for s, c in enumerate(coeffs)}
    model = sm.ModelSpec(sm.SpeciesSet(names, np.array(lam)), sm.Mixture.from_terms(names, terms))
    fm = build_finite_model(model, N)
    assert fm.block_sizes == blocks
    expected = beta * beta * sum(coeffs) + sum(
        _log_factor(N, d, beta, c) for d, c in zip(blocks, coeffs)
    )
    assert log_E_Z2_exact(fm, beta) == pytest.approx(expected, abs=1e-12)


def test_residual_positive_and_shrinking(sk):
    # At fixed beta < beta_m the exact finite-N value sits strictly above
    # the large-N limit beta^2 xi(1): Jensen applied to the overlap density
    # gives a lower bound of beta^2/N on the gap.  The gap shrinks like
    # log(1/sqrt(1 - 2 beta^2))/N.
    beta = 0.5
    limit = beta * beta  # max f = 0 below the threshold
    resid = []
    for N in (50, 100, 200, 400):
        fm = build_finite_model(sk, N)
        gap = log_E_Z2_exact(fm, beta) - limit
        assert gap >= beta * beta / N - 1e-12
        resid.append(gap)
    assert all(b < a for a, b in zip(resid, resid[1:]))
    assert resid[-1] <= 0.02
    assert resid[-1] == pytest.approx(math.log(math.sqrt(2.0)) / 400, rel=0.01)


def test_nondecreasing_in_beta(two_quad):
    fm = build_finite_model(two_quad, 80)
    vals = [log_E_Z2_exact(fm, b) for b in (0.0, 0.1, 0.2, 0.3)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_three_species_supported():
    import spinmix as sm

    model = sm.ModelSpec(
        sm.SpeciesSet(("a", "b", "c"), np.array([0.4, 0.3, 0.3])),
        sm.Mixture.from_terms(
            ("a", "b", "c"), {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0}
        ),
    )
    fm = build_finite_model(model, 30)
    assert abs(log_E_Z2_exact(fm, 0.0)) <= 1e-8


def test_four_species_rejected():
    import spinmix as sm

    model = sm.ModelSpec(
        sm.SpeciesSet(("a", "b", "c", "d"), np.full(4, 0.25)),
        sm.Mixture.from_terms(
            ("a", "b", "c", "d"),
            {(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0, (0, 0, 2, 0): 1.0, (0, 0, 0, 2): 1.0},
        ),
    )
    fm = build_finite_model(model, 20)
    with pytest.raises(ValueError):
        log_E_Z2_exact(fm, 0.1)
