import math

import mpmath
import numpy as np
import pytest

import spinmix as sm
from spinmix import beta_m, build_finite_model, landscape, log_E_Z2_exact, quadrature
from spinmix.quadrature import log_overlap_density, log_sphere_surface

from oracles import laplace_constant, log_second_moment_by_full_grid


def test_sphere_surface_known_values():
    assert log_sphere_surface(2) == pytest.approx(math.log(2 * math.pi), abs=1e-12)
    assert log_sphere_surface(3) == pytest.approx(math.log(4 * math.pi), abs=1e-12)


def test_overlap_density_normalized():
    # the density integrates to 1 over [-1, 1] for every block size
    from scipy.integrate import quad

    for d in (3, 10, 47):
        val, _ = quad(lambda r: math.exp(log_overlap_density(np.array(r), d)), -1, 1)
        assert val == pytest.approx(1.0, abs=1e-10)


def test_logsumexp_is_scipys_bit_for_bit():
    # random finite blocks, blocks with repeated maxima (rounded values, one
    # constant block) and every axis tuple the quadrature reduces over
    from scipy.special import logsumexp

    rng = np.random.default_rng(7)
    for trial in range(60):
        block = rng.normal(size=tuple(rng.integers(1, 30, size=1 + trial % 3)))
        block *= rng.uniform(0.1, 800.0)
        if trial % 3 == 0:
            block = np.round(block)
        if trial == 5:
            block[...] = -3.0
        for axis in [None] + [tuple(range(k, block.ndim)) for k in range(1, block.ndim)]:
            expected = logsumexp(block, axis=axis)
            found = quadrature._logsumexp(block.copy(), axis=axis)  # it overwrites its input
            assert type(found) is type(expected) and np.shape(found) == np.shape(expected)
            assert np.asarray(found).tobytes() == np.asarray(expected).tobytes()


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
    # a non-finite beta is refused before the first rung
    with pytest.raises(ValueError, match="beta"):
        log_E_Z2_exact(build_finite_model(sm.sk_model(), 30), float("nan"))


@pytest.mark.parametrize("frac", [0.5, 0.6])
def test_gap_approaches_the_laplace_constant(frac, sk, two_quad, three_species_equal,
                                             chain_three_species):
    # below beta_m, N * ((1/N) log E Z^2 - beta^2 xi(1)) = c + O(1/N) with c
    # the Gaussian (Laplace) constant at the origin; the chain, summed in
    # O(n^2), is followed to 257 nodes per axis
    ladder = (200, 400, 800, 1600)
    for model, Ns in ((sk, ladder), (two_quad, ladder), (three_species_equal, ladder),
                      (chain_three_species, ladder + (3200, 6400))):
        beta = frac * beta_m(model)
        c = laplace_constant(model, beta)
        for N in Ns:
            gap = log_E_Z2_exact(build_finite_model(model, N), beta) - beta * beta * model.xi1()
            assert abs(N * gap - c) <= 5.0 / N


@pytest.mark.parametrize("slab", ["row", "odd"])
def test_slabs_leave_the_quadrature_unchanged(slab, sk, cubic_two_species, three_species_equal,
                                              chain_three_species, monkeypatch):
    # one pivot node per slab, or slabs that split the pivot nodes unevenly,
    # against one slab holding them all; the odd sizes leave a short last
    # slab on the 65- and 129-node grids, whose blocks are 1, n, n^2 and n
    # points per pivot node for these models
    for model, odd in ((sk, 10), (cubic_two_species, 1000), (three_species_equal, 100000),
                       (chain_three_species, 1000)):
        fm = build_finite_model(model, 400)
        monkeypatch.setattr(landscape, "_SLAB_POINTS", 2**62)
        whole = log_E_Z2_exact(fm, 0.3)
        monkeypatch.setattr(landscape, "_SLAB_POINTS", 1 if slab == "row" else odd)
        assert abs(log_E_Z2_exact(fm, 0.3) - whole) <= 1e-15


# three-species mixtures by the shape of the graph their terms draw on the
# species; each picks a different pivot, or none
_SHAPES = {
    "star_at_a": {(2, 0, 0): 1.0, (0, 2, 0): 0.8, (0, 0, 2): 0.6, (1, 1, 0): 0.5,
                  (1, 0, 1): 0.4, (2, 0, 1): 0.3},
    "star_at_c": {(2, 0, 0): 1.0, (0, 2, 0): 0.8, (0, 0, 2): 0.6, (1, 0, 1): 0.5,
                  (0, 1, 1): 0.4, (0, 1, 2): 0.3},
    "separable": {(2, 0, 0): 1.0, (0, 3, 0): 0.8, (0, 0, 2): 0.6, (4, 0, 0): 0.2},
    "triangle": {(2, 0, 0): 1.0, (0, 2, 0): 0.8, (0, 0, 2): 0.6, (1, 1, 0): 0.5,
                 (0, 1, 1): 0.4, (1, 0, 1): 0.3},
}
_BETA_M = {}


@pytest.mark.parametrize("name", ["sk", "cubic_two_species", "star_at_a", "chain_three_species",
                                  "star_at_c", "separable", "triangle", "three_species_equal"])
@pytest.mark.parametrize("n_nodes", [65, 129])
def test_elimination_matches_the_full_grid(name, n_nodes, request):
    # the species-by-species sum against every point of the n^S node grid
    if name in _SHAPES:
        names = ("a", "b", "c")
        model = sm.ModelSpec(sm.SpeciesSet(names, np.array([0.4, 0.35, 0.25])),
                             sm.Mixture.from_terms(names, _SHAPES[name]))
    else:
        model = request.getfixturevalue(name)
    if name not in _BETA_M:
        _BETA_M[name] = beta_m(model)
    fm = build_finite_model(model, 200)
    for frac in (0.0, 0.5, 0.9):
        beta = frac * _BETA_M[name]
        expected = log_second_moment_by_full_grid(model, fm.block_sizes, beta, n_nodes)
        found = quadrature._log_integral(fm, beta, n_nodes, quadrature._plan(model.mixture))
        assert abs(found - expected) <= 1e-15


def test_exhausted_ladder_reports_the_last_residual(sk):
    # at N = 10^8 SK would need more than 2049 nodes per axis; the error
    # carries the gap between the ladder's last two rungs, not zero
    with pytest.raises(quadrature.QuadratureError) as err:
        log_E_Z2_exact(build_finite_model(sk, 10**8), 0.2)
    assert err.value.nodes == 2049
    assert err.value.residual > quadrature._REFINE_TOL


def test_the_elimination_plan_bounds_the_ladder(sk, two_quad, three_species_equal,
                                                chain_three_species, monkeypatch):
    # a rung may sum at most 513^3 points: a model coupled across its
    # non-pivot species stops at 513 nodes, every other one at 2049
    asked = []

    def never_converges(fm, beta, n_nodes, plan):
        asked.append(n_nodes)
        return float(len(asked))

    monkeypatch.setattr(quadrature, "_log_integral", never_converges)
    for model, last in ((sk, 2049), (two_quad, 2049), (three_species_equal, 513),
                        (chain_three_species, 2049)):
        asked.clear()
        with pytest.raises(quadrature.QuadratureError) as err:
            log_E_Z2_exact(build_finite_model(model, 200), 0.3)
        assert err.value.nodes == last
        assert asked == [n for n in quadrature._NODE_LADDER if n <= last]


def test_each_call_plans_the_elimination_once(chain_three_species, monkeypatch):
    # the plan is made once per call and handed to every rung
    plans = []
    plan = quadrature._plan

    def recording_plan(mix):
        plans.append(plan(mix))
        return plans[-1]

    monkeypatch.setattr(quadrature, "_plan", recording_plan)
    log_E_Z2_exact(build_finite_model(chain_three_species, 3200), 0.2)
    assert plans == [(1, [[0], [2]])]


def test_a_hook_on_roots_legendre_sees_every_rung_cold_or_warm(sk, chain_three_species,
                                                              monkeypatch):
    # the bench's node cap and trace wrap the module attribute, outside the
    # cache, and count one call per rung: a warm call must climb the same
    # rungs through the hook as a cold one
    asked = []
    cached = quadrature.roots_legendre
    cached.cache_clear()

    def recording(n):
        asked.append(n)
        return cached(n)

    monkeypatch.setattr(quadrature, "roots_legendre", recording)
    for model, N, rungs in ((sk, 400, [65, 129]), (chain_three_species, 12800,
                                                    [65, 129, 257, 513])):
        fm = build_finite_model(model, N)
        runs = []
        for _ in range(2):
            asked.clear()
            runs.append((log_E_Z2_exact(fm, 0.2).hex(), list(asked)))
        assert runs[0] == runs[1] and runs[0][1] == rungs
    assert cached.cache_info().currsize == 4


def test_the_cached_rule_is_scipys_and_read_only():
    from scipy.special import roots_legendre

    assert quadrature.roots_legendre.cache_info().maxsize == len(quadrature._NODE_LADDER)
    for n in (65, 129):
        rule = quadrature.roots_legendre(n)
        assert quadrature.roots_legendre(n) is rule
        for cached, fresh in zip(rule, roots_legendre(n)):
            assert cached.tobytes() == fresh.tobytes()
            assert not cached.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 0.0
        # the rung's log weights and log1p(-x^2), held with it
        nodes, weights = roots_legendre(n)
        held = quadrature._log_rule(n)
        assert quadrature._log_rule(n) is held
        for cached, fresh in zip(held, (np.log(weights), np.log1p(-nodes * nodes))):
            assert cached.tobytes() == fresh.tobytes() and not cached.flags.writeable


def test_warm_values_are_scipys_bit_for_bit(sk, two_quad, chain_three_species,
                                            three_species_equal, monkeypatch):
    # the value from the cached rules and held xi grids, warm, against a cold
    # call (nothing held), a call that holds nothing (every grid streamed)
    # and the value with scipy's roots_legendre solved afresh on every rung;
    # the coupled model's rungs exceed a slab, so they stream and are not held
    from scipy.special import roots_legendre

    for model, N, beta in ((sk, 3200, 0.5), (two_quad, 400, 0.3), (chain_three_species, 3200, 0.2),
                           (three_species_equal, 400, 0.2)):
        fm = build_finite_model(model, N)
        quadrature._HELD.clear()
        cold = log_E_Z2_exact(fm, beta)
        assert bool(quadrature._HELD) == (model is not three_species_equal)
        for held in quadrature._HELD.values():
            for xi in held:
                assert not xi.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    xi[...] = 0.0
        warm = log_E_Z2_exact(fm, beta)
        assert warm.hex() == cold.hex()
        with monkeypatch.context() as patched:
            patched.setattr(quadrature, "roots_legendre", roots_legendre)
            assert log_E_Z2_exact(fm, beta).hex() == warm.hex()
            patched.setattr(quadrature, "_HELD_POINTS", 0)
            assert log_E_Z2_exact(fm, beta).hex() == warm.hex()


def test_held_grids_stay_within_their_budget(sk, two_quad, cubic_two_species, chain_three_species,
                                             three_species_equal, monkeypatch):
    # calls over several models, the coupled one at N = 3200 among them: the
    # held points never exceed the budget of four slabs; a budget of one
    # 257-node chain rung evicts the rungs used least recently, and the
    # values are unchanged
    assert quadrature._HELD_POINTS == 4 * landscape._SLAB_POINTS
    calls = [(sk, 3200, 0.5), (two_quad, 3200, 0.3), (cubic_two_species, 1600, 0.3),
             (chain_three_species, 3200, 0.2), (three_species_equal, 3200, 0.2)]
    values = []
    for model, N, beta in calls:
        values.append(log_E_Z2_exact(build_finite_model(model, N), beta).hex())
        assert 0 < quadrature._held_points() <= quadrature._HELD_POINTS
    chain_rung = 2 * 257**2 + 257
    monkeypatch.setattr(quadrature, "_HELD_POINTS", chain_rung)
    quadrature._HELD.clear()
    for (model, N, beta), value in list(zip(calls, values))[:4]:
        assert log_E_Z2_exact(build_finite_model(model, N), beta).hex() == value
        assert quadrature._held_points() <= chain_rung
    assert [key[-1] for key in quadrature._HELD] == [257]
    assert quadrature._held_points() == chain_rung
