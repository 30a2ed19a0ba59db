import json
import math
import sys
import warnings

import numpy as np
import pytest

from spinmix import (
    Mixture,
    ModelSpec,
    SpeciesSet,
    criticality,
    landscape,
    f_beta,
    f_tilde_beta,
    f_grad,
    f_hessian,
    g_beta,
    hessian_at_zero,
    loads_model,
    maximize_f,
)
from spinmix.landscape import TOL_ZERO

from conftest import load_script, random_model
from oracles import degree2_matrix_by_hand, fd_gradient, fd_hessian, rel_close, separable_max_f

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
    for r in (1.0, -0.2, float("nan")):
        with pytest.raises(ValueError):
            f_beta(sk, 1.0, r)


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
            expected = (-np.diag(model.species.lam)
                        + beta * beta * degree2_matrix_by_hand(model.mixture))
            assert hessian_at_zero(model, beta) == pytest.approx(expected, abs=1e-12)
            H = f_hessian(model, beta, np.zeros(model.n_species))
            assert H == pytest.approx(expected, abs=1e-12)


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
    # at beta 1e4 the maximum of f and of its truncated twin sits at the
    # clamp on every axis of seeded models (the grid's top point for one to
    # three species, the ascent's upper bound in artanh(r) for six), and no
    # returned coordinate lies above it
    hi = 1.0 - landscape.DOMAIN_CLAMP
    for S in (1, 2, 3, 6):
        model = loads_model(json.dumps(load_script("output_digest").random_model(0, S)))
        for res in landscape.maximize_each(model, 1e4, ("plain", "tilde")):
            assert res.converged and np.array_equal(res.argmax, np.full(S, hi))


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
    for objectives in ((), ("plain", "bogus")):
        with pytest.raises(ValueError, match="objective"):
            landscape.maximize_each(sk, 0.5, objectives)
    for beta in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="beta"):
            maximize_f(sk, beta)


def test_maximize_refuses_a_beta_whose_square_overflows(pure3, three_species_equal):
    # beta^2 xi(1) = inf: the value was nan and still grid-certified; the
    # grid's bounds need finite values
    for model in (pure3, three_species_equal):
        with pytest.raises(ValueError, match="beta = 1e"):
            maximize_f(model, 1e155)
    # beta^2 xi(1) is finite here, but the ascent's products are not
    with pytest.raises(ValueError, match="beta = 1e.*ascent"):
        maximize_f(pure3, 1e150)


def test_maximize_refuses_a_beta_whose_truncated_numerator_overflows(two_quad):
    # xi(1) = 3: beta^2 xi(1) is finite but beta^2 xi(1) xi(r) is not near
    # r = 1; the value was inf, unconverged and still grid-certified
    beta = math.sqrt(1e308 / two_quad.xi1())
    with pytest.raises(ValueError, match="beta = 5.77.*truncated"):
        maximize_f(two_quad, beta, "tilde")
    # admitted by the numerator, refused for the ascent's products
    with pytest.raises(ValueError, match="beta = 1.05.*ascent"):
        maximize_f(two_quad, math.sqrt(1e307) / two_quad.xi1(), "tilde")


def _largest_admitted_beta(model):
    # the greatest beta maximize_f admits, from just above the ascent's limit
    beta = math.sqrt(math.sqrt(sys.float_info.max / model.n_species)
                     / (2.0 * model.mixture.grad(np.ones(model.n_species)).max()))
    for _ in range(64):
        try:
            maximize_f(model, beta)
            return beta
        except ValueError:
            beta = math.nextafter(beta, 0.0)
    raise AssertionError("no beta admitted near the ascent's limit")


def test_maximize_refuses_the_betas_at_which_the_ascent_overflows(two_quad, pure3):
    # the ascent's products of gradients overflowed, with 31 RuntimeWarnings
    # (plain) and 62 (truncated) at beta^2 = 1e160 on two_species_quadratic,
    # though it converged; such a beta is refused, and the largest one
    # admitted runs without a warning
    for objective in ("plain", "tilde"):
        with pytest.raises(ValueError, match="beta = 1e.*too large for the ascent"):
            maximize_f(two_quad, 1e80, objective)
    models = [two_quad, pure3, random_model(np.random.default_rng(2), 3)]
    for model in models:
        beta = _largest_admitted_beta(model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for res in [maximize_f(model, beta, o) for o in ("plain", "tilde")]:
                assert math.isfinite(res.value) and res.converged
            landscape.maximize_each(model, beta, ("plain", "tilde"))
        with pytest.raises(ValueError, match="ascent"):
            maximize_f(model, math.nextafter(beta, math.inf))


def _separable_model(rng, S):
    # every species carries one or two pure terms of degree 2-4 and nothing
    # couples the species
    names = tuple("abcdef"[:S])
    w = rng.uniform(0.5, 1.5, size=S)
    terms = {}
    for s in range(S):
        for p in rng.choice([2, 3, 4], size=int(rng.integers(1, 3)), replace=False):
            terms[tuple(int(p) * (t == s) for t in range(S))] = float(rng.uniform(0.3, 1.5))
    return ModelSpec(SpeciesSet(names, w / w.sum()), Mixture.from_terms(names, terms))


@pytest.mark.parametrize("S", [4, 5, 6])
def test_maximize_matches_the_separable_oracle(S):
    # four to six species have no certification grid; a separable model's
    # maximum is the sum of per-species 1-d maxima, found without the search
    model = _separable_model(np.random.default_rng(S), S)
    values = []
    for beta in (0.4, 0.7, 1.0):
        res = maximize_f(model, beta, "plain")
        values.append(res.value)
        assert res.converged and not res.grid_certified
        assert res.value == pytest.approx(separable_max_f(model, beta), abs=1e-10)
    assert values[-1] > 0.0


def _batch_rules():
    # a coupled 4-species model, and the plain and truncated f at beta 0.9
    # and minus the plain and truncated ratios: two batches of one cost
    names = ("a", "b", "c", "d")
    terms = {(2, 0, 0, 0): 0.9, (0, 3, 0, 0): 0.5, (0, 0, 2, 0): 1.3, (0, 0, 0, 4): 0.7,
             (1, 1, 0, 0): 0.4, (0, 1, 1, 0): 0.6, (0, 0, 1, 1): 0.3, (2, 0, 1, 0): 0.5}
    model = ModelSpec(SpeciesSet(names, np.array([0.1, 0.2, 0.3, 0.4])),
                      Mixture.from_terms(names, terms))
    return (model, *_two_batches(model, 0.9))


def _two_batches(model, beta):
    # the package's two batches of one kind each, of one cost: the plain and
    # truncated f at beta, which maximize_each searches, and minus the plain
    # and truncated ratios, which verdict searches; with the cost and its
    # gradient
    f = [landscape._energy(model, beta, objective)[0] for objective in ("plain", "tilde")]
    ratios = [landscape._energy(model, 1.0, objective)[0]._replace(ratio=True)
              for objective in ("plain", "tilde")]
    _, cost, dcost = landscape._energy(model, beta, "plain")
    return [f, ratios], cost, dcost


def test_rules_are_bit_for_bit_the_literal_expressions(sk, two_quad):
    # each objective's value and partials, from its (A, B, C) and kind, are
    # bit for bit the literal expressions of f, its truncated twin, g and
    # minus the plain and truncated ratios (at beta = 1), at random x and c,
    # at x = 0 and at the cost of r at the clamp, the entropy's largest; a
    # batch of each kind's rules, one rule per row, gives the same bits
    rng = np.random.default_rng(3)
    hi, t, b2 = 1.0 - landscape.DOMAIN_CLAMP, TOL_ZERO, 0.9 * 0.9
    for model in (sk, two_quad):
        xi1, S = model.xi1(), model.n_species
        x = np.concatenate([[0.0, 0.0], rng.uniform(0.0, 2.0 * xi1, 98)])
        c = rng.uniform(0.0, 5.0, 100)
        c[2] = landscape._entropy(model.species.lam, np.full(S, hi)).sum()
        inf = np.full_like(x, -np.inf)
        plain = (np.divide(-(c + t), 1.0 * x, out=inf.copy(), where=x > 0.0),
                 np.divide(1.0, 1.0 * x, out=np.zeros_like(x), where=x > 0.0), 1.0)
        energy = 1.0 * xi1 * x / (xi1 + x)
        tilde = (np.divide(-(c + t), energy, out=inf.copy(), where=x > 0.0),
                 np.divide(1.0, energy, out=np.zeros_like(x), where=x > 0.0),
                 1.0 * xi1 * xi1 / (xi1 + x) ** 2)
        literal = {
            ("plain", False): (b2 * x - c, b2, -1.0),
            ("tilde", False): (b2 * xi1 * x / (xi1 + x) - c, b2 * xi1 * xi1 / (xi1 + x) ** 2, -1.0),
            ("plain", True): (plain[0], (c + t) * plain[2] * plain[1] * plain[1], -plain[1]),
            ("tilde", True): (tilde[0], (c + t) * tilde[2] * tilde[1] * tilde[1], -tilde[1]),
        }
        if S == 1:
            literal["talagrand", False] = literal["plain", False]
        rules = []
        for (objective, ratio), want in literal.items():
            rule = landscape._energy(model, 1.0 if ratio else 0.9, objective)[0]
            rule = rule._replace(ratio=True) if ratio else rule
            rules.append(rule)
            # _partials gives the value too, then the partials
            got = (landscape._value(rule, x, c), *landscape._partials(rule, x, c))
            for a, b in zip(got, (want[0], *want), strict=True):
                assert np.broadcast_to(a, x.shape).tobytes() == np.broadcast_to(b, x.shape).tobytes()
        # a batch of one kind: rule k on rows k, k + R, k + 2R, ..., a field
        # the rules share, the kind always, one value as in _search
        for ratio in (False, True):
            kind = [rule for rule in rules if rule.ratio == ratio]
            R = len(kind)
            rows = np.arange(len(x)) % R
            batch = landscape._Rule(*(v[0] if len(set(v)) == 1 else np.array(v)[rows]
                                      for v in zip(*kind)))
            got = (landscape._value(batch, x, c), *landscape._partials(batch, x, c))
            for k, rule in enumerate(kind):
                want = (landscape._value(rule, x, c), *landscape._partials(rule, x, c))
                for a, b in zip(got, want):
                    assert (np.broadcast_to(a, x.shape)[k::R].tobytes()
                            == np.broadcast_to(b, x.shape)[k::R].tobytes())


def _values(evaluate, X):
    # the values an ascent's evaluate gives on a batch of its starts, all rows
    return evaluate(X, np.arange(len(X)))[0]


def test_ascent_rows_do_not_depend_on_the_batch(monkeypatch):
    # the determinism contract: each start's result is bit for bit the one it
    # reaches alone, and adding, removing or reordering starts moves no other;
    # in one batch of the plain and truncated f, and in one of both ratios,
    # each rule's rows and result are those of the search of that rule
    # alone, evaluation counts and starts included
    model, batches, cost, dcost = _batch_rules()
    calls = _record_ascents(monkeypatch)
    for rules in batches:
        calls.clear()
        together = landscape._search(model, rules, cost, dcost)
        alone = [landscape._search(model, [rule], cost, dcost)[0] for rule in rules]
        (_, X0, (X, F, ok, evals)), *lone = calls
        assert len(lone) == len(rules)
        lo = 0
        for res, ref, (evaluate, X0r, (Xr, Fr, okr, evalsr)) in zip(together, alone, lone):
            rows = slice(lo, lo + len(X0r))
            lo += len(X0r)
            assert X0[rows].tobytes() == X0r.tobytes()
            assert X[rows].tobytes() == Xr.tobytes() and F[rows].tobytes() == Fr.tobytes()
            assert np.array_equal(ok[rows], okr) and np.array_equal(evals[rows], evalsr)
            assert res.argmax.tobytes() == ref.argmax.tobytes() and res.value == ref.value
            assert (res.converged, res.grid_certified, res.fun_evals, res.starts_used) == (
                ref.converged, ref.grid_certified, ref.fun_evals, ref.starts_used)
            for k in range(len(X0r)):
                Xk, Fk, okk, ek = landscape._ascend(evaluate, X0r[k:k + 1])
                assert Xk.tobytes() == Xr[k].tobytes() and Fk.tobytes() == Fr[k:k + 1].tobytes()
                assert okk[0] == okr[k] and ek[0] == evalsr[k]
            order = np.arange(len(X0r))[::-3]
            Xs, Fs, oks, es = landscape._ascend(evaluate, X0r[order])
            assert Xs.tobytes() == Xr[order].tobytes() and Fs.tobytes() == Fr[order].tobytes()
            assert np.array_equal(oks, okr[order]) and np.array_equal(es, evalsr[order])
        assert lo == len(X0)


def _joint(fun, grad):
    # _ascend's evaluate from a value function and a gradient function: the
    # values and the gradients at every point of the batch
    return lambda X, rows: (fun(X), grad(X))


def test_ascent_convergence_flag_names_its_stop(monkeypatch):
    ascend = landscape._ascend
    # projected-gradient stop: f = -sum(x) ends at the origin, where the
    # projected gradient is exactly 0
    X, F, ok, _ = ascend(_joint(lambda X: -X.sum(-1), lambda X: -np.ones_like(X)),
                         np.array([[0.3, 0.7]]))
    assert ok[0] and np.array_equal(X, np.zeros((1, 2)))
    # relative-f stop: on 1e6 - u^2 - u^4, u = x - 0.5, f stops resolving
    # steps long before the gradient falls to the projected-gradient tolerance
    fun = lambda X: 1e6 - ((X - 0.5) ** 2 + (X - 0.5) ** 4).sum(-1)
    grad = lambda X: -2.0 * (X - 0.5) - 4.0 * (X - 0.5) ** 3
    X, F, ok, _ = ascend(_joint(fun, grad), np.array([[0.2]]))
    assert ok[0] and abs(X[0, 0] - 0.5) < 1e-4
    assert np.abs(grad(X)).max() > landscape._GTOL
    # the round budget: one round leaves the start short of the maximum
    with monkeypatch.context() as m:
        m.setattr(landscape, "_MAXITER", 1)
        X, F, ok, evals = ascend(_joint(fun, grad), np.array([[0.2]]))
    assert not ok[0] and evals.tolist() == [2]
    # a failed line search: the gradient claims an ascent that every trial,
    # however short, contradicts by far more than f's resolution
    X, F, ok, _ = ascend(_joint(lambda X: -1e30 * X.sum(-1), lambda X: np.ones_like(X)),
                         np.array([[0.0]]))
    assert not ok[0] and X[0, 0] == 0.0


def _grid_points(model, axis, lead=slice(None)):
    # rows `lead` of the leading axis of the grid axis^S, by brute force on
    # a sparse meshgrid: the coordinates of each axis, and the entropy and xi
    # broadcast over the block
    R = np.meshgrid(axis[lead], *[axis] * (model.n_species - 1), indexing="ij", sparse=True)
    entropy = sum(-0.5 * lam * np.log1p(-r * r) for lam, r in zip(model.species.lam, R))
    mix = model.mixture
    xi = sum(c * math.prod(r ** p for r, p in zip(R, e))
             for e, c in zip(mix.exponents, mix.coeffs))
    return R, entropy, xi


def _grid_rules(model, xi, entropy, betas):
    # on brute-force xi and entropy, the values of f and its truncated twin at
    # each beta, then of minus the plain and truncated ratios
    xi1 = model.xi1()
    energies = (lambda xi: xi, lambda xi: xi1 * xi / (xi1 + xi))
    values = [beta * beta * energy(xi) - entropy for beta in betas for energy in energies]
    with np.errstate(divide="ignore", invalid="ignore"):
        return values + [np.where(xi > 0.0, -(entropy + TOL_ZERO) / energy(xi), -np.inf)
                         for energy in energies]


def _grid_optima(model, axis, rows=None, betas=(1.0,)):
    # the first greatest value in C order on the grid axis^S, point and
    # value, of each of _grid_rules, by brute force over blocks of `rows`
    # leading rows
    rows = rows or len(axis)
    best = [None] * (2 * len(betas) + 2)
    for lo in range(0, len(axis), rows):
        R, entropy, xi = _grid_points(model, axis, slice(lo, lo + rows))
        for k, v in enumerate(_grid_rules(model, xi, entropy, betas)):
            i = np.unravel_index(int(np.argmax(v)), v.shape)
            if best[k] is None or v[i] > best[k][1]:
                best[k] = (np.array([r.ravel()[j] for r, j in zip(R, i)]), v[i])
    return best


def _search_results(model):
    # maximize_f and the ratio's search, each plain and truncated, in the
    # order of _grid_optima
    results = [maximize_f(model, 1.0, objective) for objective in ("plain", "tilde")]
    results += [criticality._ratio_min(model, (objective,))[1][0][1]
                for objective in ("plain", "tilde")]
    return results


def _record_ascents(monkeypatch):
    # (evaluate, X0, result) of every _ascend call; the real ascent runs
    # unchanged
    calls = []
    ascend = landscape._ascend

    def record(evaluate, X0):
        out = ascend(evaluate, X0)
        calls.append((evaluate, X0, out))
        return out

    monkeypatch.setattr(landscape, "_ascend", record)
    return calls


def _gridded_models(*fixtures):
    # the fixtures and seeded one- to three-species models
    return list(fixtures) + [random_model(np.random.default_rng(seed), S)
                             for S, seed in ((1, 0), (1, 1), (2, 0), (2, 1), (3, 0))]


def _above(value, bound):
    # value is not below bound, up to the rounding of two routes to one number
    return value >= bound - 1e-12 * max(1.0, abs(bound))


def test_search_starts_from_the_grid_argmax(sk, pure3, cubic_two_species, monkeypatch):
    # the grid's best point is the last start handed to _ascend, and the
    # result is never below it
    calls = _record_ascents(monkeypatch)
    for model in (sk, pure3, cubic_two_species):
        axis = landscape._box_axis(4001 if model.n_species == 1 else 201)
        for res, (point, value), (evaluate, X0, _) in zip(
                _search_results(model), _grid_optima(model, axis), calls[-4:]):
            assert np.array_equal(X0[-1], point)
            assert res.grid_certified and res.value >= _values(evaluate, X0[-1:])[0]
            assert _above(res.value, value)
    # one and two species compute the grid's xi and summed cost in one pass
    # for every rule of a search: f and its truncated twin, or minus both
    # ratios here; each result, fun_evals included, is the rule's lone
    # search's, bit for bit
    grid, passes = landscape._grid, []
    monkeypatch.setattr(landscape, "_grid", lambda *args: passes.append(args) or grid(*args))
    for model in (sk, cubic_two_species):
        batches, cost, dcost = _two_batches(model, 0.8)
        for rules in batches:
            passes.clear()
            together = landscape._search(model, rules, cost, dcost)
            assert len(passes) == 1
            for res, rule in zip(together, rules):
                (ref,) = landscape._search(model, [rule], cost, dcost)
                assert res.argmax.tobytes() == ref.argmax.tobytes() and res.value == ref.value
                assert (res.fun_evals, res.starts_used, res.converged) == (
                    ref.fun_evals, ref.starts_used, ref.converged)


def test_the_grid_and_the_search_compute_xi_within_an_ulp(sk, pure3, two_quad):
    # a gridded result is never below the search's value at the grid's best
    # point, bit for bit (above), and that value differs from the grid's,
    # `_kernel`'s, by the rounding of xi's powers only: at every point of the
    # one- and two-species grids the search's xi is within one ulp of the
    # grid's.  sk's square is x*x on the grid and numpy's pow in the search's
    # table of the exponents 1 and 2, which may round it otherwise
    for model in (sk, pure3, two_quad):
        S = model.n_species
        axis = landscape._box_axis(4001 if S == 1 else 201)
        index = np.indices((len(axis),) * S).reshape(S, -1)
        grid = landscape._kernel(model, axis, None)(index)
        search = model.mixture._partials(axis[index.T], (0, 1))[:, 0]
        assert (np.abs(search - grid) <= np.spacing(grid)).all()


def _pure_2_3_4(seed, S):
    # every species' pure terms of degrees 2, 3 and 4 and neighbours coupled
    # by x_s x_{s+1}, two species by one more mixed term of degree 3 or 4: 8
    # terms for two species and 11 for three, the shape of the benchmark's
    # random models of degrees (2, 3, 4)
    rng = np.random.default_rng(seed)
    names = ("a", "b", "c")[:S]
    terms = {}
    for s in range(S):
        for d in (2, 3, 4):
            terms[tuple(d * (t == s) for t in range(S))] = rng.uniform(0.5, 1.5)
    for s in range(S - 1):
        terms[tuple(int(t in (s, s + 1)) for t in range(S))] = rng.uniform(0.3, 1.0)
    if S == 2:
        terms[[(2, 1), (1, 2), (2, 2), (3, 1), (1, 3)][int(rng.integers(0, 5))]] = \
            rng.uniform(0.3, 1.0)
    return ModelSpec(SpeciesSet(names, np.full(S, 1.0 / S)), Mixture.from_terms(names, terms))


@pytest.mark.parametrize("S, seed", [(2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1)])
def test_the_grid_and_the_search_compute_xi_within_a_bound_from_its_terms(S, seed):
    # from 8 terms on numpy sums the search's terms pairwise, while the grid
    # adds them one by one, so at many grid points the two differ by more
    # than an ulp.  Each is within gamma_n = n u / (1 - n u) of the exact xi,
    # relative, n = (T - 1) + 3 k, with T terms and at most k factors of
    # nonzero exponent in a term: any order of summing T nonnegative terms is
    # within gamma_(T-1) of their sum, and a term is k powers, each within an
    # ulp (2 u) when numpy's pow is faithful, times k - 1 products of factors
    # and one by its coefficient.  So the two differ by at most 2 gamma_n xi,
    # and xi is at most the grid's value over 1 - gamma_n
    model = _pure_2_3_4(seed, S)
    mix = model.mixture
    T, k = len(mix.coeffs), int((mix.exponents > 0).sum(1).max())
    assert T == {2: 8, 3: 11}[S]
    u = 2.0**-53
    gamma = (T - 1 + 3 * k) * u / (1.0 - (T - 1 + 3 * k) * u)
    # the whole grid of two species, every fifth point per axis of three
    axis = landscape._box_axis(201)[:: 1 if S == 2 else 5]
    index = np.indices((len(axis),) * S).reshape(S, -1)
    grid = landscape._kernel(model, axis, None)(index)
    search = mix._partials(axis[index.T], (0, 1))[:, 0]
    assert (np.abs(search - grid) <= 2.0 * gamma * grid / (1.0 - gamma)).all()


def _rules(model, betas, monkeypatch):
    # (rule, cost) of maximize_f's f and truncated twin at each beta, then of
    # the plain and truncated ratio searches, in the order of _grid_rules
    rules = []
    for beta in betas:
        for objective in ("plain", "tilde"):
            rule, cost, _ = landscape._energy(model, beta, objective)
            rules.append((rule, cost))

    def grab(model, searched, cost, dcost):
        rules.extend((rule, cost) for rule in searched)
        return [landscape.MaximizeResult(np.zeros(model.n_species), -1.0, 0, True, True, 0)
                for _ in searched]

    with monkeypatch.context() as m:
        m.setattr(criticality, "_search", grab)
        criticality._ratio_min(model, ("plain", "tilde"))
    return rules


def _start_of(model, rule, cost, side=None):
    # _starts' grid start as (C-order index, value), the value in the bits of
    # the tensor-product kernel, and the grid values computed: the whole
    # grid's scan where the box side covers the grid, else branch and bound
    n, default = landscape._GRIDS[model.n_species]
    axis, side = landscape._box_axis(n), side or default
    flat, evals = (landscape._grid_scan(model, [rule], cost, axis)[0] if side >= n
                   else landscape._grid_start(model, rule, cost, axis, side))
    index = np.unravel_index(flat, (n,) * model.n_species)
    at = landscape._kernel(model, axis, cost)
    return index, landscape._value(rule, *at([np.array(i) for i in index])), evals


def _model(name, request):
    # a fixture by name, or seed_<k>: the three-species random model of seed k
    if name.startswith("seed"):
        return random_model(np.random.default_rng(int(name[5:])), 3)
    return request.getfixturevalue(name)


def _betas(model):
    # f is searched at 0.4, 0.8, 1.2 and 1.2 beta_m, where its maximum is
    # positive away from the origin
    return 0.4, 0.8, 1.2, 1.2 * criticality.beta_m(model)


@pytest.mark.parametrize("name", ["sk", "cubic_two_species", "three_species_equal", "seed_0",
                                  "seed_5"])
def test_grid_start_is_the_brute_force_grid_optimum(name, request, monkeypatch):
    # the grid start, found whole for one and two species and by branch and
    # bound for three, is the brute-force first greatest value in C order of
    # f and its truncated twin at several betas and of both ratios, and slabs
    # of one or 4 leading rows, which divide neither 201 nor 4001, leave it
    # unchanged
    model = _model(name, request)
    n, side = landscape._GRIDS[model.n_species]
    axis = landscape._box_axis(n)
    betas = _betas(model)
    for (rule, cost), (point, expected) in zip(_rules(model, betas, monkeypatch),
                                               _grid_optima(model, axis, 20, betas)):
        index, found, evals = _start_of(model, rule, cost)
        assert np.array_equal(axis[list(index)], point)
        assert found == pytest.approx(expected, rel=1e-12, abs=1e-12)
        for rows in (1, 4):
            with monkeypatch.context() as m:
                m.setattr(landscape, "_SLAB_POINTS", rows * n ** (model.n_species - 1))
                assert _start_of(model, rule, cost)[:2] == (index, found)
        # fun_evals' grid part: the values computed, bounds and corners
        # included; all n^S for a grid evaluated whole, under 0.5% of the
        # grid by branch and bound
        assert evals == n ** model.n_species if side == n else evals < 0.005 * n**3


def test_grid_tie_goes_to_the_first_point_in_c_order(monkeypatch):
    # a symmetric model in equal proportions: minus the truncated ratio is
    # greatest on the three axes, at three points whose xi (one pure term,
    # the others exactly 0) and summed cost are bitwise equal; the first in C
    # order wins, though the three lie in different boxes, and in different
    # slabs when a slab holds one box
    names = ("a", "b", "c")
    model = ModelSpec(SpeciesSet(names, np.full(3, 1.0 / 3.0)),
                      Mixture.from_terms(names, {(3, 0, 0): 1.0, (0, 3, 0): 1.0, (0, 0, 3): 1.0}))
    rule, cost = _rules(model, (), monkeypatch)[1]
    axis = landscape._box_axis(201)
    values = np.concatenate([landscape._value(rule, xi, c).ravel()
                             for xi, c in landscape._grid(model, axis, cost)])
    ties = np.flatnonzero(values == values.max())
    assert [np.unravel_index(t, (201,) * 3) for t in ties] == [(0, 0, 134), (0, 134, 0),
                                                               (134, 0, 0)]
    # min(xi, 2.9) ties on the corner where xi >= 2.9, across many boxes,
    # which are evaluated greatest bound first, then in the order of their
    # splitting, not in C order; its cost is not the entropy, so the corner
    # bound alone prunes.  No (A, B, C) gives a plateau that falls by more
    # than the prune slack off it, so the rule's value is replaced
    zero = lambda lam, a: np.zeros_like(a)

    def plateau(side=None):
        with monkeypatch.context() as m:
            m.setattr(landscape, "_value", lambda rule, xi, c: np.minimum(xi, 2.9) - c)
            return _start_of(model, landscape._Rule(1.0, 1.0, 0.0), zero, side)

    corner = plateau(201)
    for points in (64, 2**62):
        monkeypatch.setattr(landscape, "_SLAB_POINTS", points)
        index, found, _ = _start_of(model, rule, cost)
        assert index == (0, 0, 134) and found == values.max()
        assert plateau()[:2] == corner[:2]


def _leaf_points(monkeypatch):
    # the C-order indices of the grid points that _grid_start evaluates in
    # its slabs of whole boxes, one array per slab
    kernel, seen = landscape._kernel, []

    def recording(model, axis, *args):
        at = kernel(model, axis, *args)

        def record(index):
            if isinstance(index[0], np.ndarray) and index[0].ndim > 1:
                shape = (len(axis),) * len(index)
                seen.append(np.ravel_multi_index(np.broadcast_arrays(*index), shape).ravel())
            return at(index)

        return record

    monkeypatch.setattr(landscape, "_kernel", recording)
    return seen


@pytest.mark.parametrize("name, boxes", [("seed_5", 1), ("seed_5", 7), ("seed_5", None),
                                         ("seed_1", None), ("three_species_equal", None)],
                         ids=["1", "7", "whole", "seed_1-whole", "three_species_equal-whole"])
def test_no_pruned_box_holds_a_value_above_the_best(name, boxes, request, monkeypatch):
    # slabs of one box, of 7 boxes, or of every box left, for f and its
    # truncated twin at each beta and both ratios: every grid point that
    # branch and bound leaves unevaluated is below its best value, and the
    # start is the grid's first greatest value in C order, in the kernel's
    # bits over the whole grid
    model = _model(name, request)
    n, side = landscape._GRIDS[3]
    axis = landscape._box_axis(n)
    rules = _rules(model, _betas(model), monkeypatch)
    starts, evaluated = [], []
    with monkeypatch.context() as m:
        m.setattr(landscape, "_SLAB_POINTS", 2**62 if boxes is None else boxes * side**3)
        seen = _leaf_points(m)
        for rule, cost in rules:
            seen.clear()
            starts.append(landscape._grid_start(model, rule, cost, axis, side)[0])
            evaluated.append(np.unique(np.concatenate(seen)))
    at = landscape._kernel(model, axis, rules[0][1])
    found = [landscape._value(rule, *at(np.unravel_index(flat, (n,) * 3)))
             for (rule, _), flat in zip(rules, starts)]
    best = [(-np.inf, -1)] * len(rules)
    lo = 0
    for xi, c in landscape._grid(model, axis, rules[0][1]):
        for k, ((rule, _), points) in enumerate(zip(rules, evaluated)):
            v = landscape._value(rule, xi, c).ravel()
            i = int(np.argmax(v))
            if v[i] > best[k][0]:
                best[k] = (v[i], lo + i)
            unseen = np.ones(v.size, dtype=bool)
            unseen[points[(points >= lo) & (points < lo + v.size)] - lo] = False
            assert (v[unseen] < found[k]).all()
        lo += xi.size
    assert lo == n**3
    for (top, first), flat, value, points in zip(best, starts, found, evaluated):
        assert (top, first) == (value, flat)
        assert 0 < len(points) < 0.005 * n**3


@pytest.mark.parametrize("name", ["three_species_equal", "seed_1", "seed_5"])
def test_enclosures_hold_every_point_of_their_boxes(name, request, monkeypatch):
    # at random points r of random boxes [a, b] of [0, 1 - DOMAIN_CLAMP]^3,
    # some of them reaching the last grid point: r lies within h of the
    # centre c; xi lies in [xi(a), xi(b)], hess xi entrywise in [0, hess
    # xi(b)] and grad xi within hess xi(b) |r - c| of grad xi(c); the entropy
    # lies above its quadratic lower bound from c; and the second-order bound
    # of every rule lets each box through at the level of its value at r and
    # at the box's corners.  So it does for boxes of the search's grid, whose
    # corner values of xi and of the rule are `_kernel`'s, as `_grid_start`
    # passes them, at the level of the rule's value at a grid point of the box
    model = _model(name, request)
    mix, lam = model.mixture, model.species.lam
    rng = np.random.default_rng(11)
    hi, K = 1.0 - landscape.DOMAIN_CLAMP, 300
    a = rng.uniform(0.0, hi, (K, 3)) * rng.choice([0.0, 1.0, 1.0], (K, 3))
    b = np.minimum(a + (hi - a) * rng.choice([0.0, 0.01, 0.1, 1.0], (K, 3)), hi)
    b[:20] = hi
    r = np.clip(a + (b - a) * rng.uniform(size=(K, 3)), a, b)
    xi_a, xi_b = mix.eval(a), mix.eval(b)
    e = landscape._enclose(model, a, b)
    d = r - e.c
    assert (np.abs(d) <= e.h).all()
    xi, grad, hess = mix.eval(r), mix.grad(r), mix._partials(r, 2).reshape(K, 3, 3)
    tol = 1e-12
    assert (xi_a <= xi * (1 + tol)).all() and (xi <= xi_b * (1 + tol)).all()
    assert (hess >= 0.0).all() and (hess <= e.hess_b * (1 + tol)).all()
    reach = (e.hess_b @ np.abs(d)[..., None])[..., 0]
    assert (np.abs(grad - e.grad_c) <= reach * (1 + tol) + tol * np.abs(grad)).all()
    entropy = (-0.5 * lam * np.log1p(-r * r)).sum(-1)
    lower = e.cost_c + (e.dcost_c * d).sum(-1) - 0.5 * (e.curv_a * d * d).sum(-1)
    rounding = tol * (1.0 + (lam / (1.0 - b * b)).sum(-1))
    assert (entropy >= lower - rounding).all()
    for rule, cost in _rules(model, _betas(model), monkeypatch):
        at = lambda r: landscape._value(rule, mix.eval(r), cost(lam, r).sum(-1))
        levels = np.maximum(np.maximum(at(r), at(a)), at(b))
        for k in range(0, K, 3):
            assert landscape._may_hold(model, rule, a[k:k + 1], b[k:k + 1], xi_a[k:k + 1],
                                       xi_b[k:k + 1], float(levels[k]))[0]
    # boxes of grid points, of sides 1 to 201, some of them of one point or
    # reaching the last one
    axis = landscape._box_axis(201)
    lo = rng.integers(0, 201, (K, 3)) * rng.choice([0, 1, 1], (K, 3))
    up = np.minimum(lo + rng.choice([0, 1, 3, 15, 200], (K, 3)), 200)
    up[:20] = 200
    inside = np.minimum(lo + ((up - lo + 1) * rng.uniform(size=(K, 3))).astype(np.intp), up)
    xi_lo, xi_up = (landscape._kernel(model, axis, None)(i.T) for i in (lo, up))
    for rule, cost in _rules(model, _betas(model), monkeypatch):
        at = landscape._kernel(model, axis, cost)
        levels = np.maximum.reduce([landscape._value(rule, *at(i.T)) for i in (lo, up, inside)])
        for k in range(0, K, 3):
            assert landscape._may_hold(model, rule, axis[lo[k:k + 1]], axis[up[k:k + 1]],
                                       xi_lo[k:k + 1], xi_up[k:k + 1], float(levels[k]))[0]


def test_enclosures_are_computed_in_chunks_within_a_slab(three_species_equal, monkeypatch):
    # the second-order bound encloses at most _SLAB_POINTS // (S^3 T) boxes
    # at a time, T the terms of xi, so that its largest temporary, hess xi's
    # gather, stays within a slab; the start does not depend on the chunks
    model = three_species_equal
    rule, cost, _ = landscape._energy(model, 0.8, "tilde")
    whole = _start_of(model, rule, cost)
    enclose, sizes = landscape._enclose, []
    monkeypatch.setattr(landscape, "_enclose",
                        lambda m, a, b: sizes.append(len(a)) or enclose(m, a, b))
    monkeypatch.setattr(landscape, "_SLAB_POINTS", 2**12)
    assert _start_of(model, rule, cost) == whole
    per = 2**12 // (27 * model.mixture.n_terms)
    assert max(sizes) == per and sum(sizes) > 2 * per


@pytest.mark.parametrize("rows", [1, 4])
def test_grid_tie_across_a_slab_boundary_goes_to_the_first_point(rows, cubic_two_species,
                                                                 monkeypatch):
    # the greatest value, 0, sits at rows 3 and 4 of the 201 x 201 grid, on the
    # two sides of a slab boundary; np.argmax's rule picks row 3, first in C order
    calls = _record_ascents(monkeypatch)
    monkeypatch.setattr(landscape, "_SLAB_POINTS", rows * 201)

    lam = cubic_two_species.species.lam

    def per_axis(weight, a):
        # 1 but at rows 3 and 4 of species 0's axis and row 7 of species 1's,
        # told apart by their proportions; on a (K, 2) batch of points
        # (weight = lam) all ones
        v = np.ones(np.shape(a))
        if np.ndim(weight) == 0:
            v[[3, 4] if weight == lam[0] else [7]] = 0.0
        return v

    axis = landscape._box_axis(201)
    c = per_axis(lam[0], axis)[:, None] + per_axis(lam[1], axis)[None, :]
    first = np.unravel_index(int(np.argmax(-c)), c.shape)
    assert first == (3, 7)
    # the rule -c: energy 0 x / (1 + 0 x) = 0
    (res,) = landscape._search(cubic_two_species, [landscape._Rule(0.0, 1.0, 0.0)], per_axis,
                               lambda weight, X: np.zeros_like(X))
    assert np.array_equal(calls[0][1][-1], axis[list(first)])
    # off the grid the rule is -2 everywhere and its gradient 0, so every
    # start stops where it began and the smallest norm wins
    assert res.value == -2.0 and res.converged and res.grid_certified
    assert np.array_equal(res.argmax, np.full(2, 1e-4))
    # fun_evals counts the values computed: all 201^2 of the grid, which two
    # species evaluate whole with no bound, then each start's
    assert res.fun_evals == 201 * 201 + len(calls[0][1])


def test_no_ascent_row_ends_below_its_start(sk, pure3, pure4, two_quad, monkeypatch):
    # _ascend accepts no step that lowers the objective, exactly: on the
    # 4-species model's two batches of two rules and on every gridded
    # search's batch
    hi = 1.0 - landscape.DOMAIN_CLAMP
    calls = _record_ascents(monkeypatch)
    model, batches, cost, dcost = _batch_rules()
    for rules in batches:
        landscape._search(model, rules, cost, dcost)
    for model in _gridded_models(sk, pure3, pure4, two_quad):
        _search_results(model)
    assert len(calls) == 2 + 4 * 9
    for evaluate, X0, (_, F, _, _) in calls:
        assert (F >= _values(evaluate, np.clip(X0, 0.0, hi))).all()


def test_a_start_the_ascent_cannot_improve_comes_back_bit_for_bit(monkeypatch):
    # the ascent moves in u = artanh(r) but returns the points it evaluated:
    # re-ascending from the 4-species model's results, of f and of minus the
    # ratios, every row whose value does not change comes back as its start,
    # bit for bit, including starts that artanh then tanh would move
    ascend = landscape._ascend
    calls = _record_ascents(monkeypatch)
    model, batches, cost, dcost = _batch_rules()
    for rules in batches:
        landscape._search(model, rules, cost, dcost)
    assert len(calls) == 2
    for evaluate, _, (X0, F0, _, _) in calls:
        X, F, _, _ = ascend(evaluate, X0)
        kept = F == F0
        assert (F[~kept] > F0[~kept]).all()
        assert X[kept].tobytes() == X0[kept].tobytes()
        assert (np.tanh(np.arctanh(X0[kept])) != X0[kept]).any()


def test_six_species_scan_row_takes_at_most_half_the_r_space_rounds(monkeypatch):
    # the ascent's rounds, one evaluate call each (the first at the starts),
    # on a scan row of a seeded six-species model: the ascent in r took 163,
    # the one in u = artanh(r) takes 38
    rounds = []
    ascend = landscape._ascend

    def counted(evaluate, X0):
        def each(X, rows):
            rounds.append(len(rows))
            return evaluate(X, rows)
        return ascend(each, X0)

    monkeypatch.setattr(landscape, "_ascend", counted)
    model = loads_model(json.dumps(load_script("output_digest").random_model(0, 6)))
    results = landscape.maximize_each(model, 0.6, ("plain", "tilde"))
    assert all(res.converged for res in results)
    assert len(rounds) <= 163 // 2


@pytest.mark.parametrize("S", [2, 3, 4, 5, 6])
def test_no_trial_moves_a_start_by_more_than_one_in_u(S, monkeypatch):
    # every trial point lies within 1 in sup norm, in u = artanh(r), of the
    # start's current point, which is a point the start evaluated before, so
    # every evaluated point after the first is within 1 (plus the rounding
    # of artanh near the clamp) of an earlier one of its start; on the scan
    # rows of seeded models at beta 0.6 and 1.2.  Unbounded quasi-Newton
    # steps took starts on every one of these scans to trials at or next to
    # the clamp corner, 8.8-9.5 away
    ascend, worst = landscape._ascend, []

    def bounded(evaluate, X0):
        seen = {}

        def each(X, rows):
            U = np.arctanh(X)
            for u, row in zip(U, rows.tolist()):
                if row in seen:
                    worst.append(np.abs(np.array(seen[row]) - u).max(-1).min())
                seen.setdefault(row, []).append(u)
            return evaluate(X, rows)

        return ascend(each, X0)

    monkeypatch.setattr(landscape, "_ascend", bounded)
    for seed in (0, 1):
        model = loads_model(json.dumps(load_script("output_digest").random_model(seed, S)))
        for beta in (0.6, 1.2):
            landscape.maximize_each(model, beta, ("plain", "tilde"))
    assert worst and max(worst) <= 1.0 + 1e-6


def test_search_is_never_below_the_brute_force_grid_optimum(sk, pure3, pure4, two_quad):
    # maximize_f, plain and truncated, and the ratio searches reach at least
    # the best point of their grid (for three species, every fourth point of
    # each axis), computed by brute force
    for model in _gridded_models(sk, pure3, pure4, two_quad):
        S = model.n_species
        axis = landscape._box_axis(4001 if S == 1 else 201)[::4 if S == 3 else 1]
        for res, (_, value) in zip(_search_results(model), _grid_optima(model, axis)):
            assert _above(res.value, value)


def test_import_leaves_scipy_unloaded():
    # only the quadrature uses scipy, and imports it on first use: neither
    # `import spinmix` nor a verdict nor a 6-species maximize_each loads any
    # scipy module, in a fresh interpreter
    import os
    import subprocess
    import sys
    from pathlib import Path

    import spinmix

    env = dict(os.environ, PYTHONPATH=str(Path(spinmix.__file__).resolve().parents[1]))
    code = "\n".join([
        "import sys, numpy as np, spinmix",
        "def scipy_loaded(): return [m for m in sys.modules if m.split('.')[0] == 'scipy']",
        "assert not scipy_loaded(), scipy_loaded()",
        "spinmix.verdict(spinmix.two_species_quadratic_model())",
        "names = tuple('abcdef')",
        "terms = {tuple(2 * (t == s) for t in range(6)): 1.0 for s in range(6)}",
        "terms[(1, 1, 0, 0, 0, 0)] = 0.5",
        "model = spinmix.ModelSpec(spinmix.SpeciesSet(names, np.full(6, 1.0 / 6.0)),",
        "                          spinmix.Mixture.from_terms(names, terms))",
        "res = spinmix.landscape.maximize_each(model, 1.2, ('plain', 'tilde'))",
        "assert all(r.value > 0.0 for r in res)",
        "assert not scipy_loaded(), scipy_loaded()",
    ])
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_every_maximum_is_its_functional_at_its_argmax_bitwise(sk, pure3, pure4, two_quad):
    # the search and the public functionals evaluate one expression, so a
    # reported maximum is f_beta or f_tilde_beta at its own argmax, bit for
    # bit, and so is the verdict's certificate at beta_m: on the fixtures and
    # seeded one- to six-species models, at betas where most maxima are
    # nonzero
    digest = load_script("output_digest")
    models = [sk, pure3, pure4, two_quad] + [loads_model(json.dumps(digest.random_model(seed, S)))
                                             for S in range(1, 7) for seed in (0, 1)]
    functionals = {"plain": f_beta, "tilde": f_tilde_beta}
    for model in models:
        for beta in (0.3, 0.6, 0.9, 1.2):
            results = landscape.maximize_each(model, beta, functionals)
            results.append(maximize_f(model, beta))
            for res, f in zip(results, [*functionals.values(), f_beta]):
                if res.value != 0.0:
                    assert res.value == f(model, beta, res.argmax), (model, beta, f)
        report = criticality.verdict(model)
        cert = report.witnesses
        assert cert["value_certificate"] == f_beta(model, report.beta_m,
                                                   np.array(cert["argmax_certificate"])), model
