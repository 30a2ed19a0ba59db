import math

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
    maximize_f,
)
from spinmix.landscape import TOL_ZERO

from conftest import random_model
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
    for beta in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="beta"):
            maximize_f(sk, beta)


def test_maximize_refuses_a_beta_whose_square_overflows(pure3, three_species_equal):
    # beta^2 xi(1) = inf: the value was nan and still grid-certified; the
    # grid's bounds need finite values
    for model in (pure3, three_species_equal):
        with pytest.raises(ValueError, match="beta = 1e"):
            maximize_f(model, 1e155)
    assert math.isfinite(maximize_f(pure3, 1e150).value)


# the ascent's products overflow for beta^2 above about 1e155, though it converges
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_maximize_refuses_a_beta_whose_truncated_numerator_overflows(two_quad):
    # xi(1) = 3: beta^2 xi(1) is finite but beta^2 xi(1) xi(r) is not near
    # r = 1; the value was inf, unconverged and still grid-certified
    beta = math.sqrt(1e308 / two_quad.xi1())
    with pytest.raises(ValueError, match="beta = 5.77.*truncated"):
        maximize_f(two_quad, beta, "tilde")
    assert math.isfinite(maximize_f(two_quad, math.sqrt(1e307) / two_quad.xi1(), "tilde").value)


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


def _batch_objectives(monkeypatch):
    # the plain and truncated f and the plain ratio of a coupled 4-species model
    names = ("a", "b", "c", "d")
    terms = {(2, 0, 0, 0): 0.9, (0, 3, 0, 0): 0.5, (0, 0, 2, 0): 1.3, (0, 0, 0, 4): 0.7,
             (1, 1, 0, 0): 0.4, (0, 1, 1, 0): 0.6, (0, 0, 1, 1): 0.3, (2, 0, 1, 0): 0.5}
    model = ModelSpec(SpeciesSet(names, np.array([0.1, 0.2, 0.3, 0.4])),
                      Mixture.from_terms(names, terms))
    objectives = [landscape._objective(model, 0.9, objective) for objective in ("plain", "tilde")]
    search = landscape._search

    def grab(model, value, grad, cost):
        objectives.append((value, grad, cost))
        return search(model, value, grad, cost)

    monkeypatch.setattr(criticality, "_search", grab)
    criticality._ratio_min(model, "plain", TOL_ZERO)
    # the starts and the point form _search gives _ascend
    X0, _ = landscape._starts(model, objectives[0][0], objectives[0][2])
    return X0, [(landscape._pointwise(model, value, cost), grad)
                for value, grad, cost in objectives]


def test_ascent_rows_do_not_depend_on_the_batch(monkeypatch):
    # the determinism contract: each start's result is bit for bit the one it
    # reaches alone, and adding, removing or reordering starts moves no other
    X0, objectives = _batch_objectives(monkeypatch)
    for fun, grad in objectives:
        X, F, ok, _ = landscape._ascend(fun, grad, X0)
        for k in range(len(X0)):
            Xk, Fk, okk, _ = landscape._ascend(fun, grad, X0[k:k + 1])
            assert Xk.tobytes() == X[k].tobytes() and Fk.tobytes() == F[k:k + 1].tobytes()
            assert okk[0] == ok[k]
        order = np.arange(len(X0))[::-3]
        Xs, Fs, oks, _ = landscape._ascend(fun, grad, X0[order])
        assert Xs.tobytes() == X[order].tobytes() and Fs.tobytes() == F[order].tobytes()
        assert np.array_equal(oks, ok[order])


def test_ascent_convergence_flag_names_its_stop(monkeypatch):
    ascend = landscape._ascend
    # projected-gradient stop: f = -sum(x) ends at the origin, where the
    # projected gradient is exactly 0
    X, F, ok, _ = ascend(lambda X: -X.sum(-1), lambda X: -np.ones_like(X), np.array([[0.3, 0.7]]))
    assert ok[0] and np.array_equal(X, np.zeros((1, 2)))
    # relative-f stop: on 1e6 - u^2 - u^4, u = x - 0.5, f stops resolving
    # steps long before the gradient falls to the projected-gradient tolerance
    fun = lambda X: 1e6 - ((X - 0.5) ** 2 + (X - 0.5) ** 4).sum(-1)
    grad = lambda X: -2.0 * (X - 0.5) - 4.0 * (X - 0.5) ** 3
    X, F, ok, _ = ascend(fun, grad, np.array([[0.2]]))
    assert ok[0] and abs(X[0, 0] - 0.5) < 1e-4
    assert np.abs(grad(X)).max() > landscape._GTOL
    # the round budget: one round leaves the start short of the maximum
    with monkeypatch.context() as m:
        m.setattr(landscape, "_MAXITER", 1)
        X, F, ok, evals = ascend(fun, grad, np.array([[0.2]]))
    assert not ok[0] and evals == 2
    # a failed line search: the gradient claims an ascent that every trial,
    # however short, contradicts by far more than f's resolution
    X, F, ok, _ = ascend(lambda X: -1e30 * X.sum(-1), lambda X: np.ones_like(X),
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
    results += [criticality._ratio_min(model, objective, TOL_ZERO)[1]
                for objective in ("plain", "tilde")]
    return results


def _record_ascents(monkeypatch):
    # (fun, X0, F) of every _ascend call; the real ascent runs unchanged
    calls = []
    ascend = landscape._ascend

    def record(fun, grad, X0):
        out = ascend(fun, grad, X0)
        calls.append((fun, X0, out[1]))
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
        for res, (point, value), (fun, X0, _) in zip(
                _search_results(model), _grid_optima(model, axis), calls[-4:]):
            assert np.array_equal(X0[-1], point)
            assert res.grid_certified and res.value >= fun(X0[-1:])[0]
            assert _above(res.value, value)


def _rules(model, betas, monkeypatch):
    # (value, cost) of maximize_f's f and truncated twin at each beta, then of
    # the plain and truncated ratio searches, in the order of _grid_rules
    rules = [landscape._objective(model, beta, objective)[::2]
             for beta in betas for objective in ("plain", "tilde")]

    def grab(model, value, grad, cost):
        rules.append((value, cost))
        return landscape.MaximizeResult(np.zeros(model.n_species), -1.0, 0, True, True, 0)

    with monkeypatch.context() as m:
        m.setattr(criticality, "_search", grab)
        for objective in ("plain", "tilde"):
            criticality._ratio_min(model, objective, TOL_ZERO)
    return rules


def _start_of(model, value, cost, side=None):
    # _starts' grid start as (C-order index, value), the value in the bits of
    # the tensor-product kernel, and the grid values computed
    n, default = landscape._GRIDS[model.n_species]
    axis = landscape._box_axis(n)
    flat, evals = landscape._grid_start(model, value, cost, axis, side or default)
    index = np.unravel_index(flat, (n,) * model.n_species)
    at = landscape._kernel(model, axis, cost)
    return index, value(*at([np.array(i) for i in index])), evals


_BETAS = (0.4, 0.8, 1.2)


@pytest.mark.parametrize("name", ["sk", "cubic_two_species", "three_species_equal", "seed_0",
                                  "seed_5"])
def test_grid_start_is_the_brute_force_grid_optimum(name, request, monkeypatch):
    # the grid start, found whole for one and two species and by branch and
    # bound for three, is the brute-force first greatest value in C order of
    # f and its truncated twin at several betas and of both ratios, and slabs
    # of one or 4 leading rows, which divide neither 201 nor 4001, leave it
    # unchanged
    model = (random_model(np.random.default_rng(int(name[5:])), 3) if name.startswith("seed")
             else request.getfixturevalue(name))
    n, side = landscape._GRIDS[model.n_species]
    axis = landscape._box_axis(n)
    for (value, cost), (point, expected) in zip(_rules(model, _BETAS, monkeypatch),
                                                _grid_optima(model, axis, 20, _BETAS)):
        index, found, evals = _start_of(model, value, cost)
        assert np.array_equal(axis[list(index)], point)
        assert found == pytest.approx(expected, rel=1e-12, abs=1e-12)
        for rows in (1, 4):
            with monkeypatch.context() as m:
                m.setattr(landscape, "_SLAB_POINTS", rows * n ** (model.n_species - 1))
                assert _start_of(model, value, cost)[:2] == (index, found)
        # fun_evals' grid part: the values computed, bounds and corners
        # included; all n^S for a grid evaluated whole, a few percent of the
        # grid by branch and bound
        assert evals == n ** model.n_species if side == n else evals < 0.1 * n**3


def test_grid_tie_goes_to_the_first_point_in_c_order(monkeypatch):
    # a symmetric model in equal proportions: minus the truncated ratio is
    # greatest on the three axes, at three points whose xi (one pure term,
    # the others exactly 0) and summed cost are bitwise equal; the first in C
    # order wins, though the three lie in different boxes, and in different
    # slabs when a slab holds one box
    names = ("a", "b", "c")
    model = ModelSpec(SpeciesSet(names, np.full(3, 1.0 / 3.0)),
                      Mixture.from_terms(names, {(3, 0, 0): 1.0, (0, 3, 0): 1.0, (0, 0, 3): 1.0}))
    value, cost = _rules(model, (), monkeypatch)[1]
    axis = landscape._box_axis(201)
    values = np.concatenate([value(xi, c).ravel() for xi, c in landscape._grid(model, axis, cost)])
    ties = np.flatnonzero(values == values.max())
    assert [np.unravel_index(t, (201,) * 3) for t in ties] == [(0, 0, 134), (0, 134, 0),
                                                               (134, 0, 0)]
    # min(xi, 2.9) ties on the corner where xi >= 2.9, across many boxes,
    # which are evaluated greatest bound first, then in the order of their
    # splitting, not in C order
    plateau = lambda xi, c: np.minimum(xi, 2.9) - c
    zero = lambda s, a: np.zeros_like(a)
    corner = _start_of(model, plateau, zero, 201)
    for points in (64, 2**62):
        monkeypatch.setattr(landscape, "_SLAB_POINTS", points)
        index, found, _ = _start_of(model, value, cost)
        assert index == (0, 0, 134) and found == values.max()
        assert _start_of(model, plateau, zero)[:2] == corner[:2]


def _record_slabs(monkeypatch, seen):
    # mark in the C-order mask `seen` the grid points that _grid_start
    # evaluates in its slabs of whole boxes
    kernel = landscape._kernel

    def recording(*args):
        at = kernel(*args)

        def record(index):
            if isinstance(index[0], np.ndarray) and index[0].ndim == seen.ndim + 1:
                seen[tuple(np.broadcast_arrays(*index))] = True
            return at(index)

        return record

    monkeypatch.setattr(landscape, "_kernel", recording)


@pytest.mark.parametrize("boxes", [1, 7, None], ids=["1", "7", "whole"])
def test_no_pruned_box_holds_a_value_above_the_best(boxes, monkeypatch):
    # slabs of one box, of 7 boxes, or of every box left: every grid point
    # that branch and bound leaves unevaluated is below its best value, by
    # brute force, and the start is the dense grid scan's, bit for bit
    model = random_model(np.random.default_rng(5), 3)
    n, side = landscape._GRIDS[3]
    axis = landscape._box_axis(n)
    rules = _rules(model, (0.6,), monkeypatch)
    starts = [_start_of(model, value, cost, n) for value, cost in rules]
    monkeypatch.setattr(landscape, "_SLAB_POINTS", 2**62 if boxes is None else boxes * side**3)
    seen = np.zeros((len(rules),) + (n,) * 3, dtype=bool)
    for (value, cost), (index, found, _), mask in zip(rules, starts, seen):
        with monkeypatch.context() as m:
            _record_slabs(m, mask)
            assert _start_of(model, value, cost)[:2] == (index, found)
        assert 0 < mask.sum() < 0.1 * mask.size
    for lo in range(0, n, 20):
        _, entropy, xi = _grid_points(model, axis, slice(lo, lo + 20))
        for v, (_, found, _), mask in zip(_grid_rules(model, xi, entropy, (0.6,)), starts, seen):
            assert (v[~mask[lo:lo + 20]] < found).all()


@pytest.mark.parametrize("rows", [1, 4])
def test_grid_tie_across_a_slab_boundary_goes_to_the_first_point(rows, cubic_two_species,
                                                                 monkeypatch):
    # the greatest value, 0, sits at rows 3 and 4 of the 201 x 201 grid, on the
    # two sides of a slab boundary; np.argmax's rule picks row 3, first in C order
    calls = _record_ascents(monkeypatch)
    monkeypatch.setattr(landscape, "_SLAB_POINTS", rows * 201)

    def per_axis(s, a):
        # 1 but at rows 3 and 4 of species 0's axis and row 7 of species 1's;
        # on the point form's (K, 2) batch (s = slice(None)) all ones
        v = np.ones(np.shape(a))
        if isinstance(s, int):
            v[[3, 4] if s == 0 else [7]] = 0.0
        return v

    axis = landscape._box_axis(201)
    c = per_axis(0, axis)[:, None] + per_axis(1, axis)[None, :]
    first = np.unravel_index(int(np.argmax(-c)), c.shape)
    assert first == (3, 7)
    res = landscape._search(cubic_two_species, lambda xi, c: -c, np.zeros_like, per_axis)
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
    # 4-species batch objectives and on every gridded search's batch
    X0, objectives = _batch_objectives(monkeypatch)
    hi = 1.0 - landscape.DOMAIN_CLAMP
    for fun, grad in objectives:
        F = landscape._ascend(fun, grad, X0)[1]
        assert (F >= fun(np.clip(X0, 0.0, hi))).all()
    calls = _record_ascents(monkeypatch)
    for model in _gridded_models(sk, pure3, pure4, two_quad):
        _search_results(model)
    assert len(calls) == 4 * 9
    for fun, X0, F in calls:
        assert (F >= fun(np.clip(X0, 0.0, hi))).all()


def test_search_is_never_below_the_brute_force_grid_optimum(sk, pure3, pure4, two_quad):
    # maximize_f, plain and truncated, and the ratio searches reach at least
    # the best point of their grid (for three species, every fourth point of
    # each axis), computed by brute force
    for model in _gridded_models(sk, pure3, pure4, two_quad):
        S = model.n_species
        axis = landscape._box_axis(4001 if S == 1 else 201)[::4 if S == 3 else 1]
        for res, (_, value) in zip(_search_results(model), _grid_optima(model, axis)):
            assert _above(res.value, value)


def test_import_leaves_scipy_optimize_unloaded():
    # no spinmix code path imports scipy.optimize: neither `import spinmix`
    # nor a verdict nor a 6-species search, in a fresh interpreter
    import os
    import subprocess
    import sys
    from pathlib import Path

    import spinmix

    env = dict(os.environ, PYTHONPATH=str(Path(spinmix.__file__).resolve().parents[1]))
    code = "\n".join([
        "import sys, numpy as np, spinmix",
        "assert 'scipy.optimize' not in sys.modules",
        "spinmix.verdict(spinmix.two_species_quadratic_model())",
        "names = tuple('abcdef')",
        "terms = {tuple(2 * (t == s) for t in range(6)): 1.0 for s in range(6)}",
        "terms[(1, 1, 0, 0, 0, 0)] = 0.5",
        "model = spinmix.ModelSpec(spinmix.SpeciesSet(names, np.full(6, 1.0 / 6.0)),",
        "                          spinmix.Mixture.from_terms(names, terms))",
        "assert spinmix.maximize_f(model, 1.2).value > 0.0",
        "assert 'scipy.optimize' not in sys.modules",
    ])
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
