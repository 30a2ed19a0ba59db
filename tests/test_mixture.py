import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinmix import (
    Mixture,
    ModelFormatError,
    ModelSpec,
    SpeciesSet,
    dumps_model,
    loads_model,
    model_hash,
    pure_model,
    sk_model,
    two_species_quadratic_model,
)
from spinmix import mixture as mixture_module

from conftest import load_script, random_mixture
from oracles import (degree2_matrix_by_hand, fd_gradient, fd_hessian, recentred_coefficients,
                     rel_close)


def sk_mixture():
    return Mixture.from_terms(("a",), {(2,): 1.0})


# ----------------------------------------------------------------------
# hypothesis strategy for small mixtures


@st.composite
def mixtures(draw, max_species=3, max_total=4):
    n = draw(st.integers(1, max_species))
    names = ("a", "b", "c")[:n]
    n_terms = draw(st.integers(1, 4))
    terms = {}
    for _ in range(n_terms):
        degs = draw(
            st.lists(st.integers(0, max_total), min_size=n, max_size=n)
            .map(tuple)
            .filter(lambda d: 2 <= sum(d) <= max_total)
        )
        coeff = draw(st.floats(0.05, 3.0, allow_nan=False))
        terms[degs] = terms.get(degs, 0.0) + coeff
    return Mixture.from_terms(names, terms)


@st.composite
def unit_points(draw, n, lo=0.05, hi=0.9):
    return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))


# ----------------------------------------------------------------------
# evaluation


def test_eval_sk_at_one():
    assert sk_mixture().eval(1.0) == 1.0


def test_eval_zero_kills_every_monomial():
    m = Mixture.from_terms(("a", "b"), {(2, 0): 1.5, (1, 2): 0.3})
    assert m.eval(0.0) == 0.0


def test_eval_cross_term_by_hand():
    m = Mixture.from_terms(("a", "b"), {(1, 1): 2.0})
    assert m.eval(np.array([0.5, 0.25])) == pytest.approx(0.25, abs=0)


def test_eval_scalar_broadcast_matches_constant_vector():
    m = Mixture.from_terms(("a", "b"), {(2, 0): 1.0, (1, 1): 0.5})
    assert m.eval(0.7) == pytest.approx(m.eval(np.array([0.7, 0.7])), abs=0)


def test_eval_batched():
    m = Mixture.from_terms(("a",), {(3,): 2.0})
    xs = np.array([[0.0], [0.5], [1.0]])
    assert np.allclose(m.eval(xs), [0.0, 0.25, 2.0])


@given(mixtures(), st.data())
@settings(max_examples=40, deadline=None)
def test_nonnegative_on_unit_box(m, data):
    x = data.draw(unit_points(m.n_species, lo=0.0, hi=1.0))
    assert m.eval(x) >= 0.0
    assert np.all(m.grad(x) >= 0.0)
    assert np.all(m.hessian(x) >= 0.0)


# ----------------------------------------------------------------------
# derivatives


def test_grad_sk_at_origin():
    assert sk_mixture().grad(0.0) == pytest.approx([0.0], abs=0)


def test_grad_cubic_by_hand():
    m = Mixture.from_terms(("a",), {(3,): 1.0})
    assert m.grad(0.5)[0] == pytest.approx(0.75, abs=1e-15)


def test_hessian_sk_at_origin():
    assert sk_mixture().hessian(0.0) == pytest.approx(np.array([[2.0]]), abs=0)


@pytest.mark.parametrize("p", [3, 4, 5])
def test_hessian_high_degree_vanishes_at_origin(p):
    m = Mixture.from_terms(("a",), {(p,): 1.0})
    assert m.hessian(0.0)[0, 0] == 0.0


@given(mixtures(), st.data())
@settings(max_examples=40, deadline=None)
def test_grad_matches_finite_differences(m, data):
    x = data.draw(unit_points(m.n_species))
    fd = fd_gradient(m.eval, x)
    assert rel_close(fd, m.grad(x), 1e-6)


@given(mixtures(max_species=2), st.data())
@settings(max_examples=40, deadline=None)
def test_hessian_matches_finite_differences(m, data):
    x = data.draw(unit_points(m.n_species))
    fd = fd_hessian(m.eval, x)
    assert rel_close(fd, m.hessian(x), 1e-6)


def _pow_per_entry(m, x, alphas):
    # the reference: for every multi-index a of the tuple and every term p,
    # the weight c_p * prod_s (p(s))_a(s) and the monomial x^max(p - a, 0),
    # with one numpy power per (point, multi-index, term, species) entry
    falling = [[math.prod(map(math.perm, p, a)) for p in m.exponents.tolist()] for a in alphas]
    lowered = np.maximum(m.exponents - np.array(alphas, dtype=np.int64)[:, None, :], 0)
    return m.coeffs * np.array(falling, dtype=float), (x[..., None, None, :] ** lowered).prod(-1)


def _orders(S):
    # the multi-indices of xi, of the gradient and of the Hessian
    eye = np.eye(S, dtype=np.int64)
    return [tuple(map(tuple, a.tolist())) for a in (eye[:1] * 0, eye, (eye[:, None] + eye).reshape(-1, S))]


def _under_terms(m):
    # the recentering's multi-indices: every nonzero one under some term
    return tuple(sorted({a for p in m.terms() for a in itertools.product(*(range(d + 1) for d in p))}
                        - {(0,) * m.n_species}))


def _kernel_mixtures():
    # one-term one-species mixtures (numpy squares their one-element exponent
    # array as x*x), a one-term two-species one, recentred mixtures with
    # degree-1 terms, and seeded mixtures of one to six species
    yield from (sk_mixture(), pure_model(3).mixture, pure_model(4).mixture,
                Mixture.from_terms(("a",), {(2,): 1.0, (4,): 0.5}),
                Mixture.from_terms(("a", "b"), {(2, 0): 1.5}),
                Mixture.from_terms(("a", "b"), {(2, 2): 0.7}),
                two_species_quadratic_model().mixture,
                pure_model(3).mixture.tilde_transform(0.4),
                two_species_quadratic_model().mixture.tilde_transform(np.array([0.3, 0.6])))
    rng = np.random.default_rng(11)
    for S in range(1, 7):
        for _ in range(4):
            terms = {}
            for _ in range(int(rng.integers(1, 3 * S + 2))):
                degs = tuple(int(d) for d in rng.integers(0, 5, size=S) * (rng.random(S) < 0.5))
                if sum(degs) >= 1:
                    terms[degs] = float(rng.uniform(0.1, 2.0))
            yield Mixture.from_terms(tuple("abcdef"[:S]), terms or {(2,) * S: 1.0})


def _layouts(X):
    # the batch as C-ordered rows, as the transposed view of a species-major
    # array (the search's layout, Fortran order), as rows gathered from that
    # view, and as a view with a stride between species
    Xt = np.ascontiguousarray(X.T).T
    rows = np.arange(len(X))
    return X, Xt, Xt[rows], np.stack([X, X], -1)[..., 0]


def test_power_table_kernel_is_the_pow_per_entry_expression_bitwise():
    # xi, the gradient and the Hessian, at single points and on batches of
    # 1, 3 and 134 rows with coordinates at 0 and at the search's clamp, in
    # every layout a batch takes, against the reference on C-ordered rows;
    # and the recentering's table, the weights and the power-table product
    # of every nonzero multi-index under a term (orders up to 4 in a
    # species), at single points and on a batch of 3
    rng = np.random.default_rng(5)
    for m in _kernel_mixtures():
        S = m.n_species
        orders = _orders(S)
        for K in (1, 3, 134):
            X = rng.uniform(0.0, 1.0, size=(K, S))
            X[rng.random((K, S)) < 0.2] = 0.0
            X[rng.random((K, S)) < 0.2] = 1.0 - 1e-8
            wants = [(w * mono).sum(-1) for w, mono in (_pow_per_entry(m, X, a) for a in orders)]
            wants[0] = wants[0][..., 0]
            for layout, Y in enumerate(_layouts(X)):
                for got, want in zip((m.eval(Y), m.grad(Y), m._partials(Y, 2)), wants):
                    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (m, K, layout)
            for x in X[:3]:
                xi, grad, hess = ((w * mono).sum(-1) for w, mono in
                                  (_pow_per_entry(m, x, a) for a in orders))
                assert m.eval(x) == float(xi[0])
                assert m.grad(x).tobytes() == grad.tobytes()
                assert m.hessian(x).tobytes() == hess.reshape(S, S).tobytes()
        under = _under_terms(m)
        falling, degrees, factors = mixture_module._layout(m.exponents.shape,
                                                           m.exponents.tobytes(), under)
        for x in (*X[:3], X[:3]):
            weights, mono = _pow_per_entry(m, x, under)
            assert (m.coeffs * falling).tobytes() == weights.tobytes(), m
            got = mixture_module._power_products(x, degrees, factors)
            assert got.shape == mono.shape and got.tobytes() == mono.tobytes(), (m, x)


def test_the_fused_table_is_eval_and_grad_bitwise():
    # the table of orders (0, 1), the search's one power table per point,
    # gives xi and the gradient bit for bit as eval and grad do wherever each
    # order's own table holds more than one distinct exponent: on
    # two_species_quadratic and seeded two- to six-species mixtures, on
    # batches with coordinates at 0 and at the search's clamp
    rng = np.random.default_rng(17)
    digest = load_script("output_digest")
    mixtures = [two_species_quadratic_model().mixture] + [
        loads_model(json.dumps(digest.random_model(seed, S))).mixture
        for S in range(2, 7) for seed in (0, 1)]
    for m in mixtures:
        assert all(m._table(order)[1].shape[1] > 1 for order in (0, 1))
        X = rng.uniform(0.0, 1.0, size=(500, m.n_species))
        X[rng.random(X.shape) < 0.1] = 0.0
        X[rng.random(X.shape) < 0.1] = 1.0 - 1e-8
        jet = m._partials(X, (0, 1))
        assert jet[:, 0].tobytes() == m.eval(X).tobytes()
        assert jet[:, 1:].tobytes() == m.grad(X).tobytes()
    # the one exception: a table whose only exponent is 2, xi of sk, squares
    # by numpy's x*x (its exponent array has one element), while the fused
    # table's exponents 1 and 2 take numpy's pow, which may round x^2
    # differently, by CPU and numpy build (54,044 of 10^6 uniform squares
    # differ with numpy 2.4.6 on an AVX-512 Xeon)
    m = sk_mixture()
    assert m._table(0)[1].tolist() == [[2]] and m._table((0, 1))[1].tolist() == [[1, 2]]
    x = rng.uniform(0.0, 1.0, size=(1000, 1))
    jet = m._partials(x, (0, 1))
    assert m.eval(x).tobytes() == (x * x)[:, 0].tobytes()
    assert jet[:, 0].tobytes() == (x[..., None] ** np.array([[1, 2]]))[:, 0, 1].tobytes()
    assert jet[:, 1].tobytes() == m.grad(x)[:, 0].tobytes() == (2.0 * x[:, 0]).tobytes()


def test_mixtures_of_one_form_share_the_kernel_layout():
    # the layout depends on the exponents alone; the weights are the mixture's
    a = Mixture.from_terms(("a", "b"), {(2, 0): 1.0, (1, 2): 0.5})
    b = Mixture.from_terms(("a", "b"), {(2, 0): 3.0, (1, 2): 0.25})
    for order in (0, 1, 2):
        (wa, *layout_a), (wb, *layout_b) = a._table(order), b._table(order)
        assert all(x is y and not x.flags.writeable for x, y in zip(layout_a, layout_b))
        assert not np.array_equal(wa, wb)
    assert a.eval(np.array([0.5, 0.5])) != b.eval(np.array([0.5, 0.5]))


def test_degree2_matrix_equals_hessian_at_origin():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        m = random_mixture(rng, n)
        Q = degree2_matrix_by_hand(m)
        assert m.degree2_matrix() == pytest.approx(Q, abs=1e-14)
        assert m.hessian(0.0) == pytest.approx(Q, abs=1e-14)


# ----------------------------------------------------------------------
# recentering transform


def test_tilde_transform_at_zero_is_identity():
    rng = np.random.default_rng(7)
    m = random_mixture(rng, 2)
    t = m.tilde_transform(np.zeros(2))
    assert t.terms() == m.terms()


def _recentring_mixtures():
    # seeded mixtures of one to four species, every term of degree 2 to 4
    rng = np.random.default_rng(12)
    for S in range(1, 5):
        for _ in range(6):
            terms = {}
            for _ in range(int(rng.integers(1, 2 * S + 2))):
                degs = rng.multinomial(int(rng.integers(2, 5)), np.full(S, 1.0 / S))
                terms[tuple(int(d) for d in degs)] = float(rng.uniform(0.1, 2.0))
            yield Mixture.from_terms(tuple("abcd"[:S]), terms)


def test_tilde_transform_coefficients_match_the_exact_binomial_expansion():
    # dyadic overlaps k/16, some of them 0, so that r^2 and 1 - r^2 are exact
    # and the oracle's rational r is the transform's: the same nonzero
    # multi-indices, and every coefficient within a relative 4 * 2^-52 of
    # the exact one
    rng = np.random.default_rng(13)
    for m in _recentring_mixtures():
        for _ in range(3):
            r = rng.integers(0, 16, size=m.n_species) / 16
            r[rng.random(m.n_species) < 0.3] = 0.0
            got, want = m.tilde_transform(r).terms(), recentred_coefficients(m, r)
            assert list(got) == sorted(want), (m, r)
            for a, c in got.items():
                assert abs(Fraction(c) - want[a]) <= 4 * 2**-52 * want[a], (m, r, a)


def test_tilde_transform_at_one_matches_xi():
    rng = np.random.default_rng(8)
    m = random_mixture(rng, 2)
    r = np.array([0.4, 0.7])
    t = m.tilde_transform(r)
    expected = m.eval(1.0) - m.eval(r * r)
    assert t.eval(1.0) == pytest.approx(expected, abs=1e-13)


@given(mixtures(max_species=2), st.data())
@settings(max_examples=30, deadline=None)
def test_tilde_transform_substitution_identity(m, data):
    r = data.draw(unit_points(m.n_species, lo=0.0, hi=0.95))
    x = data.draw(unit_points(m.n_species, lo=0.0, hi=1.0))
    lhs = m.tilde_transform(r).eval(x)
    rhs = m.eval((1.0 - r * r) * x + r * r) - m.eval(r * r)
    assert lhs == pytest.approx(rhs, abs=1e-12, rel=1e-12)


def test_tilde_transform_rejects_out_of_domain():
    m = sk_mixture()
    for r in (1.0, -0.1, float("nan")):
        with pytest.raises(ValueError):
            m.tilde_transform(np.array([r]))


def test_tilde_transform_has_degree_one_terms():
    m = sk_mixture()
    t = m.tilde_transform(np.array([0.5]))
    assert int(t.exponents.sum(axis=1).min()) == 1
    assert (1,) in t.terms()
    # the shift acts like an external field, which a base model refuses
    with pytest.raises(ValueError, match=r"term \(1,\) has degree below 2"):
        ModelSpec(SpeciesSet(("a",), np.array([1.0])), t)


# ----------------------------------------------------------------------
# directional derivative of the transform


def test_eta_vanishes_at_endpoints():
    rng = np.random.default_rng(9)
    for n in (1, 2):
        m = random_mixture(rng, n)
        x = rng.uniform(0.1, 0.9, size=n)
        assert m.eta_direction(x, np.zeros(n)) == 0.0
        assert m.eta_direction(x, np.ones(n)) == 0.0


def test_eta_matches_transform_slope():
    rng = np.random.default_rng(10)
    for n in (1, 2):
        m = random_mixture(rng, n)
        x = rng.uniform(0.1, 0.9, size=n)
        z = rng.uniform(0.1, 0.9, size=n)
        base = m.tilde_transform(np.zeros(n)).eval(z)

        def slope(eps):
            return (m.tilde_transform(np.sqrt(eps * x)).eval(z) - base) / eps

        eps = 1e-4
        extrap = 2.0 * slope(eps / 2.0) - slope(eps)
        eta = m.eta_direction(x, z)
        assert extrap == pytest.approx(eta, rel=1e-4, abs=1e-10)


# ----------------------------------------------------------------------
# positivity off the origin


def test_positive_off_origin_sk_true():
    assert sk_mixture().positive_off_origin()


def test_positive_off_origin_cross_only_false():
    m = Mixture.from_terms(("a", "b"), {(1, 1): 1.0})
    assert not m.positive_off_origin()


def test_positive_off_origin_full_quadratic_true():
    m = Mixture.from_terms(("a", "b"), {(2, 0): 1.0, (0, 2): 1.0, (1, 1): 1.0})
    assert m.positive_off_origin()


@given(mixtures(max_species=3))
@settings(max_examples=60, deadline=None)
def test_positive_off_origin_matches_indicator_scan(m):
    # positivity on the unit box reduces to positivity at 0/1 indicator
    # vectors: xi is monotone coordinatewise with nonnegative coefficients
    n = m.n_species
    brute = all(
        m.eval(np.array(mask, dtype=float)) > 0.0
        for mask in itertools.product((0, 1), repeat=n)
        if any(mask)
    )
    assert m.positive_off_origin() == brute


def test_empty_mixture_is_zero_and_not_positive():
    # numpy's empty product, sum and all give the mixture with no terms
    m = Mixture.from_terms(("a", "b"), {})
    value = m.eval(np.array([0.3, 0.7]))
    assert type(value) is float and value == 0.0
    assert np.array_equal(m.eval(np.full((4, 2), 0.5)), np.zeros(4))
    assert np.array_equal(m.grad(np.array([0.3, 0.7])), np.zeros(2))
    assert not m.positive_off_origin()
    # tilde_transform drops every coefficient below its floor, here all of them
    recentred = Mixture.from_terms(("a",), {(2,): 2e-300}).tilde_transform(0.9)
    assert recentred.n_terms == 0 and recentred.eval(0.5) == 0.0


# ----------------------------------------------------------------------
# validation


def test_species_set_validation():
    with pytest.raises(ValueError):
        SpeciesSet(("a", "a"), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        SpeciesSet(("a", "b"), np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        SpeciesSet(("a", "b"), np.array([1.0, 0.0]))


def test_mixture_validation():
    with pytest.raises(ValueError, match=r"term \(2,\)"):
        Mixture.from_terms(("a",), {(2,): -1.0})
    with pytest.raises(ValueError, match=r"term \(2,\)"):
        Mixture.from_terms(("a",), {(2,): float("nan")})
    # a mixture may carry degree-1 terms; a base model, a model file and a
    # pure model may not
    m = Mixture.from_terms(("a",), {(1,): 1.0, (2,): 1.0})
    assert (1,) in m.terms()
    with pytest.raises(ValueError, match=r"term \(1,\) has degree below 2"):
        ModelSpec(SpeciesSet(("a",), np.array([1.0])), Mixture.from_terms(("a",), {(1,): 1.0}))
    doc = {"species": [{"name": "a", "lambda": 1.0}],
           "terms": [{"degrees": {"a": 1}, "delta_sq": 1.0}]}
    with pytest.raises(ModelFormatError, match=r"terms: term \(1,\) has degree below 2"):
        loads_model(json.dumps(doc))
    with pytest.raises(ValueError, match="degree below 2"):
        pure_model(1)


def test_mixture_refuses_negative_exponent():
    with pytest.raises(ValueError, match=r"term \(3, -1\).*nonnegative integers"):
        Mixture(("a", "b"), [[3, -1]], [1.0])
    with pytest.raises(ValueError, match=r"term \(2.5,\).*nonnegative integers"):
        Mixture(("a",), [[2.5]], [1.0])


def test_mixture_refuses_repeated_multi_index():
    with pytest.raises(ValueError, match=r"term \(2, 0\).*appears twice"):
        Mixture(("a", "b"), [[2, 0], [0, 2], [2, 0]], [1.0, 1.0, 0.5])


def test_mixture_refuses_constant_term():
    with pytest.raises(ValueError, match=r"term \(0, 0\).*degree 0"):
        Mixture.from_terms(("a", "b"), {(2, 0): 1.0, (0, 0): 1.0})
    with pytest.raises(ValueError, match="degree 0"):
        pure_model(0)


def test_mixture_refuses_shape_mismatch():
    with pytest.raises(ValueError, match="one column per species"):
        Mixture(("a", "b"), [[2, 0, 1]], [1.0])
    with pytest.raises(ValueError, match="one row per coefficient"):
        Mixture(("a", "b"), [[2, 0], [0, 2]], [1.0])


def test_row_order_does_not_change_the_mixture():
    a = Mixture(("a", "b"), [[2, 0], [0, 2]], [1.0, 2.0])
    b = Mixture(("a", "b"), [[0, 2], [2, 0]], [2.0, 1.0])
    assert a == b
    assert a.exponents.tolist() == [[0, 2], [2, 0]] and a.coeffs.tolist() == [2.0, 1.0]
    lam = SpeciesSet(("a", "b"), np.array([0.5, 0.5]))
    assert model_hash(ModelSpec(lam, a)) == model_hash(ModelSpec(lam, b))


def test_tilde_transform_at_zero_is_the_identity():
    for model in (sk_model(), pure_model(3), two_species_quadratic_model()):
        xi = model.mixture
        assert xi.tilde_transform(0.0) == xi
        assert ModelSpec(model.species, xi.tilde_transform(0.0)) == model


@st.composite
def shuffled_models(draw):
    """A base model on 1-4 species, its term map, and a permutation of its
    rows."""
    n = draw(st.integers(1, 4))
    names = ("a", "b", "c", "d")[:n]
    degrees = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple)
    terms = draw(st.dictionaries(degrees.filter(lambda d: sum(d) >= 2),
                                 st.floats(0.05, 3.0), min_size=1, max_size=6))
    weights = np.array(draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)), dtype=float)
    perm = draw(st.permutations(range(len(terms))))
    return SpeciesSet(names, weights / weights.sum()), terms, perm


@given(shuffled_models())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_every_row_order_gives_one_canonical_model(case):
    species, terms, perm = case
    keys, values = list(terms), list(terms.values())
    shuffled = Mixture(species.names, [keys[i] for i in perm], [values[i] for i in perm])
    xi = Mixture.from_terms(species.names, terms)
    assert shuffled == xi
    model = ModelSpec(species, xi)
    assert model_hash(ModelSpec(species, shuffled)) == model_hash(model)
    assert xi.tilde_transform(0.0) == xi
    assert loads_model(dumps_model(model)) == model
