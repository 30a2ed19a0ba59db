import inspect
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from spinmix import (
    BudgetError,
    CoefficientLawError,
    Mixture,
    ModelSpec,
    SpeciesSet,
    band_prediction,
    build_finite_model,
    covariance_exact,
    estimate_band_free_energy,
    estimate_free_energy,
    estimate_level_set,
    evaluate_H,
    evaluate_H_batch,
    log_E_Z2_exact,
    maximize_f,
    overlap,
    pure_model,
    sample_disorder,
    sample_on_band,
    sample_uniform,
)
from spinmix import montecarlo, quadrature, verify
from spinmix.rng import BAND, PROBE_CENTER, UNIFORM, stream

from conftest import random_model, watched
from oracles import hamiltonian_by_masks, rel_close


# ----------------------------------------------------------------------
# finite models and configurations


def test_single_species_block(sk):
    fm = build_finite_model(sk, 50)
    assert fm.block_sizes == (50,)


def test_largest_remainder_tie_breaks_in_species_order(two_quad):
    fm = build_finite_model(two_quad, 51)
    assert fm.block_sizes == (26, 25)


def test_largest_remainder_exact_quota():
    model = ModelSpec(
        SpeciesSet(("a", "b"), np.array([0.7, 0.3])),
        Mixture.from_terms(("a", "b"), {(2, 0): 1.0, (0, 2): 1.0}),
    )
    fm = build_finite_model(model, 10)
    assert fm.block_sizes == (7, 3)


def test_block_sizes_track_proportions(cubic_two_species):
    fm = build_finite_model(cubic_two_species, 200)
    for n_s, lam in zip(fm.block_sizes, cubic_two_species.species.lam):
        assert abs(n_s / 200 - lam) <= 1.0 / 200 + 1e-12


def test_too_small_N_rejected(two_quad):
    with pytest.raises(ValueError):
        build_finite_model(two_quad, 5)


def test_configuration_validation(sk):
    fm = build_finite_model(sk, 12)
    with pytest.raises(ValueError):
        montecarlo.validate_configuration(fm, np.zeros(12))
    with pytest.raises(ValueError):
        montecarlo.validate_configuration(fm, np.ones(13))


def test_configuration_with_nan_is_refused(cubic_two_species):
    # every consumer of a configuration refuses one with a NaN entry,
    # instead of returning nan
    fm = build_finite_model(cubic_two_species, 21)
    sigma = sample_uniform(fm, stream(12))
    bad = sigma.copy()
    bad[0] = np.nan
    with pytest.raises(ValueError, match="species a"):
        montecarlo.validate_configuration(fm, bad)
    with pytest.raises(ValueError, match="species a"):
        sample_on_band(fm, bad, np.full(2, 0.3), stream(13))
    for a, b in ((bad, sigma), (sigma, bad)):
        with pytest.raises(ValueError, match="species a"):
            covariance_exact(fm, a, b)


# ----------------------------------------------------------------------
# sphere sampling and overlaps


def test_uniform_samples_sit_on_the_spheres(cubic_two_species):
    fm = build_finite_model(cubic_two_species, 37)
    rng = stream(3)
    for _ in range(5):
        sigma = sample_uniform(fm, rng)
        for sl, n_s in zip(fm.block_slices, fm.block_sizes):
            assert np.sum(sigma[sl] ** 2) == pytest.approx(n_s, rel=1e-12)


def test_overlap_endpoints(cubic_two_species):
    fm = build_finite_model(cubic_two_species, 30)
    sigma = sample_uniform(fm, stream(4))
    assert overlap(fm, sigma, sigma) == pytest.approx(np.ones(2), rel=1e-12)
    assert overlap(fm, sigma, -sigma) == pytest.approx(-np.ones(2), rel=1e-12)


def test_overlap_moments_match_sphere_law(sk):
    # independent uniform points: E R = 0 and E R^2 = 1/N_s exactly
    fm = build_finite_model(sk, 20)
    rng = stream(5)
    rs = np.array(
        [
            overlap(fm, sample_uniform(fm, rng), sample_uniform(fm, rng))[0]
            for _ in range(10_000)
        ]
    )
    assert abs(rs.mean()) <= 5.0 * rs.std(ddof=1) / 100.0
    sq = rs * rs
    assert abs(sq.mean() - 1.0 / 20.0) <= 5.0 * sq.std(ddof=1) / 100.0


# the false-alarm rate of each Kolmogorov-Smirnov test below, and the
# configurations it reads: sixteen estimator chunks
_KS_ALPHA = 1e-6
_KS_ROWS = 16 * montecarlo._CHUNK


def _unequal_blocks():
    # two species in blocks of 5 and 12
    names = ("a", "b")
    model = ModelSpec(SpeciesSet(names, np.array([5.0, 12.0]) / 17.0),
                      Mixture.from_terms(names, {(2, 0): 1.0, (0, 2): 1.0, (1, 1): 0.5}))
    fm = build_finite_model(model, 17)
    assert fm.block_sizes == (5, 12)
    return fm


def _ks_rejects(samples, d):
    """Whether the Kolmogorov-Smirnov distance of samples from the overlap law
    on the d-sphere (quadrature.log_overlap_density, integrated by the
    midpoint rule) exceeds the DKW bound sqrt(log(2 / alpha) / (2 n)), which
    a true law exceeds with probability at most _KS_ALPHA."""
    edges = np.linspace(-1.0, 1.0, 20001)
    mids = 0.5 * (edges[1:] + edges[:-1])
    density = np.exp(quadrature.log_overlap_density(mids, d))
    cdf = np.concatenate([[0.0], np.cumsum(density * np.diff(edges))])
    F = np.interp(np.sort(samples), edges, cdf)
    n = len(samples)
    steps = np.arange(n + 1) / n
    distance = max((steps[1:] - F).max(), (F - steps[:-1]).max())
    return distance > math.sqrt(math.log(2.0 / _KS_ALPHA) / (2.0 * n))


def test_chunk_overlaps_follow_the_sphere_law():
    # the estimators' configurations, _place on a read of stream(seed, UNIFORM):
    # each species' overlap with the all-ones configuration, which is the
    # overlap of two uniform points on the n_s-sphere
    fm = _unequal_blocks()
    rows = stream(11, UNIFORM).standard_normal((_KS_ROWS, fm.N))
    montecarlo._place(rows, montecarlo._blocks(fm))
    for sl, n_s in zip(fm.block_slices, fm.block_sizes):
        assert not _ks_rejects(rows[:, sl].sum(-1) / n_s, n_s)


# ----------------------------------------------------------------------
# disorder tensors


def test_disorder_deterministic(cubic_two_species):
    fm = build_finite_model(cubic_two_species, 15)
    d1 = sample_disorder(fm, seed=42)
    d2 = sample_disorder(fm, seed=42)
    assert all(np.array_equal(a, b) for a, b in zip(d1.tensors, d2.tensors))
    d3 = sample_disorder(fm, seed=43)
    assert not np.array_equal(d1.tensors[0], d3.tensors[0])


def test_disorder_terms_use_distinct_streams():
    model = ModelSpec(
        SpeciesSet(("a",), np.array([1.0])),
        Mixture.from_terms(("a",), {(2,): 1.0, (3,): 1.0}),
    )
    fm = build_finite_model(model, 12)
    d = sample_disorder(fm, seed=0)
    # same leading 12x12 slab would betray a shared stream
    assert not np.array_equal(d.tensors[0], d.tensors[1][:, :, 0][:12, :12])
    assert not np.array_equal(d.tensors[0], d.tensors[1][0])


def test_disorder_entries_standard_normal(sk):
    fm = build_finite_model(sk, 1000)
    d = sample_disorder(fm, seed=9)
    entries = d.tensors[0].ravel()
    assert entries.size == 10**6
    assert abs(entries.mean()) <= 5.0 / math.sqrt(entries.size)
    assert abs(entries.std() - 1.0) <= 5.0 / math.sqrt(entries.size)


def test_budget_error_names_term(sk, monkeypatch):
    fm = build_finite_model(sk, 20)
    monkeypatch.setattr(montecarlo, "TENSOR_BUDGET", 10)
    with pytest.raises(BudgetError, match=r"term \(2,\)"):
        sample_disorder(fm, seed=0)
    with pytest.raises(TypeError):  # the budget is the package's constant
        sample_disorder(fm, seed=0, budget=10**8)


# ----------------------------------------------------------------------
# Hamiltonian evaluation and the covariance oracle


def test_evaluate_matches_batch(cubic_two_species):
    fm = build_finite_model(cubic_two_species, 18)
    d = sample_disorder(fm, seed=3)
    rng = stream(6)
    sigmas = np.stack([sample_uniform(fm, rng) for _ in range(4)])
    batch = evaluate_H_batch(d, sigmas)
    singles = [evaluate_H(d, s) for s in sigmas]
    assert batch == pytest.approx(singles, rel=1e-12)
    assert rel_close(singles, hamiltonian_by_masks(d, sigmas), 1e-12)


def _three_species_quartic() -> ModelSpec:
    names = ("a", "b", "c")
    return ModelSpec(
        SpeciesSet(names, np.array([0.3, 0.3, 0.4])),
        Mixture.from_terms(names, {(2, 1, 1): 0.8, (1, 1, 1): 0.5, (4, 0, 0): 0.3,
                                   (0, 2, 2): 0.6, (1, 0, 1): 0.4}),
    )


def _finite_model_with_degree_one_terms(cubic_two_species) -> montecarlo.FiniteModel:
    # ModelSpec admits base mixtures only; the recentred band mixture has
    # degree-1 terms, so it rides on the base model's block layout
    fm = build_finite_model(cubic_two_species, 20)
    tilde = cubic_two_species.mixture.tilde_transform(np.array([0.3, 0.5]))
    assert int(tilde.exponents.sum(axis=1).min()) == 1
    stand_in = SimpleNamespace(species=cubic_two_species.species, mixture=tilde, n_species=2)
    return replace(fm, model=stand_in)


@pytest.mark.parametrize("case", ["cubic_two_species", "three_species_quartic", "pure4",
                                  "degree_one_terms"])
@pytest.mark.parametrize("budget", [None, 1, 500])
def test_batch_matches_masked_contraction_oracle(case, budget, cubic_two_species, monkeypatch):
    # budget 1 contracts one row per chunk, 500 a few rows; None keeps the default
    fm = {
        "cubic_two_species": lambda: build_finite_model(cubic_two_species, 21),
        "three_species_quartic": lambda: build_finite_model(_three_species_quartic(), 16),
        "pure4": lambda: build_finite_model(pure_model(4), 17),
        "degree_one_terms": lambda: _finite_model_with_degree_one_terms(cubic_two_species),
    }[case]()
    if budget is not None:
        monkeypatch.setattr(montecarlo, "_CONTRACT_BUDGET", budget)
    d = sample_disorder(fm, seed=31)
    rng = stream(32)
    sigmas = np.stack([sample_uniform(fm, rng) for _ in range(7)])
    assert rel_close(evaluate_H_batch(d, sigmas), hamiltonian_by_masks(d, sigmas), 1e-12)


def test_batch_contraction_memory_is_bounded():
    # at most two (rows, N^2) intermediates of _CONTRACT_BUDGET scalars
    # (2 MB) are live at once; all 1024 rows in one chunk would need ~40 MB
    fm = build_finite_model(pure_model(4), 50)
    d = sample_disorder(fm, seed=33)
    rng = stream(34)
    sigmas = np.stack([sample_uniform(fm, rng) for _ in range(1024)])
    tracemalloc.start()
    try:
        evaluate_H_batch(d, sigmas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_grid_memory_is_bounded(three_species_equal, monkeypatch):
    # the tensor-product grid is held a slab of landscape._SLAB_POINTS points
    # (2 MB per array) at a time; the 257^3-node quadrature grid whole would
    # need about 1 GB, maximize_f's 201^3 certification grid about 250 MB
    nodes = []
    roots = quadrature.roots_legendre

    def recording_roots(n):
        nodes.append(n)
        return roots(n)

    monkeypatch.setattr(quadrature, "roots_legendre", recording_roots)
    fm = build_finite_model(three_species_equal, 3200)
    for run in (lambda: log_E_Z2_exact(fm, 0.2), lambda: maximize_f(three_species_equal, 1.0)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
    assert max(nodes) == 257


def test_eliminated_quadrature_reaches_513_nodes_in_bounded_memory(chain_three_species,
                                                                   monkeypatch):
    # a chain is summed species by species, in blocks of n^2 points per pivot
    # slab, so its rungs past 257 nodes are cheap and bounded too
    nodes = []
    roots = quadrature.roots_legendre

    def recording_roots(n):
        nodes.append(n)
        return roots(n)

    monkeypatch.setattr(quadrature, "roots_legendre", recording_roots)
    for N, top in ((12800, 513), (51200, 1025)):
        nodes.clear()
        fm = build_finite_model(chain_three_species, N)
        tracemalloc.start()
        try:
            log_E_Z2_exact(fm, 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert max(nodes) == top


def test_hamiltonian_centered_over_disorder(sk):
    fm = build_finite_model(sk, 16)
    sigma = sample_uniform(fm, stream(7))
    vals = np.array([evaluate_H(sample_disorder(fm, seed=s), sigma) for s in range(600)])
    assert abs(vals.mean()) <= 5.0 * vals.std(ddof=1) / math.sqrt(len(vals))


def test_covariance_self_is_N_xi_one(cubic_two_species):
    fm = build_finite_model(cubic_two_species, 21)
    sigma = sample_uniform(fm, stream(8))
    assert covariance_exact(fm, sigma, sigma) == pytest.approx(
        fm.N * cubic_two_species.xi1(), rel=1e-12
    )


def test_covariance_orthogonal_pair_is_zero(cubic_two_species):
    fm = build_finite_model(cubic_two_species, 21)
    sigma = sample_uniform(fm, stream(9))
    other = sample_on_band(fm, sigma, np.zeros(2), stream(10))
    assert covariance_exact(fm, sigma, other) == pytest.approx(0.0, abs=1e-9)


def test_covariance_random_instances_agree():
    rng = stream(11)
    for _ in range(20):
        model = random_model(rng, int(rng.integers(1, 3)))
        fm = build_finite_model(model, int(rng.integers(12, 31)))
        a = sample_uniform(fm, rng)
        b = sample_uniform(fm, rng)
        val = covariance_exact(fm, a, b)
        assert val == pytest.approx(fm.N * model.mixture.eval(overlap(fm, a, b)), rel=1e-10)


def test_covariance_catches_tampered_prefactor(cubic_two_species, monkeypatch):
    # drop the factorial ratio from the coefficient law: the two routes
    # must then disagree for mixed terms
    original = montecarlo._term_prefactor

    def tampered(coeff, degrees, fm):
        k = int(degrees.sum())
        val = fm.N * coeff
        for s, d in enumerate(degrees):
            val *= float(fm.block_sizes[s]) ** (-int(d))
        return math.sqrt(val)

    monkeypatch.setattr(montecarlo, "_term_prefactor", tampered)
    fm = build_finite_model(cubic_two_species, 20)
    a = sample_uniform(fm, stream(12))
    b = sample_uniform(fm, stream(13))
    with pytest.raises(CoefficientLawError):
        covariance_exact(fm, a, b)
    monkeypatch.setattr(montecarlo, "_term_prefactor", original)


def test_empirical_covariance_matches_exact(cubic_two_species):
    # verify's Gram-matrix statistics on the public path: 48 configurations
    # contracted by evaluate_H_batch under 300 draws of sample_disorder
    # (14,400 degrees of freedom), against N xi(R); the same Hamiltonians
    # scaled by sqrt(1.1), a 10% variance error, move the whole variance's z
    # by 8.2 and fail
    fm = build_finite_model(cubic_two_species, 12)
    rng = stream(14)
    sigmas = np.stack([sample_uniform(fm, rng) for _ in range(48)])
    h = np.stack([evaluate_H_batch(sample_disorder(fm, seed=s), sigmas) for s in range(300)])
    zs, rank = verify._gram_z(fm, sigmas, h)
    assert rank == 48 and len(zs) == 1 + cubic_two_species.mixture.n_terms
    assert max(map(abs, zs)) <= verify._COVARIANCE_Z
    assert verify._gram_z(fm, sigmas, math.sqrt(1.1) * h)[0][0] > verify._COVARIANCE_Z


def _block_by_block(rng, fm, center=None, r=None) -> np.ndarray:
    # the sphere and band draw written out one species block at a time: a
    # Gaussian drawn into the block, the center block projected out, the
    # norm sqrt(g @ g), then r c + sqrt(1 - r^2) g
    row = np.empty(fm.N)
    for s, (sl, n_s) in enumerate(zip(fm.block_slices, fm.block_sizes)):
        g = row[sl]
        rng.standard_normal(out=g)
        if center is not None:
            c = center[sl]
            g -= (float(g @ c) / n_s) * c
        g *= math.sqrt(n_s) / math.sqrt(g @ g)
        if center is not None:
            g *= math.sqrt(1.0 - r[s] * r[s])
            g += r[s] * c
    return row


def _estimator_case(case, band, sk, cubic_two_species):
    fm = {
        "sk": lambda: build_finite_model(sk, 20),
        "cubic_two_species": lambda: build_finite_model(cubic_two_species, 18),
        "three_species_quartic": lambda: build_finite_model(_three_species_quartic(), 12),
    }[case]()
    role = BAND if band else UNIFORM
    center = sample_uniform(fm, stream(43)) if band else None
    r = np.linspace(0.2, 0.5, fm.n_species)
    blocks = montecarlo._blocks(fm, center, r) if band else montecarlo._blocks(fm)
    return fm, sample_disorder(fm, seed=41), role, center, r, blocks


def _fresh(role) -> np.random.Generator:
    # stream(42, role) written out: a Philox keyed by SeedSequence((42, role))
    key = np.random.SeedSequence((42, role)).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@pytest.mark.parametrize("case", ["sk", "cubic_two_species", "three_species_quartic"])
@pytest.mark.parametrize("band", [False, True])
def test_each_sample_is_the_draw_of_a_fresh_philox(case, band, sk, cubic_two_species,
                                                   monkeypatch):
    # configuration i of an estimator is normals [i N, (i + 1) N) of one fresh
    # Philox read in order, placed block by block, on both sides of the chunk
    # boundary; H is compared a chunk at a time, since a contraction of other
    # rows may round the last bit differently
    fm, d, role, center, r, blocks = _estimator_case(case, band, sk, cubic_two_species)
    chunk = montecarlo._CHUNK
    g = _fresh(role)
    sigmas = np.stack([_block_by_block(g, fm, center, r) for _ in range(chunk + 2)])
    h = montecarlo._hamiltonians(d, stream(42, role), chunk + 2, blocks)
    for lo in (0, chunk):
        assert np.array_equal(h[lo : lo + chunk], evaluate_H_batch(d, sigmas[lo : lo + chunk]))
    # the first 100 samples do not depend on the sample count
    h100 = montecarlo._hamiltonians(d, stream(42, role), 100, blocks)
    assert np.array_equal(h100, evaluate_H_batch(d, sigmas[:100]))
    assert h100 == pytest.approx(h[:100], rel=1e-12)
    # nor on the chunk size
    monkeypatch.setattr(montecarlo, "_CHUNK", 7)
    h7 = montecarlo._hamiltonians(d, stream(42, role), chunk + 2, blocks)
    for lo in range(0, chunk + 2, 7):
        assert np.array_equal(h7[lo : lo + 7], evaluate_H_batch(d, sigmas[lo : lo + 7]))
    assert h7 == pytest.approx(h, rel=1e-12)
    # the public samplers place a row the same way
    g = _fresh(role)
    one = sample_on_band(fm, center, r, g) if band else sample_uniform(fm, g)
    assert np.array_equal(one, sigmas[0])


class _ZeroBlock:
    """A generator whose every draw has species block ``sl`` of its last row
    set to zero."""

    def __init__(self, sl):
        self._rng = stream(46)
        self._sl = sl

    def standard_normal(self, out):
        self._rng.standard_normal(out=out)
        np.atleast_2d(out)[-1, self._sl] = 0.0


@pytest.mark.parametrize("band", [False, True])
def test_a_zero_block_is_an_error(band, sk, cubic_two_species, monkeypatch):
    # a zero block has no direction on its sphere: the samplers and the
    # estimators name it instead of returning NaN
    fm, d, _, center, r, _ = _estimator_case("cubic_two_species", band, sk, cubic_two_species)
    sl = fm.block_slices[1]
    match = rf"species block 1 \(entries {sl.start}:{sl.stop}\) of a draw has norm 0"
    with pytest.raises(FloatingPointError, match=match):
        if band:
            sample_on_band(fm, center, r, _ZeroBlock(sl))
        else:
            sample_uniform(fm, _ZeroBlock(sl))
    monkeypatch.setattr(montecarlo, "stream", lambda *key: _ZeroBlock(sl))
    with pytest.raises(FloatingPointError, match=match):
        if band:
            estimate_band_free_energy(fm, d, center, r, 0.3, 200, seed=5)
        else:
            estimate_free_energy(fm, d, 0.3, 200, seed=5)


# ----------------------------------------------------------------------
# the chunk loop shared by the calling thread and a helper


def _helper(monkeypatch, on: bool) -> None:
    """Let an estimate of several chunks start its helper, or not."""
    monkeypatch.setattr(montecarlo, "_HELPER", on)


def _loop_case(case, band, sk, cubic_two_species):
    model = {"sk": sk, "cubic_two_species": cubic_two_species, "pure3": pure_model(3)}[case]
    fm = build_finite_model(model, 18)
    center = sample_uniform(fm, stream(43)) if band else None
    r = np.linspace(0.2, 0.5, fm.n_species)
    blocks = montecarlo._blocks(fm, center, r) if band else montecarlo._blocks(fm)
    return fm, sample_disorder(fm, seed=41), BAND if band else UNIFORM, blocks


@pytest.mark.parametrize("case", ["sk", "cubic_two_species", "pure3"])
@pytest.mark.parametrize("band", [False, True])
def test_the_helper_changes_no_bit_of_H(case, band, sk, cubic_two_species, monkeypatch):
    fm, d, role, blocks = _loop_case(case, band, sk, cubic_two_species)

    def both(n):
        h = []
        for on in (True, False):
            _helper(monkeypatch, on)
            h.append(montecarlo._hamiltonians(d, stream(42, role), n, blocks))
        return h

    for n in (100, 1024, 1025, 2500, 4096):
        helped, alone = both(n)
        assert helped.tobytes() == alone.tobytes()
    monkeypatch.setattr(montecarlo, "_CHUNK", 7)
    helped, alone = both(1025)
    assert helped.tobytes() == alone.tobytes()


class _Jittered:
    """A stream whose every draw first waits a random fraction of a
    millisecond, as a draw delayed by the scheduler would."""

    def __init__(self, seed):
        self._rng = stream(42, UNIFORM)
        self._wait = np.random.default_rng(seed)

    def standard_normal(self, out):
        time.sleep(self._wait.uniform(0.0, 1e-3))
        self._rng.standard_normal(out=out)


def test_the_loop_agrees_under_frequent_switches(cubic_two_species, monkeypatch):
    # three callers, a hundred chunks each, each sharing its chunks with a
    # helper of its own: a lost update of the chunk order or of the stream
    # would change H
    fm = build_finite_model(cubic_two_species, 18)
    d = sample_disorder(fm, seed=41)
    blocks = montecarlo._blocks(fm)
    monkeypatch.setattr(montecarlo, "_CHUNK", 7)
    _helper(monkeypatch, False)
    expected = montecarlo._hamiltonians(d, stream(42, UNIFORM), 700, blocks)
    _helper(monkeypatch, True)
    results = [None] * 3

    def run(i):
        results[i] = montecarlo._hamiltonians(d, _Jittered(i), 700, blocks)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [h.tobytes() for h in results] == [expected.tobytes()] * len(results)


def test_the_helper_changes_no_estimate(cubic_two_species, monkeypatch):
    fm = build_finite_model(cubic_two_species, 18)
    d = sample_disorder(fm, seed=41)
    center = sample_uniform(fm, stream(43))

    def estimates():
        return (estimate_free_energy(fm, d, 0.4, 2500, seed=5),
                estimate_level_set(fm, d, 0.4, 0.1, 2500, seed=5),
                estimate_band_free_energy(fm, d, center, 0.2, 0.4, 2500, seed=5),
                montecarlo.band_probe(d, 5, PROBE_CENTER, [0.1, 0.3], 2500))

    _helper(monkeypatch, True)
    helped = estimates()
    _helper(monkeypatch, False)
    assert estimates() == helped


class _Chunks:
    """A generator that records which chunk it drew into each buffer and
    zeroes, in the last row of chunk j, the species block ``zero[j]``."""

    def __init__(self, zero):
        self._rng = stream(46)
        self._zero = zero
        self.drawn = 0
        self.chunk_of = {}

    def standard_normal(self, out):
        self._rng.standard_normal(out=out)
        if self.drawn in self._zero:
            out[-1, self._zero[self.drawn]] = 0.0
        self.chunk_of[out.ctypes.data] = self.drawn
        self.drawn += 1


# "slot-free": a helper starts; "slot-taken": the loop runs on one thread
@pytest.mark.parametrize("on", [True, False], ids=["slot-free", "slot-taken"])
def test_the_earliest_chunk_error_is_raised_and_nothing_after_it_contracted(
        on, cubic_two_species, monkeypatch):
    _helper(monkeypatch, on)
    monkeypatch.setattr(montecarlo, "_CHUNK", 64)
    fm = build_finite_model(cubic_two_species, 18)
    d = sample_disorder(fm, seed=41)
    k = 5
    rng = _Chunks({k: fm.block_slices[0], k + 1: fm.block_slices[1]})
    contracted = []
    place, contract = montecarlo._place, montecarlo._contract

    def late_place(rows, blocks):
        # chunk k's error is seen last, so the earliest chunk's error, not
        # the first one seen, must be the one raised
        if rng.chunk_of[rows.ctypes.data] == k:
            time.sleep(0.05)
        return place(rows, blocks)

    def watch(fm, tensors, sigmas):
        contracted.append(rng.chunk_of[sigmas.ctypes.data])
        return contract(fm, tensors, sigmas)

    monkeypatch.setattr(montecarlo, "_place", late_place)
    monkeypatch.setattr(montecarlo, "_contract", watch)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="species block 0 "):
        montecarlo._hamiltonians(d, rng, 20 * 64, montecarlo._blocks(fm))
    assert sorted(contracted) == list(range(k))
    assert rng.drawn <= k + 2
    assert threading.active_count() == before


@pytest.mark.parametrize("on", [True, False], ids=["slot-free", "slot-taken"])
def test_a_chunk_error_stops_the_other_thread(on, cubic_two_species, monkeypatch):
    # only chunk k fails, and chunk k+1's contraction is slow, so the error
    # is kept before the thread holding chunk k+1 looks for its next chunk
    _helper(monkeypatch, on)
    monkeypatch.setattr(montecarlo, "_CHUNK", 64)
    fm = build_finite_model(cubic_two_species, 18)
    d = sample_disorder(fm, seed=41)
    k = 5
    rng = _Chunks({k: fm.block_slices[0]})
    contracted = []
    contract = montecarlo._contract

    def slow_contract(fm, tensors, sigmas):
        contracted.append(rng.chunk_of[sigmas.ctypes.data])
        if contracted[-1] == k + 1:
            time.sleep(0.05)
        return contract(fm, tensors, sigmas)

    monkeypatch.setattr(montecarlo, "_contract", slow_contract)
    with pytest.raises(FloatingPointError, match="species block 0 "):
        montecarlo._hamiltonians(d, rng, 20 * 64, montecarlo._blocks(fm))
    assert set(range(k)) <= set(contracted) <= set(range(k + 2))
    assert rng.drawn <= k + 2


def test_the_helper_calls_no_public_function(sk, monkeypatch):
    # the bench traces every public function of these modules and Mixture's
    # methods, and a traced span must not open on a second thread
    from spinmix import rng as rng_module

    _helper(monkeypatch, True)
    fm = build_finite_model(sk, 18)
    d = sample_disorder(fm, seed=41)
    center = sample_uniform(fm, stream(43))
    public = [(montecarlo, name) for name in montecarlo.__all__
              if inspect.isfunction(getattr(montecarlo, name))]
    public += [(rng_module, name) for name in rng_module.__all__
               if inspect.isfunction(getattr(rng_module, name))]
    public += [(Mixture, name) for name, fn in vars(Mixture).items()
               if not name.startswith("_") and inspect.isfunction(fn)]
    idents, _ = watched(monkeypatch, *public)
    # the first contraction of each thread waits for the other's, so the
    # helper is sure to take a chunk
    meet = threading.Barrier(2, timeout=30)
    threads = set()
    contract = montecarlo._contract

    def contract_both(fm, tensors, sigmas):
        # a chunk, not band_probe's center
        if len(sigmas) > 1 and threading.get_ident() not in threads:
            threads.add(threading.get_ident())
            meet.wait()
        return contract(fm, tensors, sigmas)

    monkeypatch.setattr(montecarlo, "_contract", contract_both)
    for estimate in (lambda: estimate_free_energy(fm, d, 0.4, 2500, seed=5),
                     lambda: estimate_level_set(fm, d, 0.4, 0.1, 2500, seed=5),
                     lambda: estimate_band_free_energy(fm, d, center, 0.2, 0.4, 2500, seed=5),
                     lambda: montecarlo.band_probe(d, 5, PROBE_CENTER, [0.1, 0.3], 2500)):
        threads.clear()  # a thread's ident may be reused by a later one
        estimate()
        assert len(threads) == 2
    assert set().union(*idents.values()) == {threading.get_ident()}


@pytest.mark.parametrize("environ, cpus, spare", [
    ({}, 1, 0), ({}, 2, 0), ({}, 64, 0),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 8, 1),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2, 0),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, 0),
    ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2, 1),
    ({"OMP_NUM_THREADS": "1"}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1, 0),
    ({"OPENBLAS_NUM_THREADS": "one", "OMP_NUM_THREADS": "1"}, 2, 1),
    # read as C's atoi reads them: the leading integer, else 0
    ({"OPENBLAS_NUM_THREADS": "1.5"}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "1x", "OMP_NUM_THREADS": "2"}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": " +1"}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "2.5", "OMP_NUM_THREADS": "1"}, 2, 0),
    ({"OPENBLAS_NUM_THREADS": ".5", "OMP_NUM_THREADS": "2"}, 2, 0),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 2, 0),
    ({"OPENBLAS_NUM_THREADS": "-1"}, 2, 0),
    ({"OPENBLAS_NUM_THREADS": ""}, 2, 0),
])
def test_spare_cores_follow_openblas_thread_count(environ, cpus, spare):
    assert montecarlo._spare_cores(environ, cpus) == spare


def test_concurrent_estimates_each_start_their_own_helper(cubic_two_species, monkeypatch):
    # three callers of several chunks each are inside the loop at once:
    # each starts a helper of its own, none waits for another's, and each
    # gets the bits of the one-thread loop
    fm = build_finite_model(cubic_two_species, 18)
    d = sample_disorder(fm, seed=41)
    blocks = montecarlo._blocks(fm)
    monkeypatch.setattr(montecarlo, "_CHUNK", 7)
    _helper(monkeypatch, False)
    expected = montecarlo._hamiltonians(d, stream(42, UNIFORM), 70, blocks)
    _helper(monkeypatch, True)
    results, callers, waiting = [None] * 3, [None] * 3, set()
    # each caller's first contraction waits for the other callers', and a
    # helper contracts only once all three have met, so no helper takes
    # every chunk of its caller and the three loops overlap
    meet, met = threading.Barrier(len(results), timeout=30), threading.Event()
    contract = montecarlo._contract

    def contract_when_met(fm, tensors, sigmas):
        if threading.get_ident() in waiting:
            waiting.discard(threading.get_ident())
            meet.wait()
            met.set()
        assert met.wait(timeout=30)
        return contract(fm, tensors, sigmas)

    monkeypatch.setattr(montecarlo, "_contract", contract_when_met)
    helpers, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: (
        helpers.append(threading.get_ident()) if self.name == "spinmix-chunks" else None,
        start(self))[1])

    def run(i):
        callers[i] = threading.get_ident()
        waiting.add(callers[i])
        results[i] = montecarlo._hamiltonians(d, stream(42, UNIFORM), 70, blocks)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(results))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert sorted(helpers) == sorted(callers)
    assert [h.tobytes() for h in results] == [expected.tobytes()] * len(results)
    # an estimate of one chunk starts none
    helpers.clear()
    montecarlo._hamiltonians(d, stream(42, UNIFORM), montecarlo._CHUNK, blocks)
    assert helpers == []


_HELPER_RUN = """
import threading
import spinmix

started = []
start = threading.Thread.start
threading.Thread.start = lambda self: (started.append(self.name), start(self))[1]
fm = spinmix.build_finite_model(spinmix.sk_model(), 20)
d = spinmix.sample_disorder(fm, seed=1)
spinmix.estimate_free_energy(fm, d, 0.4, 4096, seed=1)
print(len(started), threading.active_count())
"""


@pytest.mark.parametrize("blas, helpers", [("1", 1), (None, 0)],
                         ids=["one-blas-thread", "blas-threads-unset"])
def test_a_fresh_estimate_starts_a_helper_only_beside_pinned_blas(blas, helpers):
    if blas is not None and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two CPUs")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    env["PYTHONPATH"] = str(Path(montecarlo.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", _HELPER_RUN], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.split() == [str(helpers), "1"]


def _draws_per_chunk(fm) -> int:
    per_draw = sum(map(math.prod, montecarlo._tensor_shapes(fm)))
    return max(1, montecarlo._DRAW_BUDGET // per_draw)


@pytest.mark.parametrize("case", ["cubic_two_species", "pure4"])
def test_batched_disorder_draws_match_each_draw_alone(case, cubic_two_species, pure4,
                                                       monkeypatch):
    # the empirical covariance's draws, drawn and contracted a chunk of draws
    # at a time (three chunks of at most two draws under a forced small
    # budget), against one all-at-once draw of the same per-term streams, and
    # each draw's H against that draw's tensors contracted alone
    fm = build_finite_model({"cubic_two_species": cubic_two_species, "pure4": pure4}[case], 24)
    rng = stream(44)
    pair = np.stack([sample_uniform(fm, rng), sample_uniform(fm, rng)])
    shapes = montecarlo._tensor_shapes(fm)
    monkeypatch.setattr(montecarlo, "_DRAW_BUDGET", 2 * sum(map(math.prod, shapes)))
    assert _draws_per_chunk(fm) == 2
    n = 5
    h = montecarlo._disorder_hamiltonians(fm, 5, 7, n, pair)
    tensors = tuple(stream(5, 7, t).standard_normal((n,) + shape)
                    for t, shape in enumerate(shapes))
    assert np.array_equal(h, montecarlo._contract(fm, tensors, pair))
    for j, (ha, hb) in enumerate(h):
        alone = montecarlo._contract(fm, tuple(t[j : j + 1] for t in tensors), pair)[0]
        assert np.array_equal([ha, hb], alone)
        assert ha * hb == np.prod(alone)


def test_batched_disorder_memory_is_bounded(pure4):
    # a pure p = 4 draw at N = 24 is 24^4 scalars (2.7 MB), over the draw
    # budget, so a chunk holds one draw; the 12 draws at once would be 32 MB
    fm = build_finite_model(pure4, 24)
    assert _draws_per_chunk(fm) == 1
    rng = stream(45)
    pair = np.stack([sample_uniform(fm, rng), sample_uniform(fm, rng)])
    tracemalloc.start()
    try:
        montecarlo._disorder_hamiltonians(fm, 5, 7, 12, pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 24**4 * 8


# ----------------------------------------------------------------------
# band sampling


def test_band_overlap_exact(cubic_two_species):
    fm = build_finite_model(cubic_two_species, 33)
    center = sample_uniform(fm, stream(15))
    r = np.array([0.35, 0.6])
    rng = stream(16)
    for _ in range(5):
        point = sample_on_band(fm, center, r, rng)
        montecarlo.validate_configuration(fm, point)
        assert overlap(fm, center, point) == pytest.approx(r, abs=1e-9)


def test_band_r_zero_is_orthogonal(cubic_two_species):
    fm = build_finite_model(cubic_two_species, 33)
    center = sample_uniform(fm, stream(17))
    point = sample_on_band(fm, center, np.zeros(2), stream(18))
    assert overlap(fm, center, point) == pytest.approx(np.zeros(2), abs=1e-12)


def test_band_overlaps_off_the_center_follow_the_sphere_law():
    # a band point's part orthogonal to the center, (x - r c) / sqrt(1 - r^2),
    # is uniform on the (n_s - 1)-sphere orthogonal to c; its overlap with a
    # fixed direction u there follows the overlap law with d = n_s - 1
    fm = _unequal_blocks()
    center, r = np.ones(fm.N), np.array([0.35, 0.6])
    rows = stream(12, BAND).standard_normal((_KS_ROWS, fm.N))
    montecarlo._place(rows, montecarlo._blocks(fm, center, r))
    for s, (sl, n_s) in enumerate(zip(fm.block_slices, fm.block_sizes)):
        u = np.zeros(n_s)
        u[:2] = [math.sqrt(0.5), -math.sqrt(0.5)]  # a unit vector orthogonal to ones
        orthogonal = (rows[:, sl] - r[s] * center[sl]) / math.sqrt(1.0 - r[s] * r[s])
        assert not _ks_rejects(orthogonal @ u / math.sqrt(n_s), n_s - 1)


def test_band_rejects_bad_overlap(cubic_two_species):
    fm = build_finite_model(cubic_two_species, 33)
    center = sample_uniform(fm, stream(19))
    with pytest.raises(ValueError):
        sample_on_band(fm, center, np.array([0.2, 1.0]), stream(20))


def test_band_conditional_mean(cubic_two_species):
    # E[H(point) | H(center)] = (xi(r)/xi(1)) H(center): average the
    # residual over disorder draws
    fm = build_finite_model(cubic_two_species, 24)
    center = sample_uniform(fm, stream(21))
    r = np.array([0.3, 0.45])
    eta = cubic_two_species.mixture.eval(r) / cubic_two_species.xi1()
    resid = []
    for s in range(200):
        d = sample_disorder(fm, seed=10_000 + s)
        pts = np.stack([sample_on_band(fm, center, r, stream(22, s, j)) for j in range(30)])
        resid.append(evaluate_H_batch(d, pts).mean() - eta * evaluate_H(d, center))
    resid = np.array(resid)
    assert abs(resid.mean()) <= 5.0 * resid.std(ddof=1) / math.sqrt(len(resid))


# ----------------------------------------------------------------------
# estimators


def test_free_energy_zero_beta_is_exactly_zero(sk):
    fm = build_finite_model(sk, 30)
    d = sample_disorder(fm, seed=1)
    assert estimate_free_energy(fm, d, 0.0, 500, seed=1).estimate == 0.0


def test_free_energy_reproducible(sk):
    fm = build_finite_model(sk, 30)
    d = sample_disorder(fm, seed=1)
    a = estimate_free_energy(fm, d, 0.4, 2000, seed=5)
    b = estimate_free_energy(fm, d, 0.4, 2000, seed=5)
    assert a == b
    c = estimate_free_energy(fm, d, 0.4, 2000, seed=6)
    assert c.estimate != a.estimate


def test_free_energy_monotone_in_beta(sk):
    fm = build_finite_model(sk, 40)
    d = sample_disorder(fm, seed=2)
    vals = [estimate_free_energy(fm, d, b, 4000, seed=3) for b in (0.1, 0.2, 0.3)]
    for lo, hi in zip(vals, vals[1:]):
        assert hi.estimate >= lo.estimate - 3.0 * (lo.std_error + hi.std_error)


def test_free_energy_requires_enough_samples(sk, cubic_two_species):
    # the estimators check their inputs once, before any draw
    fm = build_finite_model(sk, 30)
    d = sample_disorder(fm, seed=1)
    center = sample_uniform(fm, stream(26))
    with pytest.raises(ValueError):
        estimate_free_energy(fm, d, 0.4, 50, seed=5)
    with pytest.raises(ValueError):
        estimate_level_set(fm, d, 0.4, 0.1, 50, seed=5)
    with pytest.raises(ValueError):
        estimate_band_free_energy(fm, d, center, 0.2, 0.4, 50, seed=5)
    with pytest.raises(ValueError):
        estimate_band_free_energy(fm, d, 1.01 * center, 0.2, 0.4, 500, seed=5)
    fm2 = build_finite_model(cubic_two_species, 24)
    d2 = sample_disorder(fm2, seed=1)
    center2 = sample_uniform(fm2, stream(27))
    with pytest.raises(ValueError):
        estimate_band_free_energy(fm2, d2, center2, np.array([0.2, 1.0]), 0.4, 500, seed=5)
    # a finite model that is not the disorder's, compared by value
    with pytest.raises(ValueError, match="disorder"):
        estimate_free_energy(fm2, d, 0.4, 500, seed=5)
    with pytest.raises(ValueError, match="disorder"):
        estimate_level_set(build_finite_model(sk, 31), d, 0.4, 0.1, 500, seed=5)
    with pytest.raises(ValueError, match="disorder"):
        estimate_band_free_energy(fm, d2, center, 0.2, 0.4, 500, seed=5)
    same = estimate_free_energy(build_finite_model(sk, 30), d, -0.4, 500, seed=5)
    assert same == estimate_free_energy(fm, d, -0.4, 500, seed=5)
    # non-finite beta and epsilon
    nan = float("nan")
    with pytest.raises(ValueError, match="beta"):
        estimate_free_energy(fm, d, nan, 500, seed=5)
    with pytest.raises(ValueError, match="beta"):
        estimate_band_free_energy(fm, d, center, 0.2, math.inf, 500, seed=5)
    with pytest.raises(ValueError, match="beta"):
        band_prediction(fm, nan, 0.2, 1.0)
    with pytest.raises(ValueError, match="beta"):
        montecarlo.band_probe(d, 5, PROBE_CENTER, [0.1, nan], 500)
    with pytest.raises(ValueError):
        montecarlo.band_probe(d, 5, PROBE_CENTER, [0.1], 50)
    # more samples than the scalar budget are refused before any allocation
    with pytest.raises(ValueError, match="budget"):
        estimate_free_energy(fm, d, 0.4, montecarlo.TENSOR_BUDGET + 1, seed=5)
    for epsilon in (0.0, nan, math.inf):
        with pytest.raises(ValueError, match="epsilon"):
            estimate_level_set(fm, d, 0.4, epsilon, 500, seed=5)


def test_level_set_zero_beta_near_full_measure(sk):
    fm = build_finite_model(sk, 60)
    d = sample_disorder(fm, seed=4)
    res = estimate_level_set(fm, d, 0.0, 0.2, 4000, seed=4)
    assert res.n_hits > 3500
    assert abs(res.estimate) <= 0.01


def test_level_set_hits_decrease_with_epsilon(sk):
    fm = build_finite_model(sk, 40)
    d = sample_disorder(fm, seed=5)
    hits = [
        estimate_level_set(fm, d, 0.3, eps, 4000, seed=5).n_hits
        for eps in (0.3, 0.1, 0.05)
    ]
    assert hits[0] >= hits[1] >= hits[2]


def test_level_set_zero_hits_reported(sk):
    fm = build_finite_model(sk, 40)
    d = sample_disorder(fm, seed=6)
    res = estimate_level_set(fm, d, 2.5, 1e-9, 500, seed=6)
    assert res.n_hits == 0
    assert res.estimate == float("-inf")


def test_band_free_energy_zero_beta(sk):
    fm = build_finite_model(sk, 30)
    d = sample_disorder(fm, seed=7)
    center = sample_uniform(fm, stream(23))
    assert estimate_band_free_energy(fm, d, center, 0.0, 0.0, 500, seed=7).estimate == 0.0


def test_band_r_zero_matches_full_free_energy(sk):
    fm = build_finite_model(sk, 40)
    d = sample_disorder(fm, seed=8)
    center = sample_uniform(fm, stream(24))
    band = estimate_band_free_energy(fm, d, center, 0.0, 0.35, 4000, seed=8)
    full = estimate_free_energy(fm, d, 0.35, 4000, seed=8)
    # codimension-1 spheres differ from the full product by O(1/N)
    assert abs(band.estimate - full.estimate) <= 0.02


def test_band_residual_shrinks_toward_r_zero(sk):
    fm = build_finite_model(sk, 40)
    d = sample_disorder(fm, seed=9)
    center = sample_uniform(fm, stream(25))
    h_center = evaluate_H(d, center)
    beta = 0.35

    def baselined(rv):
        est = estimate_band_free_energy(fm, d, center, rv, beta, 4000, seed=9)
        return est.estimate - band_prediction(fm, beta, rv, h_center)

    base = baselined(0.0)
    dev_big = abs(baselined(0.45) - base)
    dev_small = abs(baselined(0.05) - base)
    assert dev_small <= dev_big + 0.005


def test_band_prediction_formula(sk):
    fm = build_finite_model(sk, 40)
    # xi(r)/xi(1) = r^2 for the quadratic mixture
    val = band_prediction(fm, 0.5, np.array([0.2]), h_center=8.0)
    assert val == pytest.approx(0.5 * 0.04 * 8.0 / 40.0 + 0.5 * 0.25, abs=1e-15)


def test_band_prediction_requires_positive_xi1():
    zero = ModelSpec(SpeciesSet(("a",), np.array([1.0])), Mixture.from_terms(("a",), {(2,): 0.0}))
    with pytest.raises(ValueError, match=r"xi\(1\) > 0"):
        band_prediction(build_finite_model(zero, 40), 0.5, np.array([0.2]), h_center=0.0)


def test_estimator_record_embeds_run_context(sk):
    from spinmix.model import model_hash

    fm = build_finite_model(sk, 30)
    d = sample_disorder(fm, seed=1)
    res = estimate_free_energy(fm, d, 0.2, 500, seed=11)
    rec = montecarlo.estimator_record(fm, res)
    assert rec["N"] == 30
    assert rec["block_sizes"] == [30]
    assert rec["model_hash"] == model_hash(sk)
    assert rec["seed"] == 11
    assert rec["estimate"] == res.estimate
