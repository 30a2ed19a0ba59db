"""The verify battery on the calling thread, in its serial order, and its
Gram-matrix covariance check: its level on the fixtures and its power
against a wrong variance, a dropped term and a wrong species block."""

import math
import sys
import threading

import numpy as np
import pytest

from spinmix import Mixture, ModelSpec, SpeciesSet, load_model, montecarlo
from spinmix import pure_model, quadrature, sk_model
from spinmix import verify

from conftest import MODELS_DIR, watched

_ARGS = {"N": 20, "n_samples": 400, "seed": 3}


def _serial(model, *, N, n_samples, seed):
    """The battery's stages called one after another in their serial order."""
    fm = montecarlo.build_finite_model(model, N)
    disorder = montecarlo.sample_disorder(fm, seed=seed)
    covariance = [verify._covariance_spot_checks(seed), verify._empirical_covariance(model, seed)]
    checks, table, records = verify._estimates(disorder, n_samples, seed)
    return verify.VerifyRun(tuple(covariance + checks), tuple(table), records)


def test_the_run_is_the_same_whatever_the_schedule():
    # the run is its stages called one after another, in the serial order
    model = sk_model()
    run = verify.run_verify(model, **_ARGS)
    assert run == _serial(model, **_ARGS)
    assert [c.name for c in run.checks] == [
        "covariance-two-route", "empirical-covariance", "free-energy", "level-set",
        "band-free-energy", "second-moment-zero", "second-moment-shrinking", "determinism"]


def test_concurrent_runs_on_one_model_agree_under_frequent_switches():
    # every caller shares the model's caches, filled on first use
    # (xi(1), the mixture's kernel tables): racing fills must change no bit
    expected = _serial(sk_model(), **_ARGS)
    model = sk_model()
    results = [None] * 3

    def run(i):
        results[i] = verify.run_verify(model, **_ARGS)

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
    assert results == [expected] * len(results)


def _raising(module, name, message, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError(message)

    monkeypatch.setattr(module, name, fail)


@pytest.mark.parametrize("module, name, message", [
    (verify, "_covariance_spot_checks", "worker"),
    (quadrature, "log_E_Z2_exact", "caller"),
], ids=["worker", "caller"])
def test_one_thread_raising_is_raised(module, name, message, monkeypatch):
    _raising(module, name, message, monkeypatch)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=message):
        verify.run_verify(sk_model(), **_ARGS)
    assert threading.active_count() == before


@pytest.mark.parametrize("model", [sk_model(), pure_model(3)], ids=["sk", "pure3"])
def test_traced_and_warning_code_stays_on_the_calling_thread(model, monkeypatch):
    # the contraction and the quadrature hold the bench's allocation spans,
    # which start and stop tracemalloc, and _free_energy is where an
    # estimator warns: all of them run on the calling thread
    idents, _ = watched(monkeypatch, (montecarlo, "evaluate_H"),
                        (montecarlo, "evaluate_H_batch"), (quadrature, "log_E_Z2_exact"),
                        (montecarlo, "_free_energy"))
    verify.run_verify(model, N=12, n_samples=200, seed=5)
    assert idents == dict.fromkeys(
        ["evaluate_H", "evaluate_H_batch", "log_E_Z2_exact", "_free_energy"],
        {threading.get_ident()})


def test_the_battery_starts_no_thread_but_an_estimates_helper(monkeypatch):
    # with the helper switched on and estimates of several chunks, the only
    # thread started is the helper of montecarlo._hamiltonians
    monkeypatch.setattr(montecarlo, "_HELPER", True)
    monkeypatch.setattr(montecarlo, "_CHUNK", 64)
    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: (started.append(self.name), start(self))[1])
    verify.run_verify(sk_model(), **_ARGS)
    assert started and set(started) == {"spinmix-chunks"}


_FIXTURES = ["sk", "pure3", "pure4", "two_species_quadratic"]


def _fixture(name):
    return load_model(MODELS_DIR / f"{name}.json")


@pytest.mark.parametrize("name", _FIXTURES)
@pytest.mark.parametrize("seed", [1, 2])
def test_the_covariance_check_passes_on_the_fixtures(name, seed):
    model = _fixture(name)
    check = verify._empirical_covariance(model, seed)
    assert check.passed and check.observed <= check.bound == verify._COVARIANCE_Z
    statistics = 1 + model.mixture.n_terms if model.mixture.n_terms > 1 else 1
    assert f"rank {verify._COVARIANCE_CONFIGS}: z " in check.detail
    assert len(check.detail.split(": z ")[1].split()) == statistics


def _variance(model, monkeypatch):
    # every tensor's variance 5% too large
    prefactor = montecarlo._term_prefactor
    monkeypatch.setattr(montecarlo, "_term_prefactor",
                        lambda c, d, fm: math.sqrt(1.05) * prefactor(c, d, fm))


def _dropped_term(model, monkeypatch):
    # the last term contributes nothing
    prefactor, last = montecarlo._term_prefactor, model.mixture.exponents[-1]
    monkeypatch.setattr(montecarlo, "_term_prefactor",
                        lambda c, d, fm: 0.0 if np.array_equal(d, last) else prefactor(c, d, fm))


def _species_block(model, monkeypatch):
    # each assignment's first mode reads the next species' block
    assignments, S = montecarlo._assignments, model.n_species
    monkeypatch.setattr(montecarlo, "_assignments",
                        lambda d: [((a[0] + 1) % S,) + a[1:] for a in assignments(d)])


# a model of one species has no other block to read
_ERRORS = [(name, error) for name in _FIXTURES for error in (_variance, _dropped_term)] + [
    ("two_species_quadratic", _species_block), ("cubic_two_species", _species_block)]


@pytest.mark.parametrize("name, error", _ERRORS,
                         ids=[f"{name}-{error.__name__[1:]}" for name, error in _ERRORS])
@pytest.mark.parametrize("seed", [1, 2])
def test_the_covariance_check_fails_under_each_error(name, error, seed, cubic_two_species,
                                                     monkeypatch):
    model = cubic_two_species if name == "cubic_two_species" else _fixture(name)
    error(model, monkeypatch)
    check = verify._empirical_covariance(model, seed)
    assert not check.passed and check.observed > check.bound


def test_the_covariance_check_whitens_a_field_of_low_rank():
    # a lone r_a r_b term with blocks of 3 and 6 has a field of rank 18 at
    # N = 9, below the 40 configurations: S is whitened on its range
    model = ModelSpec(SpeciesSet(("a", "b"), np.array([1 / 3, 2 / 3])),
                      Mixture.from_terms(("a", "b"), {(1, 1): 1.0}))
    assert montecarlo.build_finite_model(model, verify._COVARIANCE_N).block_sizes == (3, 6)
    check = verify._empirical_covariance(model, 3)
    assert check.passed
    assert "rank 18: z " in check.detail


def test_a_term_on_another_species_block_fails_by_its_own_statistic(monkeypatch):
    # three equal species with one square term each: contracting a's term on
    # b's block keeps the whole variance (each block holds the same field),
    # so only the per-term statistics see it
    names = ("a", "b", "c")
    model = ModelSpec(SpeciesSet(names, np.full(3, 1 / 3)), Mixture.from_terms(
        names, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0}))
    assert verify._empirical_covariance(model, 1).passed
    assignments = montecarlo._assignments
    monkeypatch.setattr(montecarlo, "_assignments",
                        lambda d: [(1, 1)] if tuple(d) == (2, 0, 0) else assignments(d))
    check = verify._empirical_covariance(model, 1)
    whole, *terms = map(float, check.detail.split(": z ")[1].split())
    assert abs(whole) <= verify._COVARIANCE_Z < max(map(abs, terms))
    assert not check.passed
