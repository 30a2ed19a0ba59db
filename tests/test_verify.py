"""The verify battery's two threads: the covariance checks on one worker,
everything else on the calling thread, joined in the serial order."""

import contextlib
import sys
import threading
import time

import pytest

from spinmix import criticality, montecarlo, pure_model, quadrature, sk_model
from spinmix import verify

from conftest import watched

_ARGS = {"N": 20, "n_samples": 400, "seed": 3}


def _serial(model, *, N, n_samples, seed):
    """The battery's stages called one after another in their serial order."""
    fm = montecarlo.build_finite_model(model, N)
    disorder = montecarlo.sample_disorder(fm, seed=seed)
    covariance = [verify._covariance_spot_checks(seed), verify._empirical_covariance(model, seed)]
    checks, table, records = verify._estimates(disorder, n_samples, seed)
    return verify.VerifyRun(tuple(covariance + checks), tuple(table), records)


def _slowed(module, name, monkeypatch, seconds=0.05):
    original = getattr(module, name)

    def slow(*args, **kwargs):
        time.sleep(seconds)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, slow)


def test_the_run_is_the_same_whatever_the_schedule(monkeypatch):
    model = sk_model()
    with monkeypatch.context() as m:  # the worker's checks end last
        _slowed(verify, "_covariance_spot_checks", m)
        _slowed(verify, "_empirical_covariance", m)
        worker_late = verify.run_verify(model, **_ARGS)
    with monkeypatch.context() as m:  # the calling thread's stages end last
        _slowed(criticality, "beta_m", m)
        _slowed(montecarlo, "estimate_free_energy", m)
        caller_late = verify.run_verify(model, **_ARGS)
    assert worker_late == caller_late == _serial(model, **_ARGS)
    assert [c.name for c in worker_late.checks] == [
        "covariance-two-route", "empirical-covariance", "free-energy", "level-set",
        "band-free-energy", "second-moment-zero", "second-moment-shrinking", "determinism"]


def test_concurrent_runs_on_one_model_agree_under_frequent_switches():
    # every caller and worker shares the model's caches, filled on first use
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


def _raising(module, name, message, monkeypatch, delay=0.0):
    def fail(*args, **kwargs):
        time.sleep(delay)
        raise RuntimeError(message)

    monkeypatch.setattr(module, name, fail)


@pytest.mark.parametrize("worker_delay, caller_delay", [(0.2, 0.0), (0.0, 0.2)],
                         ids=["caller-raises-first", "worker-raises-first"])
def test_the_worker_exception_wins_when_both_threads_raise(worker_delay, caller_delay,
                                                           monkeypatch):
    # serial order reaches the covariance checks before any later stage
    _raising(verify, "_empirical_covariance", "worker", monkeypatch, worker_delay)
    _raising(quadrature, "log_E_Z2_exact", "caller", monkeypatch, caller_delay)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="worker"):
        verify.run_verify(sk_model(), **_ARGS)
    assert threading.active_count() == before


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


@pytest.mark.parametrize("slot", [None, 1], ids=["slot-as-is", "slot-free"])
def test_one_worker_thread_runs_the_covariance_checks(slot, monkeypatch):
    # with the spare-core slot free the worker takes it, so no estimate of
    # several chunks adds a helper thread while the worker runs
    if slot is not None:
        monkeypatch.setattr(montecarlo, "_SPARE", threading.Semaphore(slot))
    monkeypatch.setattr(montecarlo, "_CHUNK", 64)
    before = threading.active_count()
    idents, counts = watched(
        monkeypatch, (verify, "_covariance_spot_checks"), (verify, "_empirical_covariance"),
        (criticality, "beta_m"), (montecarlo, "estimate_free_energy"),
        (quadrature, "log_E_Z2_exact"))
    slot_free, covariance = [], verify._empirical_covariance

    def holding(*args):
        free = montecarlo._SPARE.acquire(blocking=False)
        if free:
            montecarlo._SPARE.release()
        slot_free.append(free)
        return covariance(*args)

    monkeypatch.setattr(verify, "_empirical_covariance", holding)
    verify.run_verify(sk_model(), **_ARGS)
    assert threading.active_count() == before
    assert max(counts) <= before + 1
    assert slot_free == [False]  # the worker holds the slot, if there is one
    caller = {threading.get_ident()}
    assert idents["_covariance_spot_checks"] == idents["_empirical_covariance"] != caller
    assert idents["beta_m"] == idents["estimate_free_energy"] == idents["log_E_Z2_exact"] == caller
    if slot is not None:  # given back when the worker's checks ended
        assert montecarlo._SPARE.acquire(blocking=False)


def test_the_worker_tries_the_slot_before_any_estimate(monkeypatch):
    # a worker that starts late still takes the free slot first: the
    # estimates wait for its try, so no helper holds the slot before it
    monkeypatch.setattr(montecarlo, "_SPARE", threading.Semaphore(1))
    monkeypatch.setattr(montecarlo, "_CHUNK", 64)
    caller, holding, tries = threading.get_ident(), montecarlo._holding_spare, []

    @contextlib.contextmanager
    def late_worker():
        if threading.get_ident() != caller:
            time.sleep(0.2)
        with holding() as taken:
            tries.append((threading.get_ident() == caller, taken))
            yield taken

    monkeypatch.setattr(montecarlo, "_holding_spare", late_worker)
    verify.run_verify(sk_model(), **_ARGS)
    assert tries[0] == (False, True)
    assert len(tries) > 1  # the estimates' loops, after it
    assert montecarlo._SPARE.acquire(blocking=False)


@pytest.mark.parametrize("model", [sk_model(), pure_model(3)], ids=["sk", "pure3"])
def test_traced_and_warning_code_stays_on_the_calling_thread(model, monkeypatch):
    # the contraction and the quadrature hold the bench's allocation spans,
    # which start and stop tracemalloc, and _free_energy is where an
    # estimator warns: none of them may run on the worker thread
    idents, _ = watched(monkeypatch, (montecarlo, "evaluate_H"),
                        (montecarlo, "evaluate_H_batch"), (quadrature, "log_E_Z2_exact"),
                        (montecarlo, "_free_energy"))
    verify.run_verify(model, N=12, n_samples=200, seed=5)
    assert idents == dict.fromkeys(
        ["evaluate_H", "evaluate_H_batch", "log_E_Z2_exact", "_free_energy"],
        {threading.get_ident()})
