"""Tests of the benchmark itself: span arithmetic, output checks, inputs."""

import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import units  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, Inputs, Job  # noqa: E402

import spinmix  # noqa: E402


class FakeClock:
    """Returns the queued instants in order."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


def test_self_times_on_synthetic_tree():
    #   0 job [0, 10]
    #   +- 1 verdict [1, 6]
    #   |  +- 2 maximize [2, 3]
    #   |  +- 3 maximize [3.5, 5]
    #   +- 4 eval [7, 9]
    start = [0.0, 1.0, 2.0, 3.5, 7.0]
    end = [10.0, 6.0, 3.0, 5.0, 9.0]
    parent = [-1, 0, 1, 1, 0]
    assert tracing.self_times(start, end, parent).tolist() == pytest.approx(
        [10 - 5 - 2, 5 - 1 - 1.5, 1.0, 1.5, 2.0])


def test_layer_metrics_from_recorded_spans():
    t = tracing.Tracer(clock=FakeClock(0.0, 1.0, 2.0, 3.0, 3.5, 5.0, 6.0, 7.0, 9.0, 10.0))
    t.job_id = 0
    job = t.open("bench.job")
    verdict = t.open("criticality.verdict")
    for _ in range(2):
        t.close(t.open("landscape.maximize_f"))
    t.close(verdict)
    t.close(t.open("mixture.eval"))
    t.close(job)
    m = tracing.layer_metrics(t, jobs={0})
    assert m["bench.self_s"] == pytest.approx(3.0)
    assert m["criticality.self_s"] == pytest.approx(2.5)
    assert m["landscape.maximize_self_s"] == pytest.approx(2.5)
    assert m["mixture.self_s"] == pytest.approx(2.0)
    assert m["criticality.maximize_per_report"] == 2
    assert m["mixture.calls"] == 1
    assert m["trace.spans"] == 5
    # spans of jobs outside the selection are not counted
    assert tracing.layer_metrics(t, jobs={1})["trace.spans"] == 0


def test_tracing_rebinds_and_restores_without_changing_results():
    model = spinmix.sk_model()
    before = spinmix.landscape.maximize_f(model, 0.5)
    originals = (spinmix.landscape.maximize_f, spinmix.criticality.maximize_f,
                 spinmix.Mixture.eval)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, spinmix)
    try:
        assert spinmix.criticality.maximize_f is spinmix.landscape.maximize_f
        assert spinmix.criticality.maximize_f is not originals[1]
        during = spinmix.landscape.maximize_f(model, 0.5)
    finally:
        tracing.uninstall(undo)
    assert (spinmix.landscape.maximize_f, spinmix.criticality.maximize_f,
            spinmix.Mixture.eval) == originals
    assert during.value == before.value and np.array_equal(during.argmax, before.argmax)
    m = tracing.layer_metrics(tracer, jobs={tracing.SETUP_JOB})
    assert m["landscape.maximize_calls"] == 1
    assert m["landscape.fun_evals"] == before.fun_evals
    assert m["mixture.calls"] > 0


def test_pass_wall_leaves_out_host_speed_sampling(tmp_path):
    job = Job("sleep", lambda outdir: time.sleep(0.05), lambda outdir, raw: {}, lambda out: [])
    p = worker.run_pass([job] * 3, tmp_path / "pass", sample_speed=True)
    assert len(p.kernel) >= 3
    assert p.wall == pytest.approx(sum(p.times), abs=0.01)
    assert hostspeed.scale(p.kernel) == pytest.approx(
        hostspeed.NOMINAL_S / statistics.fmean(p.kernel))


def test_traced_metrics_are_the_per_layer_list():
    tracer = tracing.Tracer()
    empty = worker.Pass(wall=1.0, times=[], outputs=[], kernel=[])
    m = worker.traced_metrics(tracer, 0, [empty], [empty])
    assert set(m) == set(units.PER_LAYER)


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == units.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == units.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)


def _critical_output(**report) -> dict:
    base = {"beta_m": 1 / math.sqrt(2), "beta_m_tilde": 1 / math.sqrt(2),
            "beta_H": 1 / math.sqrt(2), "verdict": "EQUAL", "beta_c": 1 / math.sqrt(2)}
    base.update(report)
    return {"code": 0, "stdout": "", "files": {".json": json.dumps(base)}}


def test_check_flags_perturbed_sk_threshold():
    sk = json.loads((ROOT / "models" / "sk.json").read_text())
    expect = {"beta_m": checks.SQRT_HALF, "tol": checks.TOL_FIXTURE, "verdict": "EQUAL",
              "beta_c_is_beta_m": True}
    assert checks.critical(_critical_output(), sk, expect) == []
    off = checks.SQRT_HALF + 1e-4
    assert checks.critical(_critical_output(beta_m=off, beta_c=off), sk, expect) == [
        "critical.beta_m"]
    assert "critical.verdict" in checks.critical(
        _critical_output(verdict="STRICTLY_LESS", beta_c=None), sk, expect)


def test_reference_thresholds_match_closed_forms():
    sk = json.loads((ROOT / "models" / "sk.json").read_text())
    assert ref.one_species_beta_m(sk) == pytest.approx(checks.SQRT_HALF, abs=1e-12)
    assert ref.beta_H(sk) == pytest.approx(checks.SQRT_HALF, abs=1e-15)
    quad = json.loads((ROOT / "models" / "two_species_quadratic.json").read_text())
    assert ref.beta_m_estimate(quad) == pytest.approx(1 / math.sqrt(6), abs=1e-12)
    for p in (3, 4):
        pure = json.loads((ROOT / "models" / f"pure{p}.json").read_text())
        assert ref.one_species_beta_m(pure) == pytest.approx(ref.pure_beta_m(p), abs=1e-8)
        assert ref.one_species_beta_c(pure) == pytest.approx(ref.pure_beta_c(p), abs=1e-8)
        assert ref.pure_beta_m(p) < ref.pure_beta_c(p)


def test_check_flags_perturbed_second_moment_and_scan():
    assert checks.second_moment({"value": "0.0"}, 0.0, 1.0) == []
    assert checks.second_moment({"value": "2e-8"}, 0.0, 1.0) == ["second_moment.zero_at_beta0"]
    assert checks.second_moment({"value": "0.25"}, 0.5, 1.0) == []
    assert checks.second_moment({"value": "0.2"}, 0.5, 1.0) == ["second_moment.jensen_bound"]
    sk = json.loads((ROOT / "models" / "sk.json").read_text())
    r = 0.3
    value = float(ref.f_plain(sk, 0.8, [r]))
    row = f"0.8,{value!r},{r!r},{ref.lambda_max_M(sk, 0.8)!r},{value!r}"
    out = {"code": 0, "stdout": "", "files": {".csv": "# stamp\nheader\n" + row + "\n"}}
    probes = np.array([[0.1], [0.2]])
    assert checks.scan(out, sk, [0.8], probes) == []
    assert "scan.max_f_below_probe" in checks.scan(out, sk, [0.8], np.array([[0.5]]))


def _build(name, seed, tmp_path):
    scratch = tmp_path / f"seed{seed}"
    scratch.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(seed, spinmix, ROOT, scratch)
    return [job.name for job in WORKLOADS[name].build(inputs)], json.dumps(inputs.drawn)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_changes_inputs_not_job_count(name, tmp_path):
    jobs1, drawn1 = _build(name, 1, tmp_path)
    jobs2, drawn2 = _build(name, 2, tmp_path)
    assert jobs1 == jobs2 and len(set(jobs1)) == len(jobs1)
    assert drawn1 != drawn2
    assert _build(name, 1, tmp_path / "again")[1] == drawn1
