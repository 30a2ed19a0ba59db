#!/usr/bin/env python3
"""Write ``bench/baseline.json`` from the result files of a set of runs.

    for w in asymptotic mc_sampling mc_contraction second_moment; do
        for s in 1 2 3 4 5 6 7 8 9 10; do
            python3 bench/run.py --workload $w --seed $s --seconds 15 --trace 0
        done
        python3 bench/run.py --workload $w --seed 1 --seconds 15 --trace 1
    done
    python3 bench/baseline.py --seeds 1-10

Per workload: the median and quartiles (``statistics.quantiles(n=4)``) of
every end-to-end metric over the seeds, in reference seconds and raw, and
the per-layer figures of the traced run of the first seed.  Named numbers:
the SK ``critical`` job time against criterion 01's 1.0 s budget, and the
uncertified and unconverged shares of ``maximize_f`` calls on asymptotic.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402
from units import END_TO_END  # noqa: E402


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def _result(workload: str, seed: int, trace: int) -> dict:
    path = ROOT / ".bench_run" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def workload_baseline(name: str, seeds: list[int]) -> dict:
    runs = [_result(name, s, 0) for s in seeds]
    traced = _result(name, seeds[0], 1)
    out = {
        "end_to_end": {m: {"unit": unit, **quartiles([r["metrics"][m] for r in runs])}
                       for m, unit in END_TO_END.items()},
        "raw_s": {m: quartiles([r["raw"][m] for r in runs]) for m in runs[0]["raw"]},
        "kernel_mean_s": quartiles([r["kernel"]["mean_s"] for r in runs]),
        "passes": sorted({r["passes"] for r in runs}),
        "jobs_per_pass": runs[0]["jobs_per_pass"],
        "fail_ratio": f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}",
        "per_layer_seed": seeds[0],
        "per_layer": traced["metrics"],
        "traced_fail_ratio": f"{traced['failed']}/{traced['attempted']}",
    }
    if "mc_samples_per_s" in runs[0]:
        out["mc_samples_per_s"] = {"unit": "1/s", "at": runs[0]["mc_shape"],
                                   **quartiles([r["mc_samples_per_s"] for r in runs])}
    return out, runs, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10", help="first-last")
    args = ap.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(first, last + 1))

    doc = {
        "what": "For each workload, the median and quartiles over the seeds of `python3 "
                "bench/run.py --workload W --seed S --seconds 15 --trace 0`, and the "
                "per-layer figures of one traced run (`--trace 1`) of the first seed.",
        "units": "End-to-end times are reference seconds (see bench/hostspeed.py: raw seconds "
                 f"times {hostspeed.NOMINAL_S} s over the mean time of the reference kernel "
                 "sampled through the run); `raw_s` holds the unscaled medians.",
        "commit": subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True).stdout.strip() or "unknown",
        "seeds": seeds,
        "workloads": {},
        "named": {},
    }
    for name in WORKLOAD_NAMES:
        doc["workloads"][name], runs, traced = workload_baseline(name, seeds)
        doc["env"] = {k: v for k, v in runs[0]["env"].items() if k not in ("seed", "git_commit")}
        if name == "asymptotic":
            scale = [hostspeed.scale([r["kernel"]["mean_s"]]) for r in runs]
            sk = [t * f for r, f in zip(runs, scale) for t in r["job_times_s"]["critical:sk"][1:]]
            doc["named"]["asymptotic.critical_sk_job_s"] = {
                "unit": "s", **quartiles(sk), "jobs": len(sk), "budget_s": 1.0,
                "note": "`spinmix critical` on models/sk.json, in-process, timed passes only, "
                        "reference seconds; criterion 01 gives it a 1.0 s budget"}
            m = traced["metrics"]
            base = f"{m['landscape.maximize_calls']:g} maximize_f calls per traced pass " \
                   f"(seed {seeds[0]})"
            for ratio in ("landscape.uncertified_ratio", "landscape.unconverged_ratio"):
                doc["named"][f"asymptotic.{ratio}"] = {"value": m[ratio], "base": base}
    (BENCH / "baseline.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
