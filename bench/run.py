#!/usr/bin/env python3
"""spinmix benchmark: four workloads, end-to-end figures, and a traced run.

    python3 bench/run.py                        # every workload, seed 1
    python3 bench/run.py --workload asymptotic --seed 7 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
Each workload runs in a process of its own (``worker.py``) with the BLAS and
OpenMP threads pinned to ``BLAS_THREADS``.  Set-up time is the time from
launching a worker until it has imported spinmix and generated its inputs;
it is taken over ``SETUP_LAUNCHES`` launches, the last of which goes on to
run the jobs, and the median is reported.  All end-to-end times are in
reference seconds: raw seconds scaled by the speed of the host at the time,
as the reference kernel of ``hostspeed.py`` measures it before each launch
and after each job.  The raw figures are printed beside them.

Every figure is printed by name with its unit.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` (jobs whose
output failed a check or that raised) and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1`` (with
``--workload all``, one such object per workload name).  A run that cannot
start its workload exits with status 1 and prints no result.  Result files
and traced spans are kept in ``.bench_run/``.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
from units import END_TO_END, PER_LAYER  # noqa: E402

WORKLOAD_NAMES = ("asymptotic", "mc_sampling", "mc_contraction", "second_moment")
BLAS_THREADS = 1
SETUP_LAUNCHES = 5
# the host's speed is sampled for this long before each launch
SETUP_KERNEL_S = 0.1
RUN_LIMIT_S = 170.0


class WorkerError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _launch(args, *, setup_only: bool, deadline: float):
    """Start a worker and wait for READY; returns (process, seconds to READY)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=_worker_env())
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            ready = sel.select(timeout=max(deadline - time.monotonic(), 0.0))
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - t0
        if line.strip() != "READY":
            raise WorkerError(f"worker did not finish set-up (exit {proc.poll()})")
    except BaseException:
        _stop(proc)
        raise
    return proc, elapsed


def _stop(proc, grace: float = 0.0) -> None:
    """Let the worker exit for ``grace`` seconds (it cleans up), then kill it."""
    try:
        proc.wait(timeout=grace)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def run_workload(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setups, kernel = [], []
    for _ in range(SETUP_LAUNCHES - 1 if not args.trace else 0):
        hostspeed.sample(kernel, SETUP_KERNEL_S / hostspeed.DUTY)
        proc, elapsed = _launch(args, setup_only=True, deadline=deadline)
        _stop(proc, grace=30.0)
        setups.append(elapsed)
    hostspeed.sample(kernel, SETUP_KERNEL_S / hostspeed.DUTY)
    proc, elapsed = _launch(args, setup_only=False, deadline=deadline)
    setups.append(elapsed)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerError("worker ran past the time limit")
    finally:
        _stop(proc)
    if proc.returncode != 0 or not out.strip():
        raise WorkerError(f"worker exited with status {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setups) * hostspeed.scale(kernel)
        result["raw"]["setup_s"] = statistics.median(setups)
        result["setup_launches"] = len(setups)
    return result


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result: dict) -> dict:
    """Print the figures of one workload run; return its contract record."""
    w, m = result["workload"], result["metrics"]
    print(f"== {w}  seed={result['seed']}  trace={result['trace']}")
    print(f"   why: {result['why']}")
    print(f"   env: {json.dumps(result['env'], sort_keys=True)}")
    print(f"   load: closed loop, 1 caller, {result['jobs_per_pass']} jobs per pass, "
          f"1 warm-up and {result['passes']} timed passes")
    units = PER_LAYER if result["trace"] else END_TO_END
    for name, unit in units.items():
        print(f"   {name:34s} {_fmt(m[name]):>14s} {unit}")
    if result["trace"]:
        base = m["landscape.maximize_calls"]
        print(f"   ratios: landscape.*_ratio over {base} maximize_f calls; "
              f"criticality.maximize_per_report over {m['criticality.reports']} reports")
        self_sum, traced = m["trace.layer_self_sum_s"], m["trace.traced_wall_s"]
        untraced, overhead = m["trace.untraced_wall_s"], m["trace.overhead_s"]
        # the traced pass is the layers' self time plus the harness between jobs
        within = abs(self_sum - untraced) <= abs(overhead) + (traced - self_sum)
        print(f"   layer self times sum to {self_sum:.4g} s of the {traced:.4g} s traced pass; "
              f"untraced pass {untraced:.4g} s, overhead {overhead:.4g} s: "
              f"{'within' if within else 'NOT within'} the overhead")
        print(f"   spans: {result['spans_file']}")
    else:
        raw = ", ".join(f"{name} {_fmt(value)} s" for name, value in result["raw"].items())
        print(f"   (reference seconds, at a host speed where the kernel takes "
              f"{hostspeed.NOMINAL_S:g} s; raw: {raw})")
        print(f"   (setup_s is the median of {result['setup_launches']} launches; wall_s the "
              f"median over {result['passes']} timed passes after a warm-up pass; job_p50_s "
              f"over {result['timed_jobs']} timed jobs)")
        t = result["job_tail"]
        if t:
            print(f"   job_tail_s {t['value']:.6g} s  (p{t['percentile']:.0f} of {t['jobs']} jobs)")
        else:
            print(f"   job_tail_s omitted: {result['timed_jobs']} timed jobs, fewer than 20")
        if "mc_samples_per_s" in result:
            print(f"   mc_samples_per_s {result['mc_samples_per_s']:.6g} 1/s  ({result['mc_shape']})")
    print(f"   fail_ratio {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.6g}")
    for f in result["failures"]:
        print(f"   FAILED {f['job']} (pass {f['pass']}): {', '.join(f['checks'])}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m[name], "unit": unit} for name, unit in units.items()},
    }


def _terminate(signum, frame):
    raise SystemExit(1)  # unwinds through the handlers that stop the worker


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "spinmix").is_dir() or not (ROOT / "models").is_dir():
        print(f"error: {ROOT} holds no spinmix checkout (src/spinmix, models/)", file=sys.stderr)
        return 1
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    records = {}
    for name in names:
        try:
            result = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        except WorkerError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        out = ROOT / ".bench_run" / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        records[name] = report(result)
    print(json.dumps(records[names[0]] if len(names) == 1 else records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
