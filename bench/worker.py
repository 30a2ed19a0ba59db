"""One workload run in one process: set up, run passes of the job list, check.

Started by ``run.py``, which pins the BLAS threads and times the launch.  The
worker prints ``READY`` once its inputs exist (the end of set-up), then, after
the run, one JSON line with the figures, the failed checks and the run
environment.  With ``--setup-only`` it exits after ``READY``.

It first runs one warm-up pass, whose outputs are checked but whose times
are not used.  Untraced, it then repeats the job list while another pass
fits in ``--seconds``, at least twice; every pass's outputs must equal
the warm-up's.  The reference kernel of ``hostspeed`` is timed after
every job, and the end-to-end times are reported in reference seconds (raw
seconds alongside).  Traced, it follows every untraced pass with one that
has the span wrappers installed, while another such pair fits; the per-layer
figures are raw means over the traced passes, and the tracing overhead is
the difference of the mean walls of the traced and the untraced passes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Inputs  # noqa: E402

# timed passes, at least, whatever --seconds says: the median job of the
# asymptotic job list is one of eight one-species criticals, and one pass of
# them is too few for a steady median
MIN_PASSES = 2
# leaves room under the 180 s a run may take, whatever --seconds says
HARD_STOP_S = 140.0


def import_spinmix():
    """The package from this checkout's sources, never an installed copy."""
    src = ROOT / "src"
    if not (src / "spinmix" / "__init__.py").is_file():
        raise SystemExit(f"no spinmix sources under {src}")
    sys.path.insert(0, str(src))
    import spinmix
    import spinmix.cli  # noqa: F401  (jobs look it up as spinmix.cli)

    if Path(spinmix.__file__).resolve().parent != (src / "spinmix").resolve():
        raise SystemExit(f"imported spinmix from {spinmix.__file__}, not from {src}")
    return spinmix


def _sysconf(name: str):
    try:
        value = os.sysconf(name)
    except (ValueError, OSError):
        return None
    return value if value > 0 else None


def _cache_bytes(level: int):
    """From sysconf, or where the C library reports 0 there, from sysfs."""
    value = _sysconf(f"SC_LEVEL{level}_CACHE_SIZE")
    if value:
        return value
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if int((index / "level").read_text()) == level:
                size = (index / "size").read_text().strip()
                return int(size[:-1]) * 1024 if size.endswith("K") else int(size)
        except (OSError, ValueError):
            return None
    return None


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    page, pages = _sysconf("SC_PAGE_SIZE"), _sysconf("SC_PHYS_PAGES")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "l2_cache_bytes": _cache_bytes(2),
        "l3_cache_bytes": _cache_bytes(3),
        "mem_total_mb": round(page * pages / 2**20) if page and pages else None,
        "seed": seed,
        "git_commit": _git_commit(),
    }


@dataclass
class Pass:
    wall: float
    times: list[float]
    outputs: list[dict]
    # the reference kernel's times, sampled after each job, if sampled
    kernel: list[float]


def run_pass(jobs, outdir: Path, tracer=None, first_job_id: int = 0,
             sample_speed: bool = False) -> Pass:
    """Run the job list once; with ``sample_speed``, time the reference kernel
    after every job (outside the job's time and the pass's wall)."""
    outdir.mkdir(parents=True)
    times, raws, kernel = [], [], []
    sampling = 0.0
    t_pass = time.perf_counter()
    for j, job in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = first_job_id + j
            span = tracer.open("bench.job")
        t0 = time.perf_counter()
        try:
            raws.append((job.call(outdir), None))
        except Exception as exc:  # a job that raises is a failed job, not a failed run
            raws.append((None, f"{type(exc).__name__}: {exc}"))
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.close(span)
        if sample_speed:
            sampling += hostspeed.sample(kernel, times[-1])
    wall = time.perf_counter() - t_pass - sampling
    outputs = [{"error": err} if err else job.read(outdir, raw)
               for job, (raw, err) in zip(jobs, raws)]
    shutil.rmtree(outdir)
    return Pass(wall, times, outputs, kernel)


def check_passes(jobs, passes: list[Pass]) -> list[dict]:
    """Failed checks per job and pass; a repeat must reproduce pass 0 exactly."""
    failures = []
    for k, p in enumerate(passes):
        for job, out, first in zip(jobs, p.outputs, passes[0].outputs):
            if "error" in out:
                failed = [f"raised {out['error']}"]
            else:
                try:
                    failed = list(job.check(out))
                except Exception as exc:  # unreadable output fails its check
                    failed = [f"unreadable output ({type(exc).__name__}: {exc})"]
            if k > 0 and out != first:
                failed.append("determinism")
            if failed:
                failures.append({"job": job.name, "pass": k, "checks": failed})
    return failures


def _bytes_out(outputs: list[dict]) -> int:
    total = 0
    for out in outputs:
        total += len(out.get("stdout", "").encode())
        total += sum(len(t.encode()) for t in out.get("files", {}).values() if t)
    return total


def traced_metrics(tracer, n_jobs: int, untraced: list[Pass], traced: list[Pass]) -> dict:
    """Per-layer figures averaged over the traced passes (whose job ids run
    from 0 up), with the tracing overhead as the difference of the mean walls
    of the traced and the untraced passes."""
    m = tracing.layer_metrics(tracer, jobs=set(range(len(traced) * n_jobs)),
                              passes=len(traced))
    m["cli.bytes_out"] = _bytes_out(traced[0].outputs) if traced else 0
    m["trace.untraced_wall_s"] = statistics.fmean(p.wall for p in untraced)
    m["trace.traced_wall_s"] = statistics.fmean(p.wall for p in traced)
    m["trace.overhead_s"] = m["trace.traced_wall_s"] - m["trace.untraced_wall_s"]
    m["trace.layer_self_sum_s"] = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    return m


def tail(times: list[float]) -> dict | None:
    """The highest percentile with at least ten jobs beyond it (>= 20 jobs)."""
    n = len(times)
    if n < 20:
        return None
    m = n - 10
    return {"value": sorted(times)[m - 1], "percentile": 100.0 * m / n, "jobs": n}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    spinmix = import_spinmix()
    workload = WORKLOADS[args.workload]
    scratch = ROOT / ".bench_run" / f"{workload.name}-{os.getpid()}"
    (scratch / "models").mkdir(parents=True)
    try:
        tracer = tracing.Tracer() if args.trace else None
        undo = tracing.install(tracer, spinmix) if tracer else []
        inputs = Inputs(args.seed, spinmix, ROOT, scratch / "models")
        jobs = workload.build(inputs)
        tracing.uninstall(undo)
        print("READY", flush=True)
        if args.setup_only:
            return 0

        passes = [run_pass(jobs, scratch / "warmup")]  # checked, not timed
        if tracer:
            tracer.counts.clear()  # counts and peaks cover the traced passes only
            tracer.peaks.clear()
        timed: list[Pass] = []
        per_round = 2 if tracer else 1
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            last_round = sum(p.wall for p in timed[-per_round:])
            if len(timed) >= MIN_PASSES and (elapsed + last_round > args.seconds
                                             or elapsed > HARD_STOP_S):
                break
            timed.append(run_pass(jobs, scratch / f"pass{len(timed)}",
                                  sample_speed=tracer is None))
            if tracer:  # every untraced pass is followed by a traced one
                undo = tracing.install(tracer, spinmix)
                try:
                    timed.append(run_pass(jobs, scratch / f"pass{len(timed)}", tracer,
                                          first_job_id=(len(timed) // 2) * len(jobs)))
                finally:
                    tracing.uninstall(undo)
        passes += timed
        failures = check_passes(jobs, passes)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(len(p.times) for p in passes)
    failed_jobs = {(f["job"], f["pass"]) for f in failures}
    result = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        # the generated models and Monte Carlo seeds: equal for equal seeds
        "inputs_sha256": hashlib.sha256(json.dumps(inputs.drawn).encode()).hexdigest(),
        "trace": args.trace,
        "env": environment(args.seed),
        "passes": len(timed),
        "jobs_per_pass": len(jobs),
        "attempted": attempted,
        "failed": len(failed_jobs),
        "failures": failures,
        "job_times_s": {job.name: [p.times[j] for p in passes] for j, job in enumerate(jobs)},
    }
    if tracer:
        result["metrics"] = traced_metrics(tracer, len(jobs), timed[0::2], timed[1::2])
        spans = ROOT / ".bench_run" / f"spans-{workload.name}-seed{args.seed}.npz"
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    else:
        kernel = [t for p in timed for t in p.kernel]
        scale = hostspeed.scale(kernel)
        times = [t * scale for p in timed for t in p.times]
        wall = statistics.median(p.wall for p in timed) * scale
        result["metrics"] = {
            "wall_s": wall,
            "job_p50_s": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["timed_jobs"] = len(times)
        result["raw"] = {
            "wall_s": statistics.median(p.wall for p in timed),
            "job_p50_s": statistics.median(t for p in timed for t in p.times),
        }
        result["kernel"] = {"samples": len(kernel), "mean_s": statistics.fmean(kernel)}
        result["job_tail"] = tail(times)
        if workload.mc_samples:
            result["mc_samples_per_s"] = workload.mc_samples / wall
            result["mc_shape"] = workload.mc_shape
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
