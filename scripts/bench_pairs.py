#!/usr/bin/env python3
"""Run the benchmark in two checkouts, in alternating pairs, and summarise
each end-to-end metric: the trajectory record of a change.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload asymptotic \\
        --pairs 10 --seconds 4 --out BENCH.json

PARENT_DIR and CHANGE_DIR are roots of two checkouts, each with its own
``bench/run.py``, ``src`` and ``models``.  For each workload (every one by
default; ``--workload`` may be given several names), pair k runs
``bench/run.py --workload W --seed k --seconds S --trace 0`` once in each
checkout, one fresh process each, the parent first in even pairs and the
change first in odd ones, so a drift of the host's speed falls on both
sides alike.  Both sides of a pair share its seed, k = 1, 2, ..., N.  Each
run's figures are read from the result file it writes,
``<checkout>/.bench_run/result-<W>-seed<k>-trace0.json``, which is removed
before the run, so a run that writes none counts as one that did not
complete; nothing under ``bench/`` is changed.

The summary, written to ``--out`` as JSON and printed as a table, holds per
workload the seeds, the runs that did not complete on each side, the jobs
that failed and were attempted on each side, and per end-to-end metric of
``BENCHMARK.json`` (``better`` lower or higher): each side's median, the
parent's first and third quartiles and their distance, the IQR, and the
pairs in which the change was better (``wins``), out of the pairs in which
both runs completed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("asymptotic", "mc_sampling", "mc_contraction", "second_moment")


def result_path(checkout: Path, workload: str, seed: int) -> Path:
    return Path(checkout) / ".bench_run" / f"result-{workload}-seed{seed}-trace0.json"


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    """One benchmark run in the checkout: its result record, or None when the
    run wrote none."""
    out = result_path(checkout, workload, seed)
    out.unlink(missing_ok=True)
    subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", "0"],
                   cwd=checkout, stdout=subprocess.DEVNULL, check=False)
    return json.loads(out.read_text()) if out.is_file() else None


def summarise(pairs, metrics) -> dict:
    """The record of one workload from its pairs, (seed, parent result,
    change result) with None for a run that did not complete, and the
    metrics' ``better`` ("lower" or "higher") by name."""
    sides = {"parent": [p for _, p, _ in pairs], "change": [c for _, _, c in pairs]}
    both = [(p, c) for _, p, c in pairs if p is not None and c is not None]
    record = {"seeds": [seed for seed, _, _ in pairs], "pairs": len(pairs),
              "pairs_complete": len(both), "metrics": {}}
    for side, runs in sides.items():
        done = [r for r in runs if r is not None]
        record[side] = {"runs_incomplete": len(runs) - len(done),
                        "failed": sum(r["failed"] for r in done),
                        "attempted": sum(r["attempted"] for r in done)}
    for name, better in metrics.items() if both else ():
        parent = [p["metrics"][name] for p, _ in both]
        change = [c["metrics"][name] for _, c in both]
        q1, q3 = np.percentile(parent, [25, 75])
        sign = 1.0 if better == "lower" else -1.0
        record["metrics"][name] = {
            "better": better,
            "parent_median": float(np.median(parent)),
            "change_median": float(np.median(change)),
            "parent_q1": float(q1), "parent_q3": float(q3), "parent_iqr": float(q3 - q1),
            "wins": sum(sign * (c - p) < 0.0 for p, c in zip(parent, change)),
        }
    return record


def metric_directions(checkout: Path = ROOT) -> dict:
    """The end-to-end metrics of the checkout's BENCHMARK.json, name -> better."""
    spec = json.loads((Path(checkout) / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def table(summary: dict) -> str:
    lines = []
    for workload, rec in summary["workloads"].items():
        lines.append(f"{workload}: {rec['pairs_complete']} of {rec['pairs']} pairs complete; "
                     f"failed/attempted parent {rec['parent']['failed']}/"
                     f"{rec['parent']['attempted']}, change {rec['change']['failed']}/"
                     f"{rec['change']['attempted']}")
        for name, m in rec["metrics"].items():
            lines.append(f"  {name:12s} {m['parent_median']:.6g} -> {m['change_median']:.6g}  "
                         f"parent IQR {m['parent_iqr']:.3g}  change better in "
                         f"{m['wins']} of {rec['pairs_complete']}")
    return "\n".join(lines)


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent_dir", type=Path)
    ap.add_argument("change_dir", type=Path)
    ap.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=4.0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    metrics = metric_directions(args.change_dir)
    summary = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workload:
        pairs = []
        for k in range(1, args.pairs + 1):
            order = [args.parent_dir, args.change_dir][:: 1 if k % 2 == 0 else -1]
            res = {d: run_once(d, workload, k, args.seconds) for d in order}
            pairs.append((k, res[args.parent_dir], res[args.change_dir]))
        summary["workloads"][workload] = summarise(pairs, metrics)
    args.out.write_text(json.dumps(summary, indent=2) + "\n")
    print(table(summary))
    return 0


if __name__ == "__main__":
    sys.exit(run())
