"""Smoke tests of the example scripts under scripts/: each run() exits 0 and
writes what its docstring promises."""

import json
import math
import os
import shutil
from pathlib import Path

import pytest

from spinmix import montecarlo
from spinmix.cli import SCAN_HEADER

from conftest import MODELS_DIR, SCRIPTS_DIR, load_script


def test_phase_scan_writes_the_scan_csv(tmp_path, capsys):
    out = tmp_path / "sk.csv"
    code = load_script("phase_scan").run([
        "--model", str(MODELS_DIR / "sk.json"), "--beta-min", "0.5", "--beta-max", "0.9",
        "--beta-step", "0.2", "--out", str(out),
    ])
    assert code == 0
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert rows[0] == SCAN_HEADER
    assert [row.split(",")[0] for row in rows[1:]] == ["0.5", "0.7", "0.9"]
    printed = capsys.readouterr().out
    assert "beta_m        = 0.707106" in printed
    assert "lam_max(M)" in printed


def test_second_moment_table_prints_one_row_per_size(capsys):
    code = load_script("second_moment_table").run([
        "--model", str(MODELS_DIR / "sk.json"), "--beta", "0.5", "--sizes", "50", "100",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("beta = 0.5, limit = ")
    # below beta_m the Laplace constant, here 1/2 log 2, heads the table
    assert lines[1].startswith("Laplace constant c = ")
    assert float(lines[1].split("=")[1]) == pytest.approx(0.5 * math.log(2.0), rel=1e-12)
    assert lines[2].split() == ["N", "(1/N)", "log", "E", "Z^2", "gap", "N*gap"]
    rows = [line.split() for line in lines[3:]]
    assert [row[0] for row in rows] == ["50", "100"]
    for N, _, gap, n_gap in rows:
        assert float(n_gap) == pytest.approx(int(N) * float(gap), rel=1e-3)
        assert abs(float(n_gap) - 0.5 * math.log(2.0)) <= 1.0 / int(N)


def test_second_moment_table_refuses_a_size_too_small_for_the_model(capsys):
    # argparse's usage error, exit 2, naming the size, before any table
    with pytest.raises(SystemExit) as exit_:
        load_script("second_moment_table").run(["--model", str(MODELS_DIR / "sk.json"),
                                                "--sizes", "50", "2"])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err and "argument --sizes: N=2 too small" in captured.err


def test_verify_pass_rate_counts_the_failures_of_each_check(capsys):
    code = load_script("verify_pass_rate").run(
        ["--seeds", "3", "5", "--N", "20", "--samples", "200"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("seeds 3-4, N = 20, samples = 200, ")
    assert lines[1].split() == ["check", "failures", "seeds"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:]}
    assert list(rows) == ["covariance-two-route", "empirical-covariance", "free-energy",
                          "level-set", "band-free-energy", "second-moment-zero",
                          "second-moment-shrinking", "determinism"]
    for failures, *seeds in rows.values():
        bad, total = failures.split("/")
        assert total == "2" and int(bad) == len(seeds)
        assert set(seeds) <= {"3", "4"}
    assert rows["determinism"] == ["0/2"]


def test_output_digest_quick_listing_is_reproducible(tmp_path, capsys):
    # two runs list the same digests under every fixture's critical and scan name
    listings = []
    for run in ("a", "b"):
        assert load_script("output_digest").run(["--quick", "--out", str(tmp_path / run)]) == 0
        listings.append(capsys.readouterr().out.splitlines())
    assert listings[0] == listings[1]
    names = [line.split("  ")[1] for line in listings[0]]
    fixtures = ("sk", "pure3", "pure4", "two_species_quadratic")
    assert names == sorted([f"critical_{name}.json" for name in fixtures]
                           + [f"scan_{name}.csv" for name in fixtures])
    for line in listings[0]:
        digest, name = line.split("  ")
        assert len(digest) == 64 and (tmp_path / "a" / name).is_file()


def test_output_digest_compare_sizes_the_numeric_differences(tmp_path, capsys):
    # one identical file, one whose numbers differ, one whose text differs
    # and one on one side only; names such as s3 hold no number
    old, new = tmp_path / "old", tmp_path / "new"
    for d in (old, new):
        d.mkdir()
        (d / "same.csv").write_text("beta,value\n0.5,1e-3\n")
    (old / "scan.csv").write_text("s3,0.25,-2.0,1e-08\n")
    (new / "scan.csv").write_text("s3,0.25,-2.5,1.5e-08\n")
    (old / "critical.json").write_text('{"verdict": "EQUAL", "beta_m": 0.7}\n')
    (new / "critical.json").write_text('{"verdict": "STRICTLY_LESS", "beta_m": 0.7}\n')
    (new / "extra.csv").write_text("1\n")
    assert load_script("output_digest").run(["--compare", str(old), str(new)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "critical.json  text differs beyond its numbers",
        f"extra.csv  only in {new}",
        "scan.csv  max abs 5.000e-01  max rel 3.333e-01  2 of 3 numbers differ",
        "1 of 4 files identical"]


def test_search_gate_records_two_models_and_compares_them(tmp_path, capsys):
    # the records of two models of the set, and --compare of a copy whose
    # verdict, thresholds, one maximum and two convergence flags were edited,
    # which prints each change with the model and the search it occurs on
    gate = load_script("search_gate")
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    models = gate.models()
    assert len(models) == 94
    for name in ("sk", "random2_0"):
        (old / f"{name}.json").write_text(json.dumps(gate.record(models[name])))
    sk = json.loads((old / "sk.json").read_text())
    assert sk["verdict"] == "EQUAL" and sk["beta_m"] == pytest.approx(math.sqrt(0.5))
    assert list(sk["searches"]) == ["certificate", "ratio"] + [
        f"{o} {beta}" for beta in (0.3, 0.6, 0.9, 1.2) for o in ("plain", "tilde")]
    new.mkdir()
    (new / "sk.json").write_text((old / "sk.json").read_text())
    doc = json.loads((old / "random2_0.json").read_text())
    was, searches = doc["verdict"], doc["searches"]
    doc["verdict"] = "INCONCLUSIVE" if was != "INCONCLUSIVE" else "EQUAL"
    doc["beta_m"] += 1e-6
    searches["plain 1.2"]["value"] -= 0.5 * max(1.0, abs(searches["plain 1.2"]["value"]))
    for search in ("certificate", "tilde 0.3"):
        searches[search]["converged"] = not searches[search]["converged"]
    (new / "random2_0.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert gate.run(["--compare", str(old), str(new)]) == 0
    lines = capsys.readouterr().out.splitlines()
    flips = ["gained" if searches[s]["converged"] else "lost"
             for s in ("certificate", "tilde 0.3")]
    assert lines[0] == "2 models in both, 0 in one only"
    assert lines[1] == "verdict changes: 1"
    assert lines[2].startswith("largest |delta beta_m|: 1.000e-06 (random2_0)")
    assert lines[3] == "largest |delta beta_m_tilde|: 0.000e+00 (-)"
    assert lines[4] == ("worst drop of a maximum or the certificate, relative: 5.000e-01 "
                        "(random2_0 plain 1.2)")
    assert lines[5:] == ["convergence changes: 2",
                         f"verdict random2_0: {was} -> {doc['verdict']}",
                         f"{flips[0]} convergence random2_0 certificate",
                         f"{flips[1]} convergence random2_0 tilde 0.3"]


def test_ab_compare_prints_one_row_per_job(tmp_path, capsys):
    ab_compare = load_script("ab_compare")
    src = str(SCRIPTS_DIR.parent / "src")
    assert list(ab_compare.jobs(ab_compare.load(src, "spinmix_jobs"), tmp_path)) == \
        [f"verdict {name}" for name in ("sk", "pure3", "pure4", "two_species_quadratic")] \
        + [f"maximize_f {o} S={S}" for S in range(3, 7) for o in ("plain", "tilde")] \
        + ["scan pair S=3", "beta_m, beta_m_tilde S=3"] \
        + [f"tilde_transform S={S}" for S in range(3, 7)] \
        + [f"cli scan S={S}" for S in range(3, 7)] + ["cli critical two_species_quadratic"] \
        + ["estimate_free_energy pure3", "band_probe sk", "verify sk",
           "verify two_species_quadratic",
           "log_E_Z2_exact two_species_quadratic", "log_E_Z2_exact chain S=3",
           "log_E_Z2_exact verify ladder sk", "log_E_Z2_exact N ladder two_species_quadratic"]
    # the same package on both sides, one pair, in the environment as it is,
    # on one search, one Monte Carlo and one quadrature job
    subset = ["verdict sk", "band_probe sk", "log_E_Z2_exact two_species_quadratic"]
    assert ab_compare.run([src, src, "--pairs", "1", "--jobs", *subset]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the header states which path of the Monte Carlo loop was timed
    blas = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    cpus = len(os.sched_getaffinity(0))
    spare = montecarlo._spare_cores(os.environ, cpus)
    assert lines.pop(0) == (" ".join(f"{var}={os.environ.get(var, 'unset')}" for var in blas)
                            + f"; {cpus} CPUs; spare cores: parent {spare}, change {spare}")
    assert lines[0] == ("1 pairs; medians in ms; ratio = change / parent; "
                        "peak traced MB of one untimed run on one thread")
    assert lines[1].split() == ["job", "parent", "change", "ratio", "change", "wins",
                                "parent", "MB", "change", "MB", "same"]
    assert [line.rsplit(None, 7)[0] for line in lines[2:]] == subset
    for line in lines[2:]:
        parent, change, ratio, wins, parent_mb, change_mb = map(float, line.split()[-7:-1])
        assert parent > 0.0 and change > 0.0 and wins in (0.0, 1.0)
        # each printed figure is rounded to its last digit, 5e-4
        slack = 5e-4 + 5e-4 * (1.0 + change / parent) / (parent - 5e-4)
        assert ratio == pytest.approx(change / parent, abs=slack)
        # every job allocates numpy arrays, which tracemalloc traces; one
        # package on both sides allocates the same, whichever side runs
        # first, so no shared lazy import is billed to one side
        assert parent_mb > 0.0 and change_mb > 0.0
        assert abs(parent_mb - change_mb) <= 0.01
        # one package on both sides computes the same bits
        assert line.split()[-1] == "yes"


def test_code_lines_leaves_out_docstrings_comments_and_blank_lines(tmp_path, capsys):
    # 11 lines: a module docstring over two lines, a comment, a blank line,
    # a function with a one-line docstring, a statement over three lines and
    # a code line with a trailing comment; 5 of them are code
    (tmp_path / "small.py").write_text(
        '"""A module\n'
        'docstring."""\n'
        "# a comment\n"
        "\n"
        "def f(x):\n"
        '    """One line."""\n'
        "    return (x +\n"
        "            1 +\n"
        "            2)\n"
        "\n"
        "y = f(0)  # trailing\n")
    assert load_script("code_lines").run([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "lines", "code"], ["small", "11", "5"], ["total", "11", "5"]]


def test_bench_pairs_alternates_the_sides_and_summarises_each_metric(tmp_path, monkeypatch,
                                                                     capsys):
    # no benchmark is launched: each run writes a synthetic result file,
    # wall_s 1.0 + seed / 100 for the parent and 0.9 + seed / 100 for the
    # change, but for the change's seed-3 run, which writes none, and the
    # parent's seed-2 run, one of whose jobs fails
    bench_pairs = load_script("bench_pairs")
    parent, change = tmp_path / "parent", tmp_path / "change"
    calls = []

    def fake_run(cmd, cwd, **kwargs):
        seed = int(cmd[cmd.index("--seed") + 1])
        workload = cmd[cmd.index("--workload") + 1]
        calls.append((Path(cwd).name, seed, workload))
        assert cmd[cmd.index("--trace") + 1] == "0" and cmd[cmd.index("--seconds") + 1] == "2.0"
        if (Path(cwd), seed) == (change, 3):
            return
        base = 1.0 if Path(cwd) == parent else 0.9
        metrics = {"setup_s": 0.5, "wall_s": base + seed / 100, "job_p50_s": base / 10,
                   "peak_rss_mb": 90.0 + (Path(cwd) == change)}
        out = bench_pairs.result_path(cwd, workload, seed)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"metrics": metrics, "attempted": 4,
                                   "failed": int((Path(cwd), seed) == (parent, 2))}))

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    for d in (parent, change):  # a stale result of an earlier run is not read
        stale = bench_pairs.result_path(d, "second_moment", 3)
        stale.parent.mkdir(parents=True)
        stale.write_text("{}")
    shutil.copy(bench_pairs.ROOT / "BENCHMARK.json", change)  # the metrics summarised
    out = tmp_path / "bench.json"
    assert bench_pairs.run([str(parent), str(change), "--workload", "second_moment", "--pairs",
                            "4", "--seconds", "2", "--out", str(out)]) == 0
    assert calls == [("change", 1, "second_moment"), ("parent", 1, "second_moment"),
                     ("parent", 2, "second_moment"), ("change", 2, "second_moment"),
                     ("change", 3, "second_moment"), ("parent", 3, "second_moment"),
                     ("parent", 4, "second_moment"), ("change", 4, "second_moment")]
    rec = json.loads(out.read_text())["workloads"]["second_moment"]
    assert rec["seeds"] == [1, 2, 3, 4] and (rec["pairs"], rec["pairs_complete"]) == (4, 3)
    assert rec["parent"] == {"runs_incomplete": 0, "failed": 1, "attempted": 16}
    assert rec["change"] == {"runs_incomplete": 1, "failed": 0, "attempted": 12}
    wall = rec["metrics"]["wall_s"]
    assert wall["parent_median"] == pytest.approx(1.02) and wall["change_median"] == pytest.approx(0.92)
    assert (wall["parent_q1"], wall["parent_q3"]) == pytest.approx((1.015, 1.03))
    assert wall["wins"] == 3 and wall["better"] == "lower"
    assert rec["metrics"]["peak_rss_mb"]["wins"] == 0 and rec["metrics"]["setup_s"]["wins"] == 0
    assert set(rec["metrics"]) == {"setup_s", "wall_s", "job_p50_s", "peak_rss_mb"}
    assert "change better in 3 of 3" in capsys.readouterr().out
