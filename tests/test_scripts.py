"""Smoke tests of the example scripts under scripts/: each run() exits 0 and
writes what its docstring promises."""

import math
import os

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
