"""Smoke tests of the example scripts under scripts/: each run() exits 0 and
writes what its docstring promises."""

import importlib.util
import math
from pathlib import Path

import pytest

from spinmix.cli import SCAN_HEADER

from conftest import MODELS_DIR

SCRIPTS_DIR = Path(__file__).parent.parent / "scripts"


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_phase_scan_writes_the_scan_csv(tmp_path, capsys):
    out = tmp_path / "sk.csv"
    code = _script("phase_scan").run([
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
    code = _script("second_moment_table").run([
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


def test_verify_pass_rate_counts_the_failures_of_each_check(capsys):
    code = _script("verify_pass_rate").run(["--seeds", "3", "5", "--N", "20", "--samples", "200"])
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
        assert _script("output_digest").run(["--quick", "--out", str(tmp_path / run)]) == 0
        listings.append(capsys.readouterr().out.splitlines())
    assert listings[0] == listings[1]
    names = [line.split("  ")[1] for line in listings[0]]
    fixtures = ("sk", "pure3", "pure4", "two_species_quadratic")
    assert names == sorted([f"critical_{name}.json" for name in fixtures]
                           + [f"scan_{name}.csv" for name in fixtures])
    for line in listings[0]:
        digest, name = line.split("  ")
        assert len(digest) == 64 and (tmp_path / "a" / name).is_file()


def test_ab_compare_prints_one_row_per_job(capsys):
    # the same package on both sides, one pair
    src = str(SCRIPTS_DIR.parent / "src")
    assert _script("ab_compare").run([src, src, "--pairs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1 pairs; medians in ms; ratio = change / parent"
    assert lines[1].split() == ["job", "parent", "change", "ratio", "change", "wins", "same"]
    jobs = [line.rsplit(None, 5)[0] for line in lines[2:]]
    assert jobs == [f"verdict {name}" for name in ("sk", "pure3", "pure4", "two_species_quadratic")] \
        + [f"maximize_f {o} S={S}" for S in range(3, 7) for o in ("plain", "tilde")] \
        + ["scan pair S=3", "beta_m, beta_m_tilde S=3", "estimate_free_energy pure3",
           "log_E_Z2_exact two_species_quadratic", "log_E_Z2_exact chain S=3",
           "log_E_Z2_exact verify ladder sk"]
    for line in lines[2:]:
        parent, change, ratio, wins = map(float, line.split()[-5:-1])
        assert parent > 0.0 and change > 0.0 and wins in (0.0, 1.0)
        assert ratio == pytest.approx(change / parent, abs=1e-3)
        # one package on both sides computes the same bits
        assert line.split()[-1] == "yes"
