import json
import math

import pytest

from spinmix import (
    build_finite_model,
    estimate_band_free_energy,
    sample_disorder,
    sample_uniform,
)
from spinmix import verify as verify_mod
from spinmix.cli import _build_parser, main
from spinmix.rng import PROBE_CENTER, stream

from conftest import MODELS_DIR

SK = str(MODELS_DIR / "sk.json")
PURE3 = str(MODELS_DIR / "pure3.json")


def test_critical_sk(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["critical", "--model", SK, "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "EQUAL"
    assert doc["beta_m"] == pytest.approx(0.70710678, abs=1e-6)
    assert doc["beta_c"] == doc["beta_m"]
    assert doc["model_hash"]
    assert doc["tool_version"]


def test_critical_pure3(tmp_path):
    out = tmp_path / "report.json"
    assert main(["critical", "--model", PURE3, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "STRICTLY_LESS"
    assert doc["beta_c"] is None


def test_critical_missing_lambda(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "species": [{"name": "a"}],
        "terms": [{"degrees": {"a": 2}, "delta_sq": 1.0}],
    }))
    code = main(["critical", "--model", str(bad), "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "lambda" in capsys.readouterr().err


def test_scan_refuses_nan_lambda(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps({
        "species": [{"name": "a", "lambda": math.nan}],
        "terms": [{"degrees": {"a": 2}, "delta_sq": 1.0}],
    }))
    out = tmp_path / "scan.csv"
    code = main(["scan", "--model", str(bad), "--beta", "0.5", "--out", str(out)])
    assert code == 1
    assert "error: model file: species: proportions must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_directory_paths_are_usage_errors(tmp_path, capsys):
    code = main(["critical", "--model", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    code = main(["scan", "--model", SK, "--beta", "0.5", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_band_probe_refuses_a_zero_model(tmp_path, capsys):
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({
        "species": [{"name": "a", "lambda": 1.0}],
        "terms": [{"degrees": {"a": 2}, "delta_sq": 0.0}],
    }))
    code = main(["band-probe", "--model", str(zero), "--beta", "0.2", "--N", "20",
                 "--samples", "100", "--out", str(tmp_path / "probe.csv")])
    assert code == 1
    assert r"xi(1) > 0" in capsys.readouterr().err


def test_scan_sk_grid(tmp_path):
    out = tmp_path / "scan.csv"
    code = main([
        "scan", "--model", SK,
        "--beta-min", "0", "--beta-max", "1", "--beta-step", "0.05",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# model_hash=")
    assert lines[1].startswith("# tool_version=")
    assert lines[2] == "beta,max_f,argmax,lambda_max_M,max_f_tilde"
    rows = [line.split(",") for line in lines[3:]]
    crossing = None
    for row in rows:
        beta, max_f, lam_max = float(row[0]), float(row[1]), float(row[3])
        if beta <= 0.70:
            assert max_f == 0.0
        if beta >= 0.75:
            assert max_f > 0.0
        if crossing is None and lam_max >= 0.0:
            crossing = beta
    assert crossing == pytest.approx(1 / math.sqrt(2), abs=0.05)


def test_scan_rejects_empty_grid(tmp_path, capsys):
    # an empty grid; one whose point count overflows; one of about 1e300 points,
    # refused before it is built
    for lo, hi, step in (("1", "0", "0.1"), ("0", "1", "5e-324"), ("0", "1", "1e-300")):
        code = main([
            "scan", "--model", SK,
            "--beta-min", lo, "--beta-max", hi, "--beta-step", step,
            "--out", str(tmp_path / "scan.csv"),
        ])
        assert code == 1
        assert "grid" in capsys.readouterr().err


def test_scan_refuses_a_beta_whose_square_overflows(tmp_path, capsys):
    # beta^2 xi(1) = inf would give max_f = inf and a nan max_f_tilde
    out = tmp_path / "scan.csv"
    code = main(["scan", "--model", str(MODELS_DIR / "two_species_quadratic.json"),
                 "--beta", "1e200", "--out", str(out)])
    assert code == 1 and not out.exists()
    assert "beta = 1e+200" in capsys.readouterr().err


# the ascent's products overflow for beta^2 above about 1e155, though it converges
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_scan_refuses_a_beta_whose_truncated_numerator_overflows(tmp_path, capsys):
    # beta^2 xi(1) = 1e308 is finite, but the truncated energy's numerator
    # beta^2 xi(1) xi(r) reaches 3e308 and gave max_f_tilde = inf
    out = tmp_path / "scan.csv"
    beta = repr(math.sqrt(1e308 / 3.0))
    code = main(["scan", "--model", str(MODELS_DIR / "two_species_quadratic.json"),
                 "--beta", beta, "--out", str(out)])
    assert code == 1 and not out.exists()
    assert f"beta = {beta}" in capsys.readouterr().err


def test_scan_requires_beta_flags(tmp_path, capsys):
    code = main(["scan", "--model", SK, "--out", str(tmp_path / "scan.csv")])
    assert code == 1


@pytest.mark.parametrize("command, stray", [
    (["scan", "--model", SK], ["--beta-min", "0.1", "--beta-max", "0.3", "--beta-step", "0.1"]),
    (["band-probe", "--N", "30", "--samples", "500"], ["--beta-step", "0.1"]),
])
def test_beta_with_a_grid_flag_is_refused(tmp_path, capsys, command, stray):
    # the grid flags would otherwise be accepted and then ignored
    out = tmp_path / "out.csv"
    assert main([*command, "--beta", "0.2", *stray, "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: supply either --beta or the full --beta-min/"
                                       "--beta-max/--beta-step grid, not both\n")
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--beta", "nan"],
                                   ["--beta-min", "0", "--beta-max", "inf", "--beta-step", "0.1"]])
def test_band_probe_rejects_non_finite_beta(tmp_path, capsys, flags):
    out = tmp_path / "probe.csv"
    code = main(["band-probe", "--N", "30", "--samples", "500", "--out", str(out), *flags])
    assert code == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_scan_verbose_keeps_stdout_csv(capsys):
    # with no --out the CSV is stdout, so the verbose lines go to stderr
    assert main(["scan", "--model", SK, "--beta", "0.5", "-v"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0].startswith("# model_hash=")
    assert lines[2] == "beta,max_f,argmax,lambda_max_M,max_f_tilde"
    assert len(lines) == 4
    assert captured.err.startswith("beta=0.5: starts=")
    assert "; tilde starts=" in captured.err


def test_verify_deterministic(tmp_path):
    out1 = tmp_path / "v1.json"
    out2 = tmp_path / "v2.json"
    args = ["verify", "--seed", "7", "--samples", "2000"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.with_suffix(".csv").read_bytes() == out2.with_suffix(".csv").read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["all_passed"] is True
    csv_lines = out1.with_suffix(".csv").read_text().splitlines()
    assert csv_lines[2] == "beta,N,estimate,stderr,prediction,residual"


def test_verify_over_budget(capsys):
    code = main(["verify", "--N", "20000", "--samples", "200"])
    assert code == 1
    assert "budget" in capsys.readouterr().err


def test_verify_refuses_more_samples_than_the_budget(capsys):
    # refused before the H values are allocated (they would take 728 TiB)
    code = main(["verify", "--seed", "5", "--N", "20", "--samples", "99999999999999"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: 99999999999999 samples exceed the budget")


@pytest.mark.parametrize("samples, message", [
    ("99", "error: need at least 100 samples\n"),
    ("100000001", "error: 100000001 samples exceed the budget of 100000000\n"),
], ids=["99", "100000001"])
def test_verify_checks_the_sample_count_before_any_check(samples, message, capsys,
                                                         monkeypatch):
    def reached(*args):
        raise AssertionError("the empirical covariance ran before the sample count was checked")

    monkeypatch.setattr(verify_mod, "_empirical_covariance", reached)
    assert main(["verify", "--seed", "5", "--N", "20", "--samples", samples]) == 1
    assert capsys.readouterr().err == message


def test_verify_refuses_a_negative_seed(capsys):
    assert main(["verify", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == (
        "error: seed -1 is outside [0, 2**32), where stream keys are distinct\n")


def test_verify_refuses_a_seed_of_2_to_the_32_or_more(capsys):
    # its stream keys would be those of other seeds' streams
    assert main(["verify", "--seed", "4294967298"]) == 1
    assert capsys.readouterr().err == (
        "error: seed 4294967298 is outside [0, 2**32), where stream keys are distinct\n")


def test_band_probe(tmp_path):
    out = tmp_path / "probe.csv"
    code = main([
        "band-probe", "--beta", "0.2", "--N", "30", "--samples", "500",
        "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[2] == "beta,N,estimate,stderr,prediction,residual"
    assert len(lines) == 4
    row = lines[3].split(",")
    assert float(row[0]) == 0.2
    assert abs(float(row[5])) < 0.1  # residual = estimate - prediction


def test_band_probe_rows_match_the_estimator(tmp_path, sk):
    # band-probe draws the band once for its whole beta grid; each row must
    # still be the estimator's own result at that beta
    out = tmp_path / "probe.csv"
    assert main([
        "band-probe", "--beta-min", "0.1", "--beta-max", "0.4", "--beta-step", "0.1",
        "--N", "30", "--samples", "500", "--seed", "3", "--out", str(out),
    ]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[3:]]
    assert len(rows) == 4
    fm = build_finite_model(sk, 30)
    disorder = sample_disorder(fm, seed=3)
    center = sample_uniform(fm, stream(3, PROBE_CENTER))
    for row in rows:
        est = estimate_band_free_energy(fm, disorder, center, 0.2, float(row[0]), 500, seed=3)
        assert row[2:4] == [repr(est.estimate), repr(est.std_error)]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("argv", [
    ["critical", "--model", SK, "--N", "5"],
    ["verify", "--tol-sing", "1e-3"],
])
def test_flags_of_other_subcommands_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "unrecognized arguments" in err


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    # main reuses one parser: a usage error between two identical runs
    # changes neither their output nor the parser
    first, third = tmp_path / "first.json", tmp_path / "third.json"
    assert main(["critical", "--model", PURE3, "--out", str(first)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--tol-zero", "1e-3"])
    assert exc.value.code == 2
    assert main(["critical", "--model", PURE3, "--out", str(third)]) == 0
    assert first.read_bytes() == third.read_bytes()
    assert _build_parser() is _build_parser()
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and out[0] == out[1]
