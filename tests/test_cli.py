import json
import math

import pytest

from spinmix.cli import main

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
    code = main([
        "scan", "--model", SK,
        "--beta-min", "1", "--beta-max", "0", "--beta-step", "0.1",
        "--out", str(tmp_path / "scan.csv"),
    ])
    assert code == 1
    assert "grid" in capsys.readouterr().err


def test_scan_requires_beta_flags(tmp_path, capsys):
    code = main(["scan", "--model", SK, "--out", str(tmp_path / "scan.csv")])
    assert code == 1


def test_scan_verbose_keeps_stdout_csv(capsys):
    # with no --out the CSV is stdout, so the verbose lines go to stderr
    assert main(["scan", "--model", SK, "--beta", "0.5", "-v"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0].startswith("# model_hash=")
    assert lines[2] == "beta,max_f,argmax,lambda_max_M,max_f_tilde"
    assert len(lines) == 4
    assert captured.err.startswith("beta=0.5: starts=")


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
