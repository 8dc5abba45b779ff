"""The g2nil command line: subcommands, exit codes, formats, determinism."""

import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest

from g2nil import catalog, cli

FIXTURES = catalog.fixture_dir()
REGRESS_GOLDEN = pathlib.Path(__file__).parent / "data" / "regress.txt"


def child_env() -> dict:
    """Environment for a child interpreter that imports the g2nil under test."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def run_cli(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_list(capsys):
    code, out, err = run_cli(capsys, "catalog", "list")
    assert code == 0 and not err
    assert len(out.strip().splitlines()) == 16
    code, out, _ = run_cli(capsys, "catalog", "list", "--format", "json")
    assert code == 0
    assert json.loads(out)["algebras"][0] == "h3_R4"


def test_catalog_export_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "catalog", "export")
    code2, out2, _ = run_cli(capsys, "catalog", "export")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert len(payload["entries"]) == 16


def test_exists_family_metric_with_construct(capsys):
    code, out, _ = run_cli(capsys, "exists", "h7", "--metric", "r=0.5,s=1,t=1",
                           "--kind", "purely", "--construct", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exists"] is True
    assert payload["case"] == 1
    assert payload["construction"]["metric_residual"] < 1e-9
    assert payload["construction"]["torsion"]["purely_coclosed"] is True


def test_exists_infeasible_family_point(capsys):
    code, out, _ = run_cli(capsys, "exists", "h7", "--metric", "r=1,s=1,t=1",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["exists"] is False


def test_exists_identity_never_coclosed(capsys):
    code, out, _ = run_cli(capsys, "exists", "n7_2_A", "--metric", "identity",
                           "--kind", "coclosed", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exists"] is False
    assert payload["kind"] == "coclosed"


def test_exists_metric_from_json_file(capsys):
    tmp = pathlib.Path(tempfile.mkdtemp())
    spec = tmp / "metric.json"
    spec.write_text(json.dumps({"diag": ["1", "1", "1", "1", "1", "1", "4"]}))
    code, out, _ = run_cli(capsys, "exists", "n6_3_R", "--metric", spec,
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["exists"] is True


def test_verify_family_coframe_on_and_off_plane(capsys):
    fixture = FIXTURES / "n7_3_A_family.json"
    code, out, _ = run_cli(capsys, "verify", "--algebra", "n7_3_A",
                           "--coframe", fixture, "--param", "a=1,b=1,c=-2",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coclosed"] is True
    assert payload["purely_coclosed"] is True
    assert payload["induced_metric"][4][4] == "4"

    code, out, _ = run_cli(capsys, "verify", "--algebra", "n7_3_A",
                           "--coframe", fixture, "--param", "a=1,b=1,c=1",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coclosed"] is True
    assert payload["purely_coclosed"] is False


def test_verify_pure_fixture_text_output(capsys):
    code, out, _ = run_cli(capsys, "verify", "--algebra", "n7_3_B",
                           "--coframe", FIXTURES / "n7_3_B_pure.json")
    assert code == 0
    assert "purely_coclosed: True" in out
    assert "induced_metric:" in out


def test_verify_alias_algebra_name(capsys):
    code, out, _ = run_cli(capsys, "verify", "--algebra", "n_{7,3,B}",
                           "--coframe", FIXTURES / "n7_3_B_pure.json",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["purely_coclosed"] is True


def test_verify_scaled_fixture_requires_float_mode(capsys):
    fixture = FIXTURES / "n7_3_D_pure.json"
    code, _, err = run_cli(capsys, "verify", "--algebra", "n7_3_D",
                           "--coframe", fixture)
    assert code == 2
    assert "float" in err
    code, out, _ = run_cli(capsys, "verify", "--algebra", "n7_3_D",
                           "--coframe", fixture, "--mode", "float",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["purely_coclosed"] is True


def test_missing_param_is_a_parse_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--algebra", "n7_3_A",
                           "--coframe", FIXTURES / "n7_3_A_family.json")
    assert code == 2
    assert "--param" in err


def test_malformed_inputs_exit_2(capsys):
    tmp = pathlib.Path(tempfile.mkdtemp())
    bad = tmp / "bad.json"
    bad.write_text("not json {")
    code, _, err = run_cli(capsys, "verify", "--algebra", "h7", "--coframe", bad)
    assert code == 2 and "JSON" in err
    code, _, err = run_cli(capsys, "exists", "nope", "--metric", "identity")
    assert code == 2
    code, _, err = run_cli(capsys, "exists", "h7", "--metric", "blorp")
    assert code == 2
    code, _, err = run_cli(capsys, "exists", "n6_3_R", "--metric", "r=1")
    assert code == 2 and "family" in err


def test_metric_must_be_a_7x7_inner_product(capsys):
    tmp = pathlib.Path(tempfile.mkdtemp())
    cases = (
        ("indefinite", {"diag": [1, 1, 1, 1, 1, 1, -1]}, 3, "positive definite"),
        ("singular", {"diag": [1, 1, 1, 1, 1, 1, 0]}, 3, "positive definite"),
        ("six", {"diag": [1, 1, 1, 1, 1, 1]}, 2, "7x7"),
        ("unsymmetric", [[1, 2], [3, 4]], 2, "symmetric"),
    )
    for name, data, want, text in cases:
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(data))
        for algebra in ("n7_3_A", "h7"):
            code, out, err = run_cli(capsys, "exists", algebra, "--metric", path)
            assert code == want, (name, algebra, err)
            assert not out
            assert err.startswith("error:") and text in err
            assert len(err.strip().splitlines()) == 1


def test_degenerate_coframe_exits_3(capsys):
    tmp = pathlib.Path(tempfile.mkdtemp())
    degen = tmp / "degen.json"
    rows = [["1"] + ["0"] * 6 for _ in range(7)]
    degen.write_text(json.dumps({"coframe": rows}))
    code, _, err = run_cli(capsys, "verify", "--algebra", "h7", "--coframe", degen)
    assert code == 3
    assert "degenerate" in err


def test_float_structure_constant_exits_2(capsys):
    tmp = pathlib.Path(tempfile.mkdtemp())
    alg = tmp / "floaty.json"
    alg.write_text(json.dumps({
        "name": "floaty", "dim": 7,
        "d": [[], [], [], [], [], [], [{"idx": [1, 2], "c": 0.5}]]}))
    code, out, err = run_cli(capsys, "exists", alg, "--metric", "identity")
    assert code == 2 and not out
    assert err.startswith("error:") and "exact rationals" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("value", ["-1", "nan", "inf", "-inf"])
def test_bad_tolerance_exits_2(capsys, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(["exists", "h7", "--metric", "identity", f"--tolerance={value}"])
    assert exc.value.code == 2
    assert "--tolerance" in capsys.readouterr().err
    code, _, _ = run_cli(capsys, "exists", "h7", "--metric", "identity", "--tolerance", "0")
    assert code == 0


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_bad_tolerance_environment_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("G2NIL_TOLERANCE", value)
    code, out, err = run_cli(capsys, "exists", "h7", "--metric", "r=1/2,s=1,t=1",
                             "--mode", "float")
    assert code == 2 and not out
    assert err.startswith("error:") and "tolerance" in err
    assert len(err.strip().splitlines()) == 1


def test_tolerance_environment_is_honoured(capsys, monkeypatch):
    def exists(metric):
        code, out, _ = run_cli(capsys, "exists", "h7", "--metric", metric, "--mode", "float",
                               "--format", "json")
        assert code == 0
        return json.loads(out)["exists"]

    monkeypatch.setenv("G2NIL_TOLERANCE", "0")
    assert exists("r=1/2,s=1,t=1")  # on the harmonic locus 1/r = 1/s + 1/t
    assert not exists("r=5001/10000,s=1,t=1")  # 1e-4 off it
    monkeypatch.setenv("G2NIL_TOLERANCE", "1e-3")
    assert exists("r=5001/10000,s=1,t=1")


def test_unsupported_algebra_exits_4(capsys):
    tmp = pathlib.Path(tempfile.mkdtemp())
    alg = tmp / "threestep.json"
    alg.write_text(json.dumps({
        "name": "threestep", "dim": 7,
        "d": [[], [], [], [{"idx": [1, 2], "c": "1"}],
              [{"idx": [1, 4], "c": "1"}], [], []]}))
    code, _, err = run_cli(capsys, "exists", alg, "--metric", "identity")
    assert code == 4
    assert "2-step" in err


def test_regress_full_and_filtered(capsys):
    code, out, _ = run_cli(capsys, "regress")
    assert code == 0
    assert out.strip().splitlines()[-1] == "all 127 checks passed"
    code, out, _ = run_cli(capsys, "regress", "--filter", "case2")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert 0 < len(lines) - 1 < 127
    code, out, _ = run_cli(capsys, "regress", "--format", "json",
                           "--filter", "nilsoliton")
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0 and payload["total"] > 0


def test_regress_text_output_matches_golden_file(capsys):
    """The full regression table is pinned byte for byte (127 rows)."""
    code, out, err = run_cli(capsys, "regress")
    assert code == 0 and not err
    assert out == REGRESS_GOLDEN.read_text()


def test_regress_failure_exits_1(capsys, monkeypatch):
    rows = ({"id": "exists:h7:case1:purely", "algebra": "h7",
             "check": "exists", "passed": False, "detail": "forced failure"},)
    monkeypatch.setattr(cli.catalog, "run_regression", lambda **kw: rows)
    code, out, _ = run_cli(capsys, "regress")
    assert code == 1
    assert "FAIL exists:h7:case1:purely" in out
    assert "1 of 1 checks failed" in out


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "g2nil.cli", "--help"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert "verify" in proc.stdout and "exists" in proc.stdout
    proc = subprocess.run([sys.executable, "-m", "g2nil.cli"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 2  # argparse usage error matches the parse exit code


def test_reader_closing_early_is_not_a_regression_failure():
    # regress computes every row before printing, so the pipe is closed first
    proc = subprocess.Popen([sys.executable, "-m", "g2nil.cli", "regress"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    code = proc.wait()
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert code == cli.EXIT_BROKEN_PIPE == 141
