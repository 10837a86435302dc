import json
import subprocess
import sys

import pytest

from orbigw.cli import build_parser, main
from orbigw.genus0 import GenusZeroData
from orbigw.potentials import assemble_F
from orbigw.report import canonical_json


def run_cli(args) -> tuple[int, str]:
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_genus0_json(tmp_path):
    code, out = run_cli(["genus0", "--n", "3", "--N", "16", "--format", "json"])
    assert code == 0
    body = json.loads(out)
    assert body["report"]["ok"] is True
    assert body["series"]["L"]["coeffs"]["1"] == "1"
    # the palindrome identity check is reported
    names = [c["name"] for c in body["report"]["checks"]]
    assert any("palindrome" in s for s in names)


def test_genus0_even_reports_middle_A(tmp_path):
    code, out = run_cli(["genus0", "--n", "4", "--N", "16", "--format", "json"])
    assert code == 0
    body = json.loads(out)
    checks = {c["name"]: c["ok"] for c in body["report"]["checks"]}
    assert checks.get("A_{n/2} = 0") is True


def test_invalid_order_is_config_error():
    assert main(["genus0", "--n", "2"]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["potential", "--n", "3", "--g", "1", "--insertions", "7"],
        ["potential", "--n", "3", "--g", "1", "--insertions", "-2"],
        ["pmatrix", "--n", "3", "--k-max", "0"],
        ["pmatrix", "--n", "3", "--k-max", "-1"],
        ["verify-hae", "--n", "3", "--g", "2", "--policies", "symplectic,,zero"],
        ["verify-hae", "--n", "3", "--g", "2", "--policies", "symplectic,bogus"],
        ["potential", "--n", "3", "--g", "0", "--insertions", "1,1,1"],
    ],
)
def test_out_of_range_input_is_config_error(args, monkeypatch):
    # rejected before any work: no genus-zero data is built
    monkeypatch.setattr(GenusZeroData, "build", _no_work)
    assert main(args) == 2


def _no_work(*args, **kwargs):
    pytest.fail("work started before the input was checked")


def test_output_into_a_missing_directory_is_config_error(tmp_path, monkeypatch):
    monkeypatch.setattr(GenusZeroData, "build", _no_work)
    target = tmp_path / "missing" / "report.json"
    assert main(["genus0", "--n", "3", "--N", "14", "--out", str(target)]) == 2
    assert not target.parent.exists()


def test_cli_offers_no_custom_policy_and_no_normalization():
    # custom constants cannot be given on the command line, and a rescaled
    # normalization is only reachable through the API
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["pmatrix", "--n", "3", "--policy", "custom"])
    for args in (
        ["potential", "--n", "3", "--g", "1", "--policy", "custom"],
        ["verify-identities", "--n", "3", "--policy", "custom"],
        ["pmatrix", "--n", "3", "--normalization", "0"],
    ):
        with pytest.raises(SystemExit):
            parser.parse_args(args)
    assert main(["pmatrix", "--n", "3", "--k-max", "2", "--normalization", "0"]) == 2


@pytest.mark.parametrize("insertions", [(2,), (1, 2)])
def test_potential_depth_covers_every_tail(tables3, insertions):
    # the CLI chooses the lifted depth; its potential must equal one built
    # from a deeper table
    arg = ",".join(map(str, insertions))
    code, out = run_cli(["potential", "--n", "3", "--g", "1", "--insertions", arg, "--policy", "zero", "--format", "json"])
    assert code == 0
    want = assemble_F(tables3, 1, insertions).core.to_json()
    assert json.loads(out)["potential"]["core"] == json.loads(canonical_json(want))


def test_internal_invariant_is_a_failed_check(monkeypatch):
    import orbigw.pmatrix

    def broken(*args, **kwargs):
        raise AssertionError("unitarity residual survived")

    monkeypatch.setattr(orbigw.pmatrix, "unitarity_residual", broken)
    code, out = run_cli(["pmatrix", "--n", "3", "--N", "14", "--k-max", "2", "--format", "json"])
    assert code == 1
    report = json.loads(out)["report"]
    assert report["ok"] is False
    assert report["checks"] == [{"name": "internal invariant", "ok": False, "detail": "unitarity residual survived"}]


def test_verify_hae_cli():
    code, out = run_cli(["verify-hae", "--n", "3", "--g", "2", "--policies", "zero", "--format", "json"])
    assert code == 0
    body = json.loads(out)
    assert body["results"][0]["status"] == "verified"


def test_csv_and_text_formats(tmp_path):
    code, out = run_cli(["genus0", "--n", "3", "--N", "14", "--format", "csv"])
    assert code == 0 and out.startswith("check,ok,detail")
    code, out = run_cli(["genus0", "--n", "3", "--N", "14", "--format", "text"])
    assert code == 0 and "PASS" in out


def test_output_file(tmp_path):
    target = tmp_path / "report.json"
    code, _ = run_cli(["genus0", "--n", "3", "--N", "14", "--format", "json", "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["report"]["ok"] is True


def test_jobs_determinism():
    # one evaluation path: a repeated in-process run (warm module caches) and a
    # fresh interpreter must print the same bytes
    base = ["potential", "--n", "3", "--g", "2", "--insertions", "", "--policy", "zero",
            "--N", "14", "--format", "json"]
    code1, out1 = run_cli(base)
    code2, out2 = run_cli(base)
    proc = subprocess.run([sys.executable, "-m", "orbigw.cli", *base], capture_output=True, text=True)
    assert code1 == code2 == proc.returncode == 0, proc.stderr
    assert out1 == out2 == proc.stdout


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "orbigw.cli", "verify-identities", "--n", "3", "--N", "14",
         "--k-max", "2", "--policy", "zero", "--format", "text"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "passed" in proc.stdout
