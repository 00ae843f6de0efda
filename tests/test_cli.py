"""The command-line contract: formats, exit codes, diagnostics."""

import csv
import io
import json
import subprocess
import sys

import pytest

from hirzebruch import cli, run_audit


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- documented examples


def test_coh_example(capsys):
    code, out, _ = run(["coh", "--e", "1", "--class", "1,1"], capsys)
    assert code == 0
    assert out.strip() == "h0=3 h1=0 h2=0"


def test_check_example(capsys):
    code, out, _ = run(["check", "--e", "2", "--line", "1,0", "--wrt", "M"], capsys)
    assert code == 0
    assert "false" in out
    assert "t=0" in out and "(1,1)" in out


def test_audit_example(capsys):
    code, out, _ = run(
        ["audit", "--claims", "direct-sum-splitting", "--e", "1..4"], capsys
    )
    assert code == 0
    assert out.count("agrees") == 4
    assert "fails at t=0" in out


# --- exit codes and diagnostics


def test_usage_error_names_the_token(capsys):
    code, _, err = run(["coh", "--e", "1", "--class", "1,1,2"], capsys)
    assert code == 2
    assert err.count("\n") == 1
    assert "1,1,2" in err


def test_malformed_range(capsys):
    code, _, err = run(["oracle", "--e", "1..x", "--a", "0..1", "--b", "0..1"], capsys)
    assert code == 2
    assert "1..x" in err


def test_inverted_range(capsys):
    code, _, err = run(["oracle", "--e", "3..1", "--a", "0..1", "--b", "0..1"], capsys)
    assert code == 2
    assert "3..1" in err


def test_domain_error_is_exit_3(capsys):
    code, _, err = run(["coh", "--e", "0", "--class", "1,1"], capsys)
    assert code == 3
    assert "e" in err


def test_construction_rejection_is_exit_3(capsys):
    code, _, err = run(
        ["construct", "--e", "2", "--u", "3", "--v", "1", "--m", "0", "--s", "0"], capsys
    )
    assert code == 3
    assert "v" in err


def test_missing_subcommand(capsys):
    code, _, err = run([], capsys)
    assert code == 2


def test_unknown_claim(capsys):
    code, _, err = run(["audit", "--claims", "bogus"], capsys)
    assert code == 2
    assert "bogus" in err


def test_twist_flags_must_pair(capsys):
    code, _, err = run(["coh", "--e", "1", "--class", "1,1", "--t", "0..2"], capsys)
    assert code == 2
    code, _, err = run(["coh", "--e", "1", "--class", "1,1", "--twist-by", "1,1"], capsys)
    assert code == 2


def test_check_needs_exactly_one_model(capsys):
    code, _, err = run(
        ["check", "--e", "1", "--line", "1,1", "--sum", "0,0", "--wrt", "M"], capsys
    )
    assert code == 2
    code, _, err = run(["check", "--e", "1", "--wrt", "M"], capsys)
    assert code == 2


def test_extension_check_rejects_a_second_model(capsys):
    code, out, err = run(
        ["check", "--e", "1", "--extension", "3,2,0,3", "--line", "1,1", "--wrt", "M"], capsys
    )
    assert code == 2
    assert out == ""
    assert err.strip() == "error: exactly one of --line, --sum, --ideal, --extension is required"


def test_extension_check_is_m_only(capsys):
    code, _, err = run(
        ["check", "--e", "1", "--extension", "3,2,0,3", "--wrt", "R"], capsys
    )
    assert code == 2


def test_bad_locus_token(capsys):
    code, _, err = run(
        ["check", "--e", "1", "--ideal", "corner:2:1,1", "--wrt", "M"], capsys
    )
    assert code == 2
    assert "corner" in err


def test_oracle_exit_zero_on_clean_grid(capsys):
    code, out, _ = run(["oracle", "--e", "1..2", "--a", "-3..3", "--b", "-4..4"], capsys)
    assert code == 0
    assert "0 mismatches" in out


def test_oracle_exit_one_on_mismatch(capsys, monkeypatch):
    # sabotage the closed form to confirm the mismatch path and exit code
    from hirzebruch import cohomology

    real = cli.h0
    monkeypatch.setattr(
        cli, "h0", lambda surface, c: real(surface, c) + (c.a == 1 and c.b == 1)
    )
    code, out, _ = run(["oracle", "--e", "1..1", "--a", "0..2", "--b", "0..2"], capsys)
    assert code == 1
    assert "1 mismatches" in out


# --- formats


def test_json_round_trip(capsys):
    code, out, _ = run(
        ["coh", "--e", "2", "--class", "1,0", "--twist-by", "1,2", "--t", "0..2",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert list(record) == ["command", "inputs", "results", "findings"]
    assert record["command"] == "coh"
    assert record["results"]["rows"][0] == {"t": 0, "h0": 1, "h1": 1, "h2": 0, "chi": 0}
    # stable key order: re-serializing reproduces the bytes
    assert json.dumps(record, indent=2) == out.strip()


def test_csv_and_json_agree(capsys):
    args = ["classify", "--e", "1", "--r", "2", "--u", "0..2", "--v", "-3..1"]
    code, json_out, _ = run(args + ["--format", "json"], capsys)
    assert code == 0
    code, csv_out, _ = run(args + ["--format", "csv"], capsys)
    assert code == 0
    cells = json.loads(json_out)["results"]["cells"]
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert len(rows) == len(cells)
    for cell, row in zip(cells, rows):
        assert int(row["u"]) == cell["u"]
        assert int(row["v"]) == cell["v"]
        assert row["label"] == cell["label"]
        expected = ";".join(f"{lo}..{hi}" for lo, hi in cell["witness"])
        assert row["witness"] == expected


def test_verdict_tokens_in_csv(capsys):
    code, out, _ = run(
        ["check", "--e", "2", "--line", "1,0", "--wrt", "M", "--format", "csv"], capsys
    )
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["outcome"] == "FAILS"
    assert row["witness_t"] == "0"

    code, out, _ = run(
        ["check", "--e", "2", "--extension", "3,3,0,2", "--wrt", "M", "--format", "csv"],
        capsys,
    )
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["outcome"] == "INDET"

    code, out, _ = run(
        ["check", "--e", "1", "--extension", "3,2,0,3", "--wrt", "M", "--format", "csv"],
        capsys,
    )
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["outcome"] == "HOLDS"


def test_enumerate_defaults_to_csv(capsys):
    code, out, _ = run(["enumerate", "--e", "1", "--r", "1", "--u", "0..1", "--v", "0..0"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "u,v,label,witness"


def test_env_var_selects_format(capsys, monkeypatch):
    monkeypatch.setenv("HIRZEBRUCH_FORMAT", "json")
    code, out, _ = run(["coh", "--e", "1", "--class", "1,1"], capsys)
    assert code == 0
    assert json.loads(out)["results"]["h0"] == 3
    # explicit flag still wins
    code, out, _ = run(["coh", "--e", "1", "--class", "1,1", "--format", "table"], capsys)
    assert out.strip() == "h0=3 h1=0 h2=0"
    # nonsense env falls back to the table default
    monkeypatch.setenv("HIRZEBRUCH_FORMAT", "yaml")
    code, out, _ = run(["coh", "--e", "1", "--class", "1,1"], capsys)
    assert out.strip() == "h0=3 h1=0 h2=0"


# --- behavior of the richer commands


def test_check_reports_closed_form_agreement(capsys):
    code, out, _ = run(
        ["check", "--e", "1", "--sum", "0,0;-2,3", "--wrt", "M", "--format", "json"],
        capsys,
    )
    record = json.loads(out)
    assert record["results"]["outcome"] == "FAILS"
    assert record["results"]["closed_form"] is False
    assert record["results"]["witness_t"] == 0


def test_check_pp_flag(capsys):
    code, out, _ = run(
        ["check", "--e", "2", "--line", "1,1", "--wrt", "M", "--pp", "--format", "json"],
        capsys,
    )
    record = json.loads(out)
    assert record["inputs"]["pp"] is True
    assert record["results"]["outcome"] == "HOLDS"
    assert record["results"]["closed_form"] is True


def test_check_arbitrary_spanned_class(capsys):
    code, out, _ = run(
        ["check", "--e", "1", "--line", "2,2", "--wrt", "0,1", "--format", "json"], capsys
    )
    assert code == 0
    record = json.loads(out)
    assert record["results"]["outcome"] in ("HOLDS", "FAILS")
    assert "closed_form" not in record["results"]


def test_check_rejects_non_spanned_wrt(capsys):
    code, _, err = run(["check", "--e", "2", "--line", "1,1", "--wrt", "1,1"], capsys)
    assert code == 3


def test_construct_json_payload(capsys):
    code, out, _ = run(
        ["construct", "--e", "1", "--u", "3", "--v", "2", "--m", "0", "--s", "3",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    results = record["results"]
    assert results["sub"] == "(1,0)"
    assert results["quotient_class"] == "(2,2)"
    assert results["c2"] == 3
    assert results["s_range"] == [3, 6]
    assert results["stability"]["R"]["certified"] is True
    assert results["stability"]["M"]["certified"] is True
    assert [c["class"] for c in results["stability"]["R"]["candidates"]] == [
        "(1,2)", "(2,1)", "(2,2)",
    ]


def test_construct_skips_stability_when_twisted(capsys):
    code, out, _ = run(
        ["construct", "--e", "1", "--u", "2", "--v", "1", "--m", "1", "--s", "6",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert record["results"]["stability"] == "only computed for m = 0"


def test_audit_json_findings(capsys):
    code, out, _ = run(
        ["audit", "--claims", "extension-natural", "--e", "2..2", "--format", "json"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    statuses = {f["status"] for f in record["findings"]}
    assert statuses == {"discrepancy", "indeterminate"}
    assert record["results"]["checked"] == len(record["findings"])


def test_audit_with_no_claims_prints_the_csv_header(capsys):
    code, out, _ = run(["audit", "--claims", ",", "--format", "csv"], capsys)
    assert code == 0
    assert out == "claim,e,status,subject,detail\n"


def test_audit_json_and_csv_list_the_run_audit_findings(capsys):
    expected = [
        {"claim": f.claim, "e": str(f.e), "status": f.status, "subject": f.subject,
         "detail": f.detail}
        for f in run_audit(range(1, 3))
    ]
    code, out, _ = run(["audit", "--e", "1..2", "--format", "json"], capsys)
    assert code == 0
    findings = json.loads(out)["findings"]
    assert [{**f, "e": str(f["e"])} for f in findings] == expected
    code, out, _ = run(["audit", "--e", "1..2", "--format", "csv"], capsys)
    assert code == 0
    assert list(csv.DictReader(io.StringIO(out))) == expected


def test_model_without_sections(capsys):
    # no twist of (-1,3) by the fiber class has sections: the natural check
    # stops with a domain error, the two-sided check decides it
    code, out, err = run(["check", "--e", "2", "--line", "-1,3", "--wrt", "0,1"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("domain error: no twist") and err.count("\n") == 1
    code, out, _ = run(
        ["check", "--e", "2", "--line", "-1,3", "--wrt", "0,1", "--pp"], capsys
    )
    assert (code, out) == (0, "true (HOLDS)\n")


def test_negative_range_endpoints_parse(capsys):
    code, out, _ = run(
        ["coh", "--e", "1", "--class", "-2,3", "--twist-by", "1,1", "--t", "-1..1"],
        capsys,
    )
    assert code == 0
    assert out.count("\n") == 3


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hirzebruch", "coh", "--e", "1", "--class", "1,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "h0=3 h1=0 h2=0"


def test_two_sided_window_does_not_grow_with_coefficients(capsys):
    from hirzebruch import DivisorClass, Surface, h0, h1

    code, out, _ = run(
        ["check", "--e", "1", "--line", "5,-200000", "--wrt", "0,1", "--pp", "--format", "json"],
        capsys,
    )
    assert code == 0
    results = json.loads(out)["results"]
    lo, hi = results["scanned_t"]
    assert 0 <= hi - lo <= 3
    t = results["witness_t"]
    assert lo <= t <= hi
    surface, cls = Surface(1), DivisorClass(5, -200000 + t)
    assert (h0(surface, cls), h1(surface, cls)) == (results["witness_h0"], results["witness_h1"])
    assert results["witness_h1"] > 0


def test_failing_window_ends_at_the_witness(capsys):
    # the second summand's run starts at t = 100000, but t = 2 already fails
    code, out, _ = run(
        ["check", "--e", "1", "--sum", "0,-2;-100000,-100002", "--wrt", "M", "--format", "json"],
        capsys,
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert (results["outcome"], results["witness_t"]) == ("FAILS", 2)
    assert results["scanned_t"] == [2, 2]
