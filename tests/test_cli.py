"""The command-line contract: formats, exit codes, diagnostics."""

import argparse
import ast
import contextlib
import csv
import enum
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from hirzebruch import (
    CLAIMS,
    Surface,
    cli,
    construct_extension,
    run_audit,
    section_count_bounds,
)


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


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(heading, fence):
    # the first fenced block under `heading`, without its fences
    section = README.read_text().split(heading + "\n", 1)[1]
    body = section.split(fence + "\n", 1)[1]
    return body.split("```", 1)[0]


def test_readme_cli_examples(capsys, monkeypatch):
    # every `$ hirzebruch ...` line of the README's CLI block exits 0, and
    # stdout starts with the output lines shown under it, up to a `...`
    monkeypatch.delenv("HIRZEBRUCH_FORMAT", raising=False)
    examples = []
    for line in _readme_block("## CLI", "```").splitlines():
        if line.startswith("$ "):
            examples.append((shlex.split(line[2:]), []))
        elif line:
            examples[-1][1].append(line)
    assert len(examples) == 11
    for argv, shown in examples:
        assert argv[0] == "hirzebruch"
        code, out, _ = run(argv[1:], capsys)
        assert code == 0, argv
        if "..." in shown:
            shown = shown[: shown.index("...")]
        assert out.splitlines()[: len(shown)] == shown, argv


def test_readme_library_snippet():
    # the snippet runs, and each expression line ending in a literal
    # comment (`# 5`, `# False`) evaluates to that literal
    code = _readme_block("## Library", "```python")
    namespace = {}
    exec(code, namespace)
    checked = 0
    for line in code.splitlines():
        match = re.fullmatch(r"(.*\S)\s+#\s*(.+)", line)
        if not match:
            continue
        try:
            expr = ast.parse(match[1], mode="eval")
            want = ast.literal_eval(match[2])
        except (SyntaxError, ValueError):
            continue
        got = eval(compile(expr, "README.md", "eval"), namespace)
        assert (type(got), got) == (type(want), want), line
        checked += 1
    assert checked == 2


# --- exit codes and diagnostics


def test_usage_error_names_the_token(capsys):
    code, _, err = run(["coh", "--e", "1", "--class", "1,1,2"], capsys)
    assert code == 2
    assert err.count("\n") == 1
    assert "1,1,2" in err


def test_an_option_before_the_command_is_named(capsys):
    # argparse would read the option's value as the command
    code, out, err = run(["--format", "json", "coh", "--e", "1", "--class", "1,1"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: --format must follow the command\n"
    code, _, err = run(["--e", "1", "coh", "--class", "1,1"], capsys)
    assert (code, err) == (2, "error: --e must follow the command\n")
    code, _, err = run(["json", "coh"], capsys)
    assert code == 2 and "invalid choice: 'json'" in err


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


def test_json_round_trip(capsys, monkeypatch):
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
    # the package writes JSON itself; `json.dumps(indent=2)` is the
    # referee for its bytes, on every README example and every command
    monkeypatch.delenv("HIRZEBRUCH_FORMAT", raising=False)
    readme = [
        shlex.split(line[2:])[1:]
        for line in _readme_block("## CLI", "```").splitlines()
        if line.startswith("$ ")
    ]
    extra = [
        ["audit"],
        ["oracle", "--e", "1..2", "--a", "-2..3", "--b", "-3..4"],
        ["check", "--e", "1", "--ideal", "section:3:2,4", "--wrt", "R", "--pp"],
        ["check", "--e", "2", "--line", "-1,0", "--wrt", "1,3"],
    ]
    commands = set()
    for argv in readme + extra:
        code, out, _ = run(argv + ["--format", "json"], capsys)
        assert code == 0, argv
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv
        commands.add(argv[0])
    assert commands == set(cli._COMMANDS)
    # the README construct lists stability candidates under both polarizations
    construct = next(argv for argv in readme if argv[0] == "construct")
    code, out, _ = run(construct + ["--format", "json"], capsys)
    assert all(json.loads(out)["results"]["stability"][pol]["candidates"] for pol in "RM")


_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.text()
    | st.text(alphabet=st.characters(max_codepoint=0x7F))
)
_json_values = st.recursive(
    _json_leaves,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=6), children, max_size=4)
    ),
    max_leaves=30,
)


@given(_json_values)
@example(["", [], {}, (), {"a": {}}, [[]]])
@example({'"quoted"': "back\\slash \"q\"", "\x00\x1f\n\t\x7f": "\u00e9\u2603\U0001f600\ud800"})
@example([10**399, -(10**399), 0, True, False, None])
def test_json_writer_matches_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


def test_json_writer_treats_str_and_int_subclasses_as_json_does():
    class Tag(str, enum.Enum):
        A = "a\u00e9"

    value = {Tag.A: [Tag.A, enum.IntEnum("N", "ONE TWO").TWO, True]}
    assert cli._json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value", [1.5, [0.0], {"a": float("nan")}, {1, 2}, {1: "a"}, {"a": {(1, 2): 3}}, b"x"]
)
def test_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


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


def test_construct_reads_the_section_bounds_off_the_datum(capsys, monkeypatch):
    from hirzebruch import bundles

    calls = []

    def counting(name):
        real = getattr(bundles, name)

        def count(*args):
            calls.append((name, args))
            return real(*args)

        monkeypatch.setattr(bundles, name, count)

    # every evaluation of the construction goes through its kernels, and
    # the checked `section_count_bounds` is one way to reach the first
    for name in ("_construction", "_c2_offset", "section_count_bounds"):
        counting(name)
    argv = ["construct", "--e", "1", "--u", "3", "--v", "2", "--m", "0", "--s"]
    code, out, _ = run(argv + ["3"], capsys)
    assert code == 0
    assert "admissible s in [3, 6]" in out
    # twice, both in `construct_extension`: its range check, made before
    # anything is built, and the datum's own s_range, read straight off
    # the kernel; the CLI reads the datum's range and its Chern data and
    # adds no evaluation of its own
    assert calls == [("_construction", (1, 3, 2, 0))] * 2
    calls.clear()
    code, _, err = run(argv + ["7"], capsys)
    assert (code, err) == (3, "domain error: need 3 <= s <= 6, got s = 7\n")
    # a refused s is decided by the range check alone
    assert calls == [("_construction", (1, 3, 2, 0))]


def test_construct_skips_stability_when_twisted(capsys):
    code, out, _ = run(
        ["construct", "--e", "1", "--u", "2", "--v", "1", "--m", "1", "--s", "6",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert record["results"]["stability"] == "only computed for m = 0"


def _big_construct(fmt):
    # e = 1, u = v = 1000, s = a_lo: 500,500 candidates under R, 501,501 under M
    s = section_count_bounds(Surface(1), 1000, 1000, 0)[0]
    argv = ["construct", "--e", "1", "--u", "1000", "--v", "1000", "--m", "0", "--s", str(s)]
    return argv + ["--format", fmt], construct_extension(Surface(1), 1000, 1000, 0, s)


@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_construct_counts_the_candidates_it_does_not_print(fmt, exclusion_calls, capsys):
    argv, datum = _big_construct(fmt)
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    # only the verdicts' calls: one under M and the R antidiagonal
    # gamma + delta = ceil((u+v)/2) inside the box
    gamma_max = max(datum.sub.a, datum.quotient.cls.a)
    delta_max = max(datum.sub.b, datum.quotient.cls.b)
    antidiagonal = gamma_max + delta_max - 1000 + 1
    assert 1 <= len(exclusion_calls) <= 1 + antidiagonal
    if fmt == "table":
        assert "R: certified (500500 candidates)" in out
        assert "M: certified (501501 candidates)" in out
    else:
        row = next(csv.DictReader(io.StringIO(out)))
        assert (row["stable_R"], row["stable_M"]) == ("True", "True")


def test_construct_json_over_the_budget_is_refused_before_listing(exclusion_calls, capsys):
    argv, _ = _big_construct("json")
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    assert err.startswith("domain error: ") and err.count("\n") == 1
    assert "1002001 stability candidates" in err and f"the limit is {cli.ROW_BUDGET}" in err
    # the verdicts ran; no candidate was listed
    assert len(exclusion_calls) <= 1 + 1000


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_construct_past_the_budget_of_stability_checks_is_refused(fmt, exclusion_calls, capsys):
    # e = 1, u = v = 10^8: the R verdict would check one class per column,
    # 10^8 of them; the count is read off the region before the first check
    u = 10**8
    s = section_count_bounds(Surface(1), u, u, 0)[0]
    argv = ["construct", "--e", "1", "--u", str(u), "--v", str(u), "--m", "0", "--s", str(s)]
    started = time.perf_counter()
    code, out, err = run(argv + ["--format", fmt], capsys)
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (3, "")
    assert err == (
        f"domain error: --u {u} --v {u} would produce {u + 1} stability checks; "
        f"the limit is {cli.ROW_BUDGET}\n"
    )
    assert exclusion_calls == []


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_check_extension_past_the_budget_of_boxes_is_refused(fmt, capsys, monkeypatch):
    # e = 1, v = u - 2, m = s = 0: the audit would evaluate settle + 2 =
    # 4 - u boxes; the count is read off the settle twist before any box
    import hirzebruch.bundles as bundles

    real, boxes = bundles._box, []
    monkeypatch.setattr(bundles, "_box", lambda datum, t: boxes.append(t) or real(datum, t))
    u = -(10**8)
    argv = ["check", "--e", "1", "--extension", f"{u},{u - 2},0,0", "--wrt", "M", "--format", fmt]
    started = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (3, "")
    assert err == (
        f"domain error: --extension {u},{u - 2},0,0 would produce {4 - u} LES boxes; "
        f"the limit is {cli.ROW_BUDGET}\n"
    )
    assert boxes == []
    # a datum exactly at the budget still answers, with that many boxes
    u = 4 - cli.ROW_BUDGET
    argv[4] = f"{u},{u - 2},0,0"
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert len(boxes) == cli.ROW_BUDGET


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


@pytest.mark.parametrize("claims", ["", ",", ",,"])
def test_an_empty_claim_list_is_a_usage_error(claims, capsys, monkeypatch):
    # a list that names no claim would check nothing and report "all"
    monkeypatch.setattr(cli, "run_audit", lambda *args: pytest.fail("audited no claims"))
    for fmt in ("table", "csv", "json"):
        code, out, err = run(["audit", "--claims", claims, "--format", fmt], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --claims names no claim: '{claims}'\n"


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


def test_sum_without_sections_names_its_summands(capsys):
    code, out, err = run(["check", "--e", "2", "--sum", "-1,3;-2,0", "--wrt", "0,1"], capsys)
    assert (code, out) == (3, "")
    assert err == "domain error: no twist of (-1,3) + (-2,0) by (0,1) has sections\n"


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


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# the README's small examples that the benchmark times as whole processes
COLD_CLI_EXAMPLES = (
    "coh --e 1 --class 1,1",
    "check --e 2 --line 1,0 --wrt M",
    "construct --e 1 --u 3 --v 2 --m 0 --s 3 --format json",
    "classify --e 2 --r 2 --u -3..6 --v -10..14 --format csv",
    "enumerate --e 1 --r 2 --u 0..4 --v 0..6 --m-max 2",
)


def _cli_process(flags, line, **kwargs):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("HIRZEBRUCH_FORMAT", None)
    env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, as a pipe's is by default
    return subprocess.run(
        [sys.executable, *flags, "-m", "hirzebruch", *line.split()], env=env, timeout=60, **kwargs
    )


def test_readme_examples_print_the_same_under_python_O():
    # every internal check raises rather than asserts, so -O, which strips
    # asserts, must leave each answer and exit code as it is
    for line in COLD_CLI_EXAMPLES:
        plain, optimized = (
            _cli_process(flags, line, capture_output=True, text=True) for flags in ([], ["-O"])
        )
        assert (plain.returncode, plain.stderr) == (0, ""), line
        assert plain.stdout
        assert (optimized.returncode, optimized.stdout) == (plain.returncode, plain.stdout), line


@pytest.mark.parametrize(
    "line", [COLD_CLI_EXAMPLES[0], "classify --e 2 --r 2 --u -3..6 --v -10..14 --format json"]
)
def test_a_closed_pipe_ends_the_process_quietly(line):
    # the read end is closed before the process starts; a report that fits
    # stdout's buffer meets the closed pipe on the flush, a longer one
    # (35 kB here) already in the print
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _cli_process([], line, stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_a_closed_pipe_in_process_is_exit_141(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert cli.main(COLD_CLI_EXAMPLES[2].split()) == 141
    assert capsys.readouterr().err == ""


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


# --- one parser per process


# (HIRZEBRUCH_FORMAT or None, sabotage the h0 closed form, argv); the order
# matters: the format variable changes between calls, and usage and domain
# errors sit directly before valid calls
REUSE_CASES = [
    (None, False, "coh --e 1 --class 1,1"),
    ("json", False, "coh --e 1 --class 1,1"),
    ("csv", False, "coh --e 2 --class 1,0 --twist-by 1,2 --t 0..3"),
    (None, False, "coh --e 2 --class 1,0 --twist-by 1,2 --t -1..2 --format json"),
    ("yaml", False, "coh --e 1 --class 1,1"),
    (None, False, "coh --e 1 --class 1,1,2"),
    (None, False, "coh --e 1 --class 1,1"),
    (None, False, "coh --e 0 --class 1,1"),
    ("json", False, "check --e 2 --line 1,0 --wrt M"),
    (None, False, "check --e 2 --line 1,0 --wrt M"),
    (None, False, "check --e 2 --sum 0,0;-2,2 --wrt M --format csv"),
    (None, False, "check --e 1 --ideal corner:2:1,1 --wrt M"),
    (None, False, "check --e 1 --ideal general:2:2,2 --wrt M"),
    (None, False, "check --e 2 --line 1,1 --wrt M --pp --format json"),
    (None, False, "check --e 1 --extension 3,2,0,3 --line 1,1 --wrt M"),
    (None, False, "check --e 2 --extension 2,1,0,0 --wrt M"),
    (None, False, "check --e 2 --line -1,3 --wrt 0,1"),
    (None, False, "check --e 2 --line -1,3 --wrt 0,1 --pp"),
    (None, False, "check --e 2 --line 1,1 --wrt 1,1"),
    ("csv", False, "check --e 1 --line 2,2 --wrt R"),
    (None, False, "construct --e 1 --u 3 --v 2 --m 0 --s 3"),
    ("json", False, "construct --e 1 --u 3 --v 2 --m 0 --s 3"),
    (None, False, "construct --e 1 --u 2 --v 1 --m 1 --s 6 --format csv"),
    (None, False, "construct --e 2 --u 3 --v 1 --m 0 --s 0"),
    (None, False, "construct --e 2 --u 2 --v 3 --m 0 --s -1"),
    (None, False, "construct --e 2 --u 2 --v 3 --m 0"),
    (None, False, "classify --e 1 --r 2 --u 0..2 --v -3..1"),
    ("json", False, "classify --e 1 --r 2 --u 0..2 --v -3..1"),
    (None, False, "enumerate --e 1 --r 1 --u 0..1 --v 0..0"),
    ("table", False, "enumerate --e 1 --r 1 --u 0..1 --v 0..0"),
    (None, False, "enumerate --e 1 --r 1 --u 0..1 --v 0..0 --format json"),
    (None, False, "classify --e 1 --r 2 --u 2..0 --v 0..1"),
    (None, False, "audit --claims direct-sum-splitting --e 1..2"),
    ("json", False, "audit --claims sum-criterion --e 1..1"),
    (None, False, "audit --claims bogus"),
    (None, False, "audit --claims , --format csv"),
    (None, False, "oracle --e 1..x --a 0..1 --b 0..1"),
    (None, False, "oracle --e 1..2 --a -3..3 --b -4..4"),
    (None, True, "oracle --e 1..1 --a 0..2 --b 0..2"),
    ("json", False, "oracle --e 1..1 --a 0..2 --b 0..2"),
    (None, False, ""),
    (None, False, "bogus --e 1"),
    (None, False, "coh --e 1 --class 1,1 --format yaml"),
    (None, False, "coh --e 1 --class 1,1 --twist-by 1,1 --t 0..100000"),
    (None, False, "coh --e 1 --class 1,1"),
]

# the oracle's exit 1 needs a wrong closed form: h0 of (1,1) off by one
_SABOTAGE = (
    "import sys\n"
    "from hirzebruch import cli\n"
    "real = cli.h0\n"
    "cli.h0 = lambda surface, c: real(surface, c) + (c.a == 1 and c.b == 1)\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


def _fresh_process(case):
    fmt, sabotage, line = case
    env = {k: v for k, v in os.environ.items() if k != "HIRZEBRUCH_FORMAT"}
    if fmt is not None:
        env["HIRZEBRUCH_FORMAT"] = fmt
    entry = ["-c", _SABOTAGE] if sabotage else ["-m", "hirzebruch"]
    proc = subprocess.run(
        [sys.executable, *entry, *line.split()],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_parser_reuse_matches_fresh_processes(capsys, monkeypatch):
    with ThreadPoolExecutor(max_workers=4) as pool:
        expected = list(pool.map(_fresh_process, REUSE_CASES))
    assert {code for code, _, _ in expected} == {0, 1, 2, 3}
    real_h0 = cli.h0
    for case, want in zip(REUSE_CASES, expected):
        fmt, sabotage, line = case
        if fmt is None:
            monkeypatch.delenv("HIRZEBRUCH_FORMAT", raising=False)
        else:
            monkeypatch.setenv("HIRZEBRUCH_FORMAT", fmt)
        if sabotage:
            monkeypatch.setattr(
                cli, "h0", lambda surface, c: real_h0(surface, c) + (c.a == 1 and c.b == 1)
            )
        got = run(line.split(), capsys)
        monkeypatch.setattr(cli, "h0", real_h0)
        assert got == want, case


def test_warm_calls_add_no_argparse_actions(capsys, monkeypatch):
    run(["coh", "--e", "1", "--class", "1,1"], capsys)
    added = []
    real = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        added.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    for _ in range(3):
        for _, _, line in REUSE_CASES[:12]:
            run(line.split(), capsys)
    assert added == []


def _parse_outcome(parse, argv):
    # the namespace, the UsageError text, or the exit code and stdout of --help
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return parse(argv)
    except cli.UsageError as err:
        return f"usage error: {err}"
    except SystemExit as done:
        return done.code, out.getvalue()


def _parse_corpus():
    import importlib.util

    root = pathlib.Path(__file__).resolve().parents[1]
    readme = [
        shlex.split(line[2:])[1:]
        for line in _readme_block("## CLI", "```").splitlines()
        if line.startswith("$ ")
    ]
    spec = importlib.util.spec_from_file_location("procs", root / "perfbench" / "procs.py")
    procs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(procs)
    cold = [argv for argv, _ in procs.COLD_CLI]
    assert len(readme) == 11 and len(cold) == 5
    corpus = readme + cold
    # one malformed token per option: a bad value, then no value at all
    for argv in [line.split() for _, _, line in REUSE_CASES if line] + readme:
        for i, token in enumerate(argv):
            if token == "--pp":
                corpus.append(argv[:i] + ["--pp=x"] + argv[i + 1:])
            elif token.startswith("--"):
                corpus.append(argv[:i + 1] + ["x"] + argv[i + 2:])
                corpus.append(argv[:i] + argv[i + 2:] + [token])
    corpus += [
        [], ["bogus", "--e", "1"], ["--format", "json", "coh", "--e", "1", "--class", "1,1"],
        ["coh", "--e", "1", "--cl", "1,1"], ["coh", "--e", "1", "--c", "1,1"],
        ["check", "--e", "2", "--l", "1,0", "--w", "M", "--p"],
        ["coh", "--", "--e", "1"], ["coh", "--e", "1", "--class", "--", "1,1"],
        ["-h"], ["--help"], ["coh", "-h"], ["construct", "--e", "1", "--help"],
        ["coh", "--e", "1", "--class", "1,1", "coh"], ["COH", "--e", "1"],
    ]
    return corpus


def _parse_path(argv):
    return "table" if cli._parse_line(argv) is not None else "argparse"


def _top_level_outcome(argv):
    # the top-level parser filling a SimpleNamespace, the type every
    # `cli._parse` path returns; filling its own Namespace it must give
    # the same fields, or the same refusal or help
    parser = cli._build_parser()
    want = _parse_outcome(lambda line: parser.parse_args(line, SimpleNamespace()), argv)
    own = _parse_outcome(parser.parse_args, argv)
    if isinstance(own, argparse.Namespace):
        assert type(want) is SimpleNamespace and vars(own) == vars(want), argv
    else:
        assert own == want, argv
    return want


def test_dispatch_parses_like_the_top_level_parser():
    outcomes, paths = set(), set()
    for argv in _parse_corpus():
        want = _top_level_outcome(argv)
        got = _parse_outcome(cli._parse, argv)
        assert type(got) is type(want) and got == want, argv
        outcomes.add(type(want).__name__)
        paths.add(_parse_path(argv))
    assert outcomes == {"SimpleNamespace", "str", "tuple"}
    assert paths == {"table", "argparse"}


def test_a_command_line_is_parsed_in_one_pass(monkeypatch):
    passes = []
    real = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        passes.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    # a well-formed line is read off the option table: no argparse pass,
    # and no parser built
    cli._build_parser.cache_clear()
    cli._parse(["coh", "--e", "1", "--class", "1,1"])
    cli._parse(["check", "--e=2", "--line", "-1,3", "--wrt", "0,1", "--pp", "--pp"])
    assert passes == [] and cli._build_parser.cache_info().misses == 0
    # a line the table declines, refused or abbreviated, makes one pass:
    # through its command's sub-parser when it opens with a command,
    # through the top-level parser otherwise
    for argv, prog in (
        (["coh", "--e", "x", "--class", "1,1"], "hirzebruch coh"),
        (["coh", "--e", "1"], "hirzebruch coh"),
        (["coh", "--e", "1", "--cl", "1,1"], "hirzebruch coh"),
        (["--format", "json", "coh", "--e", "1", "--class", "1,1"], "hirzebruch"),
        (["bogus", "--e", "1"], "hirzebruch"),
        ([], "hirzebruch"),
    ):
        passes.clear()
        with contextlib.suppress(cli.UsageError):
            cli._parse(argv)
        assert passes == [prog], argv


# the `add_argument` keywords that `_parse_line` interprets; "action" only
# as "store_true"
_TABLE_KEYWORDS = {"dest", "type", "required", "default", "choices", "metavar", "help", "action"}


def test_every_sub_parser_matches_the_option_table():
    # `_build_parser` passes each row's keywords to `add_argument`, and
    # `_parse_line` reads the same keywords; a keyword that `_parse_line`
    # would not interpret, or an option that only one side knows or reads
    # differently, fails here
    parser = cli._build_parser()
    assert list(parser.commands) == list(cli._GRAMMAR)
    for name, (_, options) in cli._GRAMMAR.items():
        for flag, kwargs in options:
            assert "dest" in kwargs and set(kwargs) <= _TABLE_KEYWORDS, (name, flag)
            if "action" in kwargs:
                # `_parse_line` fills an absent option with the row's default
                assert kwargs["action"] == "store_true", (name, flag)
                assert "default" in kwargs and kwargs["default"] is False, (name, flag)
        built = [
            (
                action.option_strings, action.dest, action.default,
                bool if isinstance(action, argparse._StoreTrueAction) else action.type,
                action.choices, action.required, action.metavar, action.help,
            )
            for action in parser.commands[name]._actions
            if action.option_strings != ["-h", "--help"]
        ]
        table = [
            (
                [flag], kwargs["dest"], kwargs.get("default"),
                bool if kwargs.get("action") == "store_true" else kwargs.get("type"),
                kwargs.get("choices"), kwargs.get("required", False),
                kwargs.get("metavar"), kwargs.get("help"),
            )
            for flag, kwargs in options
        ]
        assert built == table, name


_COMMAND_OPTIONS = {
    "coh": ["--e", "--class", "--twist-by", "--t"],
    "check": ["--e", "--wrt", "--pp"],
    "construct": ["--e", "--u", "--v", "--m", "--s"],
    "classify": ["--e", "--r", "--u", "--v", "--m-max"],
    "enumerate": ["--e", "--r", "--u", "--v", "--m-max"],
    "audit": ["--claims", "--e"],
    "oracle": ["--e", "--a", "--b"],
}
_MODELS = ["--line", "--sum", "--ideal", "--extension"]
_WORDS = [
    "x", "M", "R", "1.5", "-0.5", "..", ",", ";", ":", "--", "general", "section",
    "fiber", "corner", "table", "csv", "json", "yaml", "sum-criterion", "bogus",
    *_COMMAND_OPTIONS, *_MODELS, "--format",
]
# small integers keep every drawn query cheap
_INTS = st.integers(min_value=-3, max_value=6).map(str)


def _joined(sep, parts):
    return st.lists(parts, min_size=2, max_size=2).map(sep.join)


_PAIRS = _joined(",", _INTS)
_RANGES = _joined("..", _INTS)
_JUNK = st.one_of(_INTS, _PAIRS, _RANGES, st.sampled_from(_WORDS))
_SHAPED = {
    "--class": _PAIRS,
    "--twist-by": _PAIRS,
    "--line": _PAIRS,
    "--wrt": st.one_of(_PAIRS, st.sampled_from(["M", "R"])),
    "--t": _RANGES,
    "--a": _RANGES,
    "--b": _RANGES,
    "--sum": st.lists(_PAIRS, min_size=1, max_size=3).map(";".join),
    "--ideal": st.tuples(st.sampled_from(["general", "section", "fiber"]), _INTS, _PAIRS).map(
        ":".join
    ),
    "--extension": st.lists(_INTS, min_size=4, max_size=4).map(",".join),
    "--claims": st.lists(st.sampled_from(list(CLAIMS)), max_size=2).map(",".join),
    "--format": st.sampled_from(cli.FORMATS),
}
_RANGE_OPTIONS = {("audit", "--e"), ("oracle", "--e"), ("classify", "--u"),
                  ("classify", "--v"), ("enumerate", "--u"), ("enumerate", "--v")}


def _value(command, option):
    if (command, option) in _RANGE_OPTIONS:
        return _RANGES
    return _SHAPED.get(option, _INTS)


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from([None, *_COMMAND_OPTIONS]))
    if command is None:
        return draw(st.lists(_JUNK, max_size=4))
    options = [*_COMMAND_OPTIONS[command], "--format"]
    if command == "check":
        options.append(draw(st.sampled_from(_MODELS)))
    options = draw(st.permutations(options))
    # three calls in eight have one mishap: a dropped option, a stray word or a junk value
    mishap = draw(st.sampled_from(["drop", "stray", "junk", None, None, None, None, None]))
    if mishap == "drop":
        options = options[1:]
    elif mishap == "stray":
        options.append(draw(st.sampled_from(_WORDS)))
    junk_at = -1
    if mishap == "junk":
        junk_at = draw(st.integers(min_value=0, max_value=len(options) - 1))
    argv = [command]
    for i, option in enumerate(options):
        argv.append(option)
        if option != "--pp":
            argv.append(draw(_JUNK if i == junk_at else _value(command, option)))
    return argv


# tokens that the table parser declines or must read as argparse does
_ODD = ["-", "--", "-h", "--help", "-3..6", "-1,2", "-1", "-x", ""]


@st.composite
def _respelled_argvs(draw):
    # an `_argvs()` line with up to three respellings: an option joined to
    # its value by "=", an option given again, an abbreviated option, or
    # an odd token put anywhere
    argv = draw(_argvs())
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        how = draw(st.sampled_from(["join", "repeat", "abbreviate", "odd"]))
        i = draw(st.integers(min_value=0, max_value=len(argv)))
        token = argv[i] if i < len(argv) else ""
        if how == "odd":
            argv.insert(i, draw(st.sampled_from(_ODD)))
        elif not token.startswith("--"):
            continue
        elif how == "join" and i + 1 < len(argv):
            argv[i:i + 2] = [f"{token}={argv[i + 1]}"]
        elif how == "repeat":
            argv += [token, draw(st.one_of(_INTS, _PAIRS, _RANGES, st.sampled_from(_ODD)))]
        elif how == "abbreviate" and len(token) > 3:
            argv[i] = token[:draw(st.integers(min_value=3, max_value=len(token) - 1))]
    return argv


@settings(max_examples=300, deadline=None)
@given(_respelled_argvs())
@example(["coh", "--e=1", "--class=", "--t=-3..6", "--twist-by", "-1,2"])
@example(["coh", "--e", "1", "--class=--"])
@example(["check", "--e", "1", "--line", "1,1", "--wrt", "M", "--pp=x"])
@example(["coh", "--e", "1", "--class", "1,1", "--format=yaml"])
@example(["coh", "--e", "1", "--e", "2", "--class", "1,1", "--class", "2,2"])
def test_fuzzed_argv_parses_like_the_top_level_parser(argv):
    event(f"path {_parse_path(argv)}")
    want = _top_level_outcome(argv)
    got = _parse_outcome(cli._parse, argv)
    assert type(got) is type(want) and got == want


@settings(max_examples=150, deadline=None)
@given(_argvs())
def test_fuzzed_argv_gets_an_exit_code_and_one_diagnostic(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert out.getvalue() == ""
        prefix = "error: " if code == 2 else "domain error: "
        assert err.getvalue().startswith(prefix)
        assert err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""


# --- the range budget


@pytest.mark.parametrize(
    "argv,token",
    [
        ("coh --e 1 --class 1,1 --twist-by 1,1 --t 0..100000000", "0..100000000"),
        ("classify --e 1 --r 1 --u 0..100 --v 0..99", "0..100"),
        ("enumerate --e 1 --r 1 --u -50..50 --v 0..99", "-50..50"),
        ("oracle --e 1..5 --a -20..20 --b -20..30", "-20..30"),
        ("audit --e 1..1001", "1..1001"),
        ("audit --e 1..10001 --claims sum-criterion", "1..10001"),
    ],
)
def test_ranges_over_the_budget_are_refused_before_any_work(argv, token, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("computed past the budget check")

    for name in ("cohomology_profile", "classify_region", "run_audit", "h0", "oracle_h0"):
        monkeypatch.setattr(cli, name, refuse)
    code, out, err = run(argv.split(), capsys)
    assert (code, out) == (3, "")
    assert err.startswith("domain error: ") and err.count("\n") == 1
    assert token in err and f"the limit is {cli.ROW_BUDGET}" in err


@pytest.mark.parametrize(
    "box,steps",
    [
        ("--e 1 --a 10000000 --b -1", 10_000_001),  # ten million empty rows
        ("--e 1 --a 100000 --b 100000", 5_000_250_002),  # five billion points
        ("--e 1 --a -3000 --b -3000", 4_498_500),  # the rows and points of K - c
    ],
)
def test_an_oracle_walk_past_its_budget_is_refused_at_once(box, steps, capsys, monkeypatch):
    # one class can cost the brute-force counter minutes: the walk is
    # bounded from the box's corners before any class is counted
    monkeypatch.setattr(cli, "oracle_h0", lambda *args: pytest.fail("walked past the budget"))
    began = time.perf_counter()
    code, out, err = run(["oracle", *box.split()], capsys)
    assert time.perf_counter() - began < 1.0
    assert (code, out) == (3, "")
    assert err == (
        f"domain error: {box} would produce {steps} oracle steps; "
        f"the limit is {cli.ORACLE_BUDGET}\n"
    )


@pytest.mark.parametrize(
    "box",
    [
        "--e 1..5 --a -6..7 --b -8..10",  # the largest desk boxes
        "--e 1 --a 1400 --b 1400",  # one class, just inside the walk budget
    ],
)
def test_oracle_boxes_inside_the_walk_budget_answer(box, capsys):
    code, out, _ = run(["oracle", *box.split()], capsys)
    assert code == 0 and out.endswith(" 0 mismatches\n")


def test_rank_two_sweeps_budget_m_max_before_any_section_bounds(capsys, monkeypatch):
    # a rank-2 cell merges one section-count interval per m = 0..m_max,
    # each read from the construction kernel
    import hirzebruch.bundles as bundles

    def refuse(*args, **kwargs):
        raise AssertionError("computed past the budget check")

    monkeypatch.setattr(bundles, "_construction", refuse)
    for command in ("classify", "enumerate"):
        argv = [command, "--e", "1", "--r", "2", "--u", "0..0", "--v", "0..0", "--m-max", "100000000"]
        started = time.perf_counter()
        code, out, err = run(argv, capsys)
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (3, "")
        assert err == (
            "domain error: --u 0..0 --v 0..0 --m-max 100000000 would produce 100000001 "
            f"(cell, m) intervals; the limit is {cli.ROW_BUDGET}\n"
        )
    # two cells: m_max = 4999 fills the budget exactly, 5000 goes past it
    code, _, err = run(
        ["classify", "--e", "1", "--r", "2", "--u", "0..0", "--v", "0..1", "--m-max", "5000"], capsys
    )
    assert code == 3 and "10002 (cell, m) intervals" in err
    monkeypatch.undo()
    code, out, _ = run(
        ["classify", "--e", "1", "--r", "2", "--u", "0..0", "--v", "0..1", "--m-max", "4999",
         "--format", "csv"],
        capsys,
    )
    assert code == 0 and out.count("\n") == 3
    # rank-1 witnesses read no m, and a negative m_max keeps its own message
    code, out, _ = run(
        ["classify", "--e", "1", "--r", "1", "--u", "0..0", "--v", "0..0", "--m-max", "100000000"],
        capsys,
    )
    assert code == 0 and "Existent" in out
    code, _, err = run(
        ["classify", "--e", "1", "--r", "2", "--u", "0..0", "--v", "0..0", "--m-max", "-1"], capsys
    )
    assert (code, err) == (3, "domain error: m_max must be >= 0, got -1\n")


def test_a_range_at_the_budget_runs(capsys):
    code, out, _ = run(
        ["coh", "--e", "1", "--class", "1,1", "--twist-by", "0,1", "--t",
         f"1..{cli.ROW_BUDGET}", "--format", "csv"],
        capsys,
    )
    assert code == 0
    assert out.count("\n") == cli.ROW_BUDGET + 1
