"""The command-line contract: formats, exit codes, diagnostics."""

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
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from hirzebruch import (
    CLAIMS,
    DivisorClass,
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
    # named as the option, not by its value taken for the command
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


@pytest.mark.parametrize(
    "name,fault,problem",
    [
        ("h2", lambda real, surface, c: real(surface, c) + 1, "h2 1 != oracle 0"),
        (
            "h1_vanishes",
            lambda real, surface, c: not real(surface, c),
            "vanishing criterion disagrees with h1",
        ),
    ],
    ids=["h2", "h1_vanishes"],
)
def test_oracle_names_each_problem_it_finds(capsys, monkeypatch, name, fault, problem):
    # the h2 and vanishing-criterion checks, as the h0 one above: one
    # sabotaged class, exit 1 and the problem in its mismatch line
    real = getattr(cli, name)
    one = DivisorClass(1, 1)
    monkeypatch.setattr(
        cli, name, lambda surface, c: fault(real, surface, c) if c == one else real(surface, c)
    )
    code, out, _ = run(["oracle", "--e", "1..1", "--a", "0..2", "--b", "0..2"], capsys)
    assert code == 1
    assert out.splitlines() == ["checked 9 classes, 1 mismatches", f"  e=1 (1,1): {problem}"]


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
    assert commands == set(cli._GRAMMAR)
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
@example([{"class": "(0,1)", "reason": None, "tail": False}])
@example({"witness": [[0, 0], [2, 5]], "cells": [], "x": {}})
def test_json_writer_matches_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


def test_json_writer_treats_str_and_int_subclasses_as_json_does():
    class Tag(str, enum.Enum):
        A = "a\u00e9"

    two = enum.IntEnum("N", "ONE TWO").TWO
    # subclass members sit next to plain ints and True, as list members
    # and as dict values, so a bool written as 1 or an enum written by
    # name would show; a str-Enum key sits inside a nested dict
    value = {
        Tag.A: [Tag.A, two, 2, True, 1],
        "members": {"tag": Tag.A, "n": two, "int": 2, "bool": True, "nested": {Tag.A: two}},
    }
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
    # the checked `section_count_bounds` is one way to reach both
    for name in ("_family", "_range", "section_count_bounds"):
        counting(name)
    argv = ["construct", "--e", "1", "--u", "3", "--v", "2", "--m", "0", "--s"]
    code, out, _ = run(argv + ["3"], capsys)
    assert code == 0
    assert "admissible s in [3, 6]" in out
    # the ends once and the range twice, all in `construct_extension`: its
    # range check, made before anything is built, and the datum's own
    # s_range, read straight off its quotient end; the CLI reads the
    # datum's range and its Chern data and adds no evaluation of its own
    family, quotient_range = ("_family", (1, 1, 0, 3, 2, 0)), ("_range", (1, 2, 2, 0))
    assert calls == [family, quotient_range, quotient_range]
    calls.clear()
    code, _, err = run(argv + ["7"], capsys)
    assert (code, err) == (3, "domain error: need 3 <= s <= 6, got s = 7\n")
    # a refused s is decided by the range check alone
    assert calls == [family, quotient_range]


_ONE_OF_EACH_HANDLER = [
    ["coh", "--e", "1", "--class", "1,1"],
    ["coh", "--e", "2", "--class", "1,0", "--twist-by", "1,2", "--t", "0..2"],
    ["check", "--e", "1", "--line", "2,5", "--wrt", "M", "--pp"],
    ["construct", "--e", "1", "--u", "3", "--v", "2", "--m", "0", "--s", "3"],
    ["construct", "--e", "1", "--u", "2", "--v", "1", "--m", "1", "--s", "6"],
    ["classify", "--e", "1", "--r", "2", "--u", "0..2", "--v", "-3..1"],
    ["enumerate", "--e", "1", "--r", "1", "--u", "0..2", "--v", "-3..1"],
    ["audit", "--e", "1..2", "--claims", "sum-criterion,extension-natural"],
    ["oracle", "--e", "1", "--a", "-1..1", "--b", "-2..2"],
]


@pytest.mark.parametrize("argv", _ONE_OF_EACH_HANDLER, ids=" ".join)
def test_only_the_table_format_formats_table_lines(argv):
    # the transcript pins the table bytes; a JSON or CSV line prints no
    # table line, so its handler formats none
    for fmt in ("table", "json", "csv"):
        args = cli._parse_line(argv + ["--format", fmt])
        report = cli._GRAMMAR[args.command][0](args)
        assert (report.table_lines != []) == (fmt == "table"), fmt


@pytest.mark.parametrize("fmt, reads", [("table", 1), ("csv", 0), ("json", 1)])
def test_construct_reads_each_candidate_count_at_most_once(fmt, reads, capsys, monkeypatch):
    from hirzebruch import bundles

    real = bundles.StabilityReport.candidate_count
    counted = Counter()

    def count(report):
        counted[report.polarization.value] += 1
        return real.fget(report)

    monkeypatch.setattr(bundles.StabilityReport, "candidate_count", property(count))
    argv = ["construct", "--e", "1", "--u", "3", "--v", "2", "--m", "0", "--s", "3"]
    code, _, _ = run(argv + ["--format", fmt], capsys)
    assert code == 0
    # the table prints each count and JSON budgets the listing by it;
    # CSV prints only the verdicts
    assert counted == Counter({"R": reads, "M": reads})


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
    # only the verdicts' calls: one under M and at most 3 classes of the
    # R antidiagonal gamma + delta = ceil((u+v)/2) inside the box
    assert 1 <= len(exclusion_calls) <= 1 + 3
    assert all(a + b == (datum.u + datum.v + 1) // 2 for a, b in exclusion_calls[:-1])
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
    assert len(exclusion_calls) <= 1 + 3


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_construct_at_u_of_10_to_the_8_checks_a_bounded_stability_boundary(
    fmt, exclusion_calls, capsys
):
    # e = 1, u = v = 10^8: the verdicts check at most 3 classes under R
    # and one under M, whatever u is, and the counts are closed forms, so
    # table and CSV answer at once.  JSON would list (u + 1)^2 candidates,
    # u(u+1)/2 under R and (u+1)(u+2)/2 under M, and is refused first
    u = 10**8
    s = section_count_bounds(Surface(1), u, u, 0)[0]
    argv = ["construct", "--e", "1", "--u", str(u), "--v", str(u), "--m", "0", "--s", str(s)]
    started = time.perf_counter()
    code, out, err = run(argv + ["--format", fmt], capsys)
    assert time.perf_counter() - started < 1.0
    assert 2 <= len(exclusion_calls) <= 2 * 3
    if fmt == "json":
        assert (code, out) == (3, "")
        assert err == (
            f"domain error: --u {u} --v {u} --format json would produce {(u + 1) ** 2} "
            f"stability candidates; the limit is {cli.ROW_BUDGET}\n"
        )
    elif fmt == "table":
        assert (code, err) == (0, "")
        assert f"R: certified ({u * (u + 1) // 2} candidates)" in out
        assert f"M: certified ({(u + 1) * (u + 2) // 2} candidates)" in out
    else:
        assert (code, err) == (0, "")
        row = next(csv.DictReader(io.StringIO(out)))
        assert (row["stable_R"], row["stable_M"]) == ("True", "True")


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_check_extension_far_below_zero_answers_from_two_boxes(fmt, capsys, monkeypatch):
    # e = 1, v = u - 2, m = s = 0: a construction datum, so the verdict
    # reads the boxes of the twists m - 1 and m at any u, while the window
    # it reports runs to max(m, settle, reach) + 1 = 3 - u
    import hirzebruch.bundles as bundles

    real, boxes = bundles._box, []
    monkeypatch.setattr(bundles, "_box", lambda datum, t: boxes.append(t) or real(datum, t))
    for u in (-(10**8), -(10**12)):
        boxes.clear()
        line = ["--extension", f"{u},{u - 2},0,0", "--wrt", "M", "--format", fmt]
        started = time.perf_counter()
        code, out, err = run(["check", "--e", "1", *line], capsys)
        assert time.perf_counter() - started < 1.0
        assert (code, err) == (0, "")
        assert boxes == [-1, 0]
        if fmt == "table":
            assert out == "true (HOLDS)\n"
        elif fmt == "csv":
            assert out == "outcome,holds,witness_t,witness_h0,witness_h1\nHOLDS,True,,,\n"
        else:
            results = json.loads(out)["results"]
            assert results == {"outcome": "HOLDS", "holds": True, "scanned_t": [-1, 3 - u]}


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


def test_a_claim_named_twice_is_a_usage_error(capsys, monkeypatch):
    # it would be checked, printed and counted against the budget twice
    monkeypatch.setattr(cli, "run_audit", lambda *args: pytest.fail("audited a claim twice"))
    argv = ["audit", "--e", "1", "--claims", "sum-criterion,rank1-points,sum-criterion"]
    assert run(argv, capsys) == (2, "", "error: --claims names 'sum-criterion' more than once\n")


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
    "line",
    [COLD_CLI_EXAMPLES[0], "classify --e 2 --r 2 --u -3..6 --v -10..14 --format json", "--help"],
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
    assert cli.main(["coh", "--help"]) == 141
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


# --- one parser, and no state between lines


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

# one child interpreter imports the package, runs no line, and forks one
# process per case, so each line runs once in a process where no other
# line ran before it, with its format setting; the oracle's exit 1 needs a
# wrong closed form, h0 of (1,1) off by one.  A fork writes what it prints
# to two files that the child reads back after it exits
_FORKS = """\
import json, os, sys, tempfile
from hirzebruch import cli

real_h0 = cli.h0
results = []
for fmt, sabotage, line in json.loads(sys.argv[1]):
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        pid = os.fork()
        if not pid:
            os.dup2(out.fileno(), 1)
            os.dup2(err.fileno(), 2)
            if fmt is not None:
                os.environ["HIRZEBRUCH_FORMAT"] = fmt
            if sabotage:
                cli.h0 = lambda surface, c: real_h0(surface, c) + (c.a == 1 and c.b == 1)
            code = cli.main(line.split())
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        out.seek(0)
        err.seek(0)
        results.append((code, out.read().decode(sys.stdout.encoding),
                        err.read().decode(sys.stderr.encoding)))
print(json.dumps(results))
"""


def _fresh_processes(cases):
    """(exit code, stdout, stderr) of each case, each from its own fork."""
    env = {k: v for k, v in os.environ.items() if k != "HIRZEBRUCH_FORMAT"}
    proc = subprocess.run(
        [sys.executable, "-c", _FORKS, json.dumps(cases)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [tuple(result) for result in json.loads(proc.stdout)]


def test_parser_reuse_matches_fresh_processes(capsys, monkeypatch):
    expected = _fresh_processes(REUSE_CASES)
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


# lines that print help: the top level's, and a command's, given first or
# after other options
HELP_LINES = (
    "--help", "-h", "--he", "coh --help", "check -h", "construct --e 1 --help",
    "audit --claims bogus --help",
)


def test_warm_calls_add_no_argparse_actions(capsys, monkeypatch):
    # with argparse and gettext unimportable, every line, read, refused or
    # explained, answers again as it did first: no line builds an argparse
    # parser, cold or warm
    monkeypatch.delenv("HIRZEBRUCH_FORMAT", raising=False)
    lines = [line.split() for _, _, line in REUSE_CASES] + [line.split() for line in HELP_LINES]
    want = [run(argv, capsys) for argv in lines]
    assert {code for code, _, _ in want} == {0, 2, 3}
    monkeypatch.setitem(sys.modules, "argparse", None)
    monkeypatch.setitem(sys.modules, "gettext", None)
    for _ in range(2):
        assert [run(argv, capsys) for argv in lines] == want


# runs each help line through `cli.main` and prints the repr of its stdout,
# or its exit code when that is not 0
_HELP_PROBE = """\
import contextlib, io, sys
from hirzebruch import cli
for line in sys.argv[1:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(line.split())
    print(repr(out.getvalue()) if code == 0 else f"exit {code}")
"""


def test_help_does_not_read_the_terminal_width(capsys):
    # fresh interpreters, so a width read once at import shows as well
    outputs = []
    for columns in ("40", "200"):
        env = {**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": columns}
        done = subprocess.run(
            [sys.executable, "-c", _HELP_PROBE, *HELP_LINES],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, "")
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == len(HELP_LINES)
    for line, shown in zip(HELP_LINES, outputs[0].splitlines()):
        code, out, err = run(line.split(), capsys)
        assert (code, err, repr(out)) == (0, "", shown), line
        assert out.startswith("usage: hirzebruch"), line
        assert max(len(text) for text in out.splitlines()) <= 78, line


def _parse_outcome(argv):
    # the namespace, the UsageError text, or ("help", the help text)
    try:
        return cli._parse_line(argv)
    except cli.UsageError as err:
        return f"usage error: {err}"
    except cli._Help as shown:
        return "help", str(shown)


def _spells(token, flag):
    # `token` is `flag`, whole or a prefix of it, with or without "=value"
    spelled = token.partition("=")[0]
    return spelled == flag or (len(spelled) > 2 and flag.startswith(spelled))


def _assert_reads(argv, namespace):
    # one field per row of the command, in table order; each value given
    # is a token of the line, and the line written out with exact option
    # strings, each once, reads to the same namespace
    rows = cli._GRAMMAR[argv[0]][2]
    assert list(vars(namespace)) == ["command", *(option["dest"] for _, option in rows)]
    parts = {part for token in argv for part in (token, token.partition("=")[2])}
    spelled = [argv[0]]
    for flag, option in rows:
        value = getattr(namespace, option["dest"])
        if value == option.get("default"):
            assert not option.get("required"), flag
        elif "action" in option:
            assert value is True
            spelled.append(flag)
        else:
            assert (type(value) is int) if "type" in option else (value in parts), flag
            assert value in option.get("choices", (value,)), flag
            spelled.append(f"{flag}={value}")
    assert cli._parse_line(spelled) == namespace


def _assert_names_its_token(argv, message):
    # one line that names a token of the line, or the missing command or
    # options
    assert "\n" not in message
    parts = {part for token in argv for part in (token, token.partition("=")[2])}
    head, _, rest = message.partition(": ")
    if head == "the following arguments are required":
        if not argv:
            assert rest == "command"
            return
        rows = dict(cli._GRAMMAR[argv[0]][2])
        for flag in rest.split(", "):
            assert rows[flag].get("required") and not any(_spells(t, flag) for t in argv), flag
    elif head in ("unrecognized arguments", "ambiguous option"):
        assert rest.split(" ")[0] in argv
    elif head == "argument command":
        assert rest.startswith(f"invalid choice: {argv[0]!r} (choose from ")
    elif head.startswith("argument "):
        flag = head.removeprefix("argument ")
        flags = ["-h", "--help"] if flag == "-h/--help" else [flag]
        assert any(_spells(t, f) for t in argv for f in flags), message
        if rest != "expected one argument":
            assert re.search(r"'([^']*)'", rest)[1] in parts, message
    else:
        assert message == f"{argv[0].partition('=')[0]} must follow the command"


def _assert_explains(argv, outcome):
    # the help of the command the line opens with, or the top level's
    assert any(t == "-h" or _spells(t, "--help") for t in argv)
    command = argv[0] if argv[0] in cli._GRAMMAR else None
    assert outcome == ("help", cli._help(command))


def _assert_read_refused_or_explained(argv):
    outcome = _parse_outcome(argv)
    if isinstance(outcome, SimpleNamespace):
        _assert_reads(argv, outcome)
    elif isinstance(outcome, str):
        _assert_names_its_token(argv, outcome.removeprefix("usage error: "))
    else:
        _assert_explains(argv, outcome)
    return type(outcome).__name__


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
    return corpus + [line.split() for line in (*_SPELLED, *HELP_LINES)] + [[]]


_COMMAND_CHOICES = "'coh', 'check', 'construct', 'classify', 'enumerate', 'audit', 'oracle'"

# odd spellings and the line each reads as, or the refusal it gets
_SPELLED = {
    "coh --e 1 --cl 1,1": "coh --e 1 --class 1,1",
    "coh --e=1 --c=1,1": "coh --e 1 --class 1,1",
    "check --e 2 --l 1,0 --w M --p": "check --e 2 --line 1,0 --wrt M --pp",
    "check --e 2 --ex 2,1,0,0 --wrt M --form json":
        "check --e 2 --extension 2,1,0,0 --wrt M --format json",
    "bogus --e 1": f"argument command: invalid choice: 'bogus' (choose from {_COMMAND_CHOICES})",
    "COH --e 1": f"argument command: invalid choice: 'COH' (choose from {_COMMAND_CHOICES})",
    "--format json coh --e 1 --class 1,1": "--format must follow the command",
    "--e=1 coh --class 1,1": "--e must follow the command",
    "coh -- --e 1": "unrecognized arguments: --",
    "coh --e 1 --class 1,1 coh": "unrecognized arguments: coh",
    "coh --e 1 -1 --class 1,1": "unrecognized arguments: -1",
    "coh --e 1 --class -- 1,1": "argument --class: expected one argument",
    "coh --e 1 --class -x": "argument --class: expected one argument",
    "coh --e 1 --class --help": "argument --class: expected one argument",
    "coh --help=x": "argument -h/--help: ignored explicit argument 'x'",
    "coh --class 1,1 --twist-by 0,1": "the following arguments are required: --e",
    "oracle --a 0": "the following arguments are required: --e, --b",
}


def test_every_corpus_line_is_read_refused_or_explained():
    # the README and benchmark lines, each with one token broken, odd
    # spellings and help: each is read to a namespace, refused in one line
    # that names its token, or explained
    kinds = {_assert_read_refused_or_explained(argv) for argv in _parse_corpus()}
    assert kinds == {"SimpleNamespace", "str", "tuple"}
    for line, want in _SPELLED.items():
        got = _parse_outcome(line.split())
        if isinstance(got, SimpleNamespace):
            assert got == cli._parse_line(want.split()), line
        else:
            assert got == f"usage error: {want}", line


def test_an_ambiguous_prefix_is_refused_by_name(monkeypatch):
    # no two option strings of one command share a prefix today; one that
    # did would be refused, and an exact option string still read
    rows = cli._FLAGS["coh"]
    monkeypatch.setitem(cli._FLAGS, "coh", {**rows, "--classic": rows["--class"]})
    assert _parse_outcome(["coh", "--e", "1", "--clas=1,1"]) == (
        "usage error: ambiguous option: --clas=1,1 could match --class, --classic"
    )
    assert cli._parse_line(["coh", "--e", "1", "--class", "1,1"]).cls == "1,1"


# the namespace each line reads to, written out by hand: for each command,
# one line with only its required options and one with every option
_READS = {
    "coh --e 1 --class 1,1": dict(
        command="coh", e=1, cls="1,1", twist_by=None, t=None, format=None
    ),
    "coh --e -2 --class 0,-1 --twist-by 1,2 --t -3..6 --format json": dict(
        command="coh", e=-2, cls="0,-1", twist_by="1,2", t="-3..6", format="json"
    ),
    "check --e 1 --wrt M": dict(
        command="check", e=1, line=None, sum=None, ideal=None, extension=None, wrt="M",
        pp=False, format=None,
    ),
    "check --e 2 --line 1,0 --sum 0,0;1,1 --ideal fiber:2:1,4 --extension 2,1,0,0 --wrt 0,1 "
    "--pp --format csv": dict(
        command="check", e=2, line="1,0", sum="0,0;1,1", ideal="fiber:2:1,4",
        extension="2,1,0,0", wrt="0,1", pp=True, format="csv",
    ),
    "construct --e 1 --u 3 --v 2 --m 0 --s 3": dict(
        command="construct", e=1, u=3, v=2, m=0, s=3, format=None
    ),
    "construct --e 2 --u -3 --v 2 --m 1 --s 0 --format table": dict(
        command="construct", e=2, u=-3, v=2, m=1, s=0, format="table"
    ),
    "classify --e 1 --r 2 --u 0..1 --v -1..1": dict(
        command="classify", e=1, r=2, u="0..1", v="-1..1", m_max=0, format=None
    ),
    "classify --e 1 --r 2 --u 0..1 --v -1..1 --m-max 3 --format json": dict(
        command="classify", e=1, r=2, u="0..1", v="-1..1", m_max=3, format="json"
    ),
    "enumerate --e 2 --r 1 --u 0 --v 0": dict(
        command="enumerate", e=2, r=1, u="0", v="0", m_max=0, format=None
    ),
    "enumerate --e 2 --r 1 --u 0 --v 0 --m-max -1 --format csv": dict(
        command="enumerate", e=2, r=1, u="0", v="0", m_max=-1, format="csv"
    ),
    "audit": dict(command="audit", claims=None, e="1..4", format=None),
    "audit --claims sum-criterion --e 2..3 --format json": dict(
        command="audit", claims="sum-criterion", e="2..3", format="json"
    ),
    "oracle --e 1 --a 0..1 --b -1..1": dict(
        command="oracle", e="1", a="0..1", b="-1..1", format=None
    ),
    "oracle --e 1 --a 0..1 --b -1..1 --format csv": dict(
        command="oracle", e="1", a="0..1", b="-1..1", format="csv"
    ),
}

# the row keywords that `_parse_line` and `_help` read
_ROW_KEYWORDS = {"dest", "type", "required", "default", "choices", "metavar", "help", "action"}


def test_every_sub_parser_matches_the_option_table():
    # each command reads the lines above to the namespaces written out
    # there: field names and order, and each row's type, default and flag;
    # and each row refuses its line in the way its keywords say
    for line, want in _READS.items():
        assert list(vars(cli._parse_line(line.split())).items()) == list(want.items()), line
    for name, (_, _, rows) in cli._GRAMMAR.items():
        lines = [line.split() for line in _READS if line.split()[0] == name]
        bare = min(lines, key=len)
        for flag, option in rows:
            assert set(option) <= _ROW_KEYWORDS and "dest" in option, (name, flag)
            assert option.get("type", int) is int, (name, flag)
            assert option.get("action", "store_true") == "store_true", (name, flag)
            assert any(flag in argv for argv in lines), (name, flag)
            if option.get("required"):
                i = bare.index(flag)
                assert _parse_outcome(bare[:i] + bare[i + 2:]) == (
                    f"usage error: the following arguments are required: {flag}"
                )
            else:
                assert flag not in bare, (name, flag)
            if "type" in option:
                assert _parse_outcome(bare + [flag, "1.5"]) == (
                    f"usage error: argument {flag}: invalid int value: '1.5'"
                )
            if "choices" in option:
                assert _parse_outcome(bare + [f"{flag}=yaml"]) == (
                    f"usage error: argument {flag}: invalid choice: 'yaml' "
                    "(choose from 'table', 'csv', 'json')"
                )
            if "action" in option:
                assert _parse_outcome(bare + [f"{flag}=x"]) == (
                    f"usage error: argument {flag}: ignored explicit argument 'x'"
                )
            else:
                assert _parse_outcome(bare + [flag]) == (
                    f"usage error: argument {flag}: expected one argument"
                )


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


# tokens that open with "-" or are empty, read as values, options or strays
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
def test_fuzzed_argv_is_read_refused_or_explained(argv):
    event(f"outcome {_assert_read_refused_or_explained(argv)}")


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
    # each read from the family kernels
    import hirzebruch.bundles as bundles

    def refuse(*args, **kwargs):
        raise AssertionError("computed past the budget check")

    for kernel in ("_family", "_range"):
        monkeypatch.setattr(bundles, kernel, refuse)
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
