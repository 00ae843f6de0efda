"""Command-line front end.

Subcommands: coh (cohomology of a class, optionally along a twist range),
check (natural / unconditional vanishing of a model w.r.t. a twisting
class), construct (rank-2 extension with certificates and stability),
classify / enumerate (region sweeps), audit (desk-scale claim checks),
oracle (closed form vs brute force).

Output formats: table (default), csv, json; the HIRZEBRUCH_FORMAT
environment variable changes the default.  JSON output is one object with
fields command, inputs, results, findings, in that order, deterministic
for fixed inputs, in the layout of `json.dumps(record, indent=2)`.  The
package's own writer, `_json_text`, writes it, and spells each str, int,
bool and None by one type table, `_SCALARS`.  `main` resolves the format
before the command's handler runs, and a handler formats table lines only
for the table format: a JSON or CSV report's `table_lines` is empty.
Exit codes: 0 success, 1 oracle mismatch, 2 usage error, 3 domain error,
141 the reader closed the output pipe early (nothing is printed then).
The top-level help prints `_DESCRIPTION`, not this docstring.

Budgets: a command that would do more work than one of these counts is a
domain error, refused with one line before that work starts.
  - ROW_BUDGET caps the rows of `coh --t`, the cells of `classify` and
    `enumerate` (for rank 2, cells times (m_max + 1): one section-count
    interval per cell and m), the classes of an `oracle` box, the claim
    checks of `audit` (surfaces times claims), and the stability
    candidates that a JSON `construct` lists.
  - ORACLE_BUDGET caps the lattice walk of an `oracle` box, bounded from
    the box's corners.
The stability verdicts and candidate counts of `construct` and the audit
verdict of `check --extension` take a fixed number of operations at any
(u, v), so they have no budget (`construct`'s table and CSV forms).

Each command's options are defined once, in an option table whose rows
are an option string and its keywords.  One function, `_parse_line`,
reads every command line off that table: it returns the namespace of a
well-formed line and refuses any other with one usage error that names
the offending token.  The help text is rendered from the same table, at
a fixed width of 78 columns.
"""

from __future__ import annotations

import io
import os
import sys
from collections import Counter
from types import SimpleNamespace
from typing import Any, Callable, Optional, Sequence

try:
    # the C escaper that `json.encoder` itself uses, without loading the
    # rest of the `json` package
    from _json import encode_basestring_ascii
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import encode_basestring_ascii

from .audit import CLAIMS, run_audit
from .bundles import (
    audit_extension_natural,
    classify_region,
    construct_extension,
    stability_certificate,
)
from .cohomology import (
    CohomologyTriple,
    cohomology_profile,
    h0,
    h1,
    h2,
    h1_vanishes,
    oracle_h0,
    sections,
    triple,
)
from .natural import (
    DirectSum,
    Line,
    SheafModel,
    direct_sum_natural_wrt_m,
    line_natural_wrt_m,
    line_natural_wrt_r,
    line_unconditional_wrt_m,
    scan_verdict,
    unconditional_scan,
)
from .picard import DivisorClass, DomainError, Record, Surface
from .sheaves import IdealSheafModel, Locus, PointConfig

FORMATS = ("table", "csv", "json")

_DESCRIPTION = (
    "Cohomology of line bundles, ideal sheaves and rank-2 extensions on the "
    "Hirzebruch surface F_e, and checks of natural cohomology under twisting. "
    "Exit codes: 0 success, 1 oracle mismatch, 2 usage error, 3 domain error, "
    "141 output closed early."
)

# the most rows, cells, classes, claim checks or listed stability
# candidates one command may produce (the module docstring names each);
# desk-sized queries stay far below this
ROW_BUDGET = 10_000

# `oracle_h0` walks lattice points and rows one by one, so an `oracle` box
# is also capped by a bound on that walk, read off the box's corners
ORACLE_BUDGET = 1_000_000

# the reader closed stdout before the report was written: 128 + SIGPIPE,
# the status a shell gives a pipeline stage that SIGPIPE ended
CLOSED_PIPE = 141


class UsageError(Exception):
    pass


class _Help(Exception):
    """A line that asks for help: `main` prints the text this carries and
    returns 0, like any other line that succeeds."""


# ---------------------------------------------------------------------------
# token parsing; every failure names the offending token


def _parse_int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise UsageError(f"{what}: not an integer: '{token}'") from None


def _parse_pair(token: str) -> DivisorClass:
    parts = token.split(",")
    if len(parts) != 2:
        raise UsageError(f"class must be 'A,B': '{token}'")
    return DivisorClass(_parse_int(parts[0], "class"), _parse_int(parts[1], "class"))


def _parse_range(token: str) -> tuple[int, int]:
    try:
        if ".." in token:
            lo_s, _, hi_s = token.partition("..")
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(token)
    except ValueError:
        raise UsageError(f"range must be 'FROM..TO' with integers: '{token}'") from None
    if lo > hi:
        raise UsageError(f"range is empty: '{token}'")
    return lo, hi


def _parse_sum(token: str) -> list[DivisorClass]:
    items = [part for part in token.split(";") if part != ""]
    if not items:
        raise UsageError(f"sum must be 'U1,V1;U2,V2;...': '{token}'")
    return [_parse_pair(part) for part in items]


def _parse_ideal(token: str) -> tuple[Locus, int, DivisorClass]:
    parts = token.split(":")
    if len(parts) != 3:
        raise UsageError(f"ideal must be 'LOCUS:Z:U,V': '{token}'")
    locus_s, z_s, cls_s = parts
    try:
        locus = Locus(locus_s)
    except ValueError:
        raise UsageError(
            f"locus must be one of general, section, fiber: '{locus_s}'"
        ) from None
    return locus, _parse_int(z_s, "ideal point count"), _parse_pair(cls_s)


def _parse_extension(token: str) -> tuple[int, int, int, int]:
    parts = token.split(",")
    if len(parts) != 4:
        raise UsageError(f"extension must be 'U,V,M,S': '{token}'")
    u, v, m, s = (_parse_int(p, "extension") for p in parts)
    return u, v, m, s


def _check_budget(count: int, ranges: str, unit: str, limit: int = ROW_BUDGET) -> None:
    if count > limit:
        raise DomainError(f"{ranges} would produce {count} {unit}; the limit is {limit}")


def _parse_wrt(token: str, surface: Surface) -> DivisorClass:
    if token == "M":
        return surface.m_class()
    if token == "R":
        return surface.r_class()
    return _parse_pair(token)


# ---------------------------------------------------------------------------
# output plumbing


class Report(Record):
    """One invocation's output record, renderable in all three formats.

    JSON carries `results` and `findings`.  CSV writes `rows` under the
    header `columns`: a key a row lacks is an empty cell, and a list cell
    is a run of inclusive intervals, written `lo..hi;lo..hi`.  The table
    format prints `table_lines`, which is empty unless the format is
    `table`: no handler formats a line that its format does not print.
    """

    # built once per call and read once, by `render`: a dict layout, like
    # `natural.Verdict`'s, builds fastest
    _fields = (
        "command", "inputs", "results", "columns", "rows", "table_lines", "findings", "exit_code"
    )

    def __init__(
        self,
        command: str,
        inputs: dict[str, Any],
        results: dict[str, Any],
        columns: list[str],
        rows: list[dict[str, Any]],
        table_lines: list[str],
        findings: Optional[list[dict[str, Any]]] = None,
        exit_code: int = 0,
    ) -> None:
        fields = self.__dict__
        fields["command"] = command
        fields["inputs"] = inputs
        fields["results"] = results
        fields["columns"] = columns
        fields["rows"] = rows
        fields["table_lines"] = table_lines
        fields["findings"] = [] if findings is None else findings
        fields["exit_code"] = exit_code

    def render(self, fmt: str) -> str:
        if fmt == "json":
            record = {
                "command": self.command,
                "inputs": self.inputs,
                "results": self.results,
                "findings": self.findings,
            }
            return _json_text(record)
        if fmt == "csv":
            import csv

            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow([_csv_cell(row.get(name, "")) for name in self.columns])
            return buf.getvalue().rstrip("\n")
        return "\n".join(self.table_lines)


# how `_json_text` writes a value whose type is exactly one of these: the
# one place that says how each JSON scalar is spelt, each by a C-level call
_SCALARS: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _json_text(value: Any, indent: str = "\n") -> str:
    """`value` in the layout of `json.dumps(value, indent=2)`.

    `json` turns its C encoder off when asked to indent, so the record is
    written here, with the same C string escaper.  The value, and each
    member of a dict, list or tuple, is looked up once in `_SCALARS` by its
    exact type; only nested containers and other types recurse.  str and
    int subclasses are written as `json` writes them, and any other type,
    a non-str key included, raises TypeError.
    """
    kind = type(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        items = []
        for key, member in value.items():
            write = _SCALARS.get(type(member))
            text = write(member) if write else _json_text(member, inner)
            items.append(encode_basestring_ascii(key) + ": " + text)
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = indent + "  "
        items = []
        for member in value:
            write = _SCALARS.get(type(member))
            items.append(write(member) if write else _json_text(member, inner))
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if write := _SCALARS.get(kind):
        return write(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _csv_cell(value: Any) -> Any:
    return _intervals_str(value) if isinstance(value, list) else value


def _intervals_str(intervals: Sequence[Sequence[int]]) -> str:
    return ";".join(f"{lo}..{hi}" for lo, hi in intervals)


def _triple_dict(values: CohomologyTriple) -> dict[str, int]:
    return {"h0": values.h0, "h1": values.h1, "h2": values.h2, "chi": values.chi()}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_coh(args: SimpleNamespace) -> Report:
    surface = Surface(args.e)
    cls = _parse_pair(args.cls)
    if (args.twist_by is None) != (args.t is None):
        raise UsageError("--twist-by and --t must be given together")
    if args.twist_by is None:
        results = _triple_dict(triple(surface, cls))
        lines = []
        if args.format == "table":
            lines.append(f"h0={results['h0']} h1={results['h1']} h2={results['h2']}")
        inputs = {"e": args.e, "class": args.cls}
        return Report("coh", inputs, results, ["h0", "h1", "h2", "chi"], [results], lines)

    by = _parse_pair(args.twist_by)
    t_lo, t_hi = _parse_range(args.t)
    _check_budget(t_hi - t_lo + 1, f"--t {args.t}", "rows")
    rows = [
        {"t": t, **_triple_dict(values)}
        for t, values in cohomology_profile(surface, cls, by, t_lo, t_hi)
    ]
    lines = [
        f"t={r['t']:>3}  h0={r['h0']} h1={r['h1']} h2={r['h2']} chi={r['chi']}" for r in rows
    ] if args.format == "table" else []
    inputs = {"e": args.e, "class": args.cls, "twist_by": args.twist_by, "t": args.t}
    return Report("coh", inputs, {"rows": rows}, ["t", "h0", "h1", "h2", "chi"], rows, lines)


def _check_model(args: SimpleNamespace, kind: str) -> tuple[SheafModel, dict[str, Any]]:
    if kind == "line":
        return Line(_parse_pair(args.line)), {"line": args.line}
    if kind == "sum":
        return DirectSum(_parse_sum(args.sum)), {"sum": args.sum}
    locus, z, cls = _parse_ideal(args.ideal)
    return (
        IdealSheafModel(PointConfig(z=z, locus=locus), cls),
        {"ideal": args.ideal},
    )


def _cmd_check(args: SimpleNamespace) -> Report:
    surface = Surface(args.e)
    given = [name for name in ("line", "sum", "ideal", "extension") if getattr(args, name)]
    if len(given) != 1:
        raise UsageError("exactly one of --line, --sum, --ideal, --extension is required")
    closed = None
    if given == ["extension"]:
        if args.wrt != "M":
            raise UsageError("--extension checks are defined w.r.t. M only")
        u, v, m, s = _parse_extension(args.extension)
        if args.pp:
            raise UsageError("--pp applies to line, sum, and ideal models only")
        inputs = {"e": args.e, "extension": args.extension, "wrt": "M"}
        evidence = audit_extension_natural(construct_extension(surface, u, v, m, s))
    else:
        model, model_inputs = _check_model(args, given[0])
        by = _parse_wrt(args.wrt, surface)
        inputs = {"e": args.e, **model_inputs, "wrt": args.wrt, "pp": bool(args.pp)}
        scan = unconditional_scan if args.pp else scan_verdict
        evidence = scan(surface, model, by)
        closed = _closed_form(surface, model, args.wrt, bool(args.pp))

    verdict = evidence.verdict
    results: dict[str, Any] = {"outcome": verdict.outcome.value, "holds": verdict.holds()}
    if verdict.witness_t is not None:
        results["witness_t"] = verdict.witness_t
        results["witness_h0"] = verdict.witness_h0
        results["witness_h1"] = verdict.witness_h1
    lines = []
    if args.format == "table":
        line = f"{str(results['holds']).lower()} ({results['outcome']})"
        if verdict.witness_t is not None:
            line += f" witness t={verdict.witness_t} (h0,h1)=({verdict.witness_h0},{verdict.witness_h1})"
        lines.append(line)
    results["scanned_t"] = [evidence.scan_start, evidence.scan_stop]
    if closed is not None:
        results["closed_form"] = closed
    columns = ["outcome", "holds", "witness_t", "witness_h0", "witness_h1"]
    return Report("check", inputs, results, columns, [results], lines)


def _closed_form(surface: Surface, model: SheafModel, wrt: str, two_sided: bool) -> Optional[bool]:
    if isinstance(model, Line):
        if wrt == "M":
            if two_sided:
                return line_unconditional_wrt_m(surface, model.cls)
            return line_natural_wrt_m(surface, model.cls)
        if wrt == "R" and not two_sided:
            return line_natural_wrt_r(surface, model.cls)
    if isinstance(model, DirectSum) and wrt == "M" and not two_sided:
        return direct_sum_natural_wrt_m(surface, list(model.classes))
    return None


_CONSTRUCT_COLUMNS = [
    "e", "u", "v", "m", "s", "sub", "quotient_class", "c2",
    "section_min", "cayley_bacharach", "ext_forced_split",
    "s_lo", "s_hi", "stable_R", "stable_M",
]


def _cmd_construct(args: SimpleNamespace) -> Report:
    surface = Surface(args.e)
    inputs = {"e": args.e, "u": args.u, "v": args.v, "m": args.m, "s": args.s}
    datum = construct_extension(surface, args.u, args.v, args.m, args.s)
    a_lo, b_hi = datum.s_range
    chern = datum.chern()
    results = {
        "sub": str(datum.sub),
        "quotient_class": str(datum.quotient.cls),
        "points": datum.s,
        "s_range": [a_lo, b_hi],
        "c1": str(chern.c1),
        "c2": chern.c2,
        "section_min": datum.section_min,
        "cayley_bacharach": datum.cayley_bacharach,
        "ext_forced_split": datum.ext_forced_split,
    }
    row = {**inputs, **results, "s_lo": a_lo, "s_hi": b_hi}
    table = args.format == "table"
    lines = [
        f"extension 0 -> O{datum.sub} -> E -> I_Z{datum.quotient.cls} -> 0, |Z| = {datum.s}",
        f"c1 = {chern.c1}, c2 = {chern.c2}, admissible s in [{a_lo}, {b_hi}]",
        f"section_min={datum.section_min} cayley_bacharach={datum.cayley_bacharach} "
        f"ext_forced_split={datum.ext_forced_split}",
    ] if table else []
    if args.m != 0:
        results["stability"] = "only computed for m = 0"
        if table:
            lines.append("stability: only computed for m = 0")
        return Report("construct", inputs, results, _CONSTRUCT_COLUMNS, [row], lines)
    reports = [stability_certificate(datum, pol) for pol in ("R", "M")]
    for report in reports:
        pol = report.polarization.value
        row[f"stable_{pol}"] = report.certified
        if table:
            status = "certified" if report.certified else "NOT certified"
            lines.append(
                f"stability w.r.t. {pol}: {status} ({report.candidate_count} candidates)"
                + (f" warnings: {'; '.join(report.warnings)}" if report.warnings else "")
            )
    # only JSON lists the candidates, and only the table prints their
    # counts, so each format reads each count at most once
    if args.format == "json":
        _check_budget(
            sum(report.candidate_count for report in reports),
            f"--u {args.u} --v {args.v} --format json", "stability candidates",
        )
        results["stability"] = {
            report.polarization.value: {
                "certified": report.certified,
                "candidates": [
                    {"class": str(c.cls), "reason": c.reason, "tail": c.tail}
                    for c in report.candidates
                ],
                "warnings": list(report.warnings),
            }
            for report in reports
        }
    return Report("construct", inputs, results, _CONSTRUCT_COLUMNS, [row], lines)


def _cmd_classify(args: SimpleNamespace) -> Report:
    surface = Surface(args.e)
    u_lo, u_hi = u_range = _parse_range(args.u)
    v_lo, v_hi = v_range = _parse_range(args.v)
    cell_count = (u_hi - u_lo + 1) * (v_hi - v_lo + 1)
    _check_budget(cell_count, f"--u {args.u} --v {args.v}", "cells")
    if args.r == 2:
        # each cell merges one section-count interval per m; rank-1
        # witnesses read no m.  A negative m_max is left to classify_region
        _check_budget(
            cell_count * (args.m_max + 1),
            f"--u {args.u} --v {args.v} --m-max {args.m_max}", "(cell, m) intervals",
        )
    inputs = {
        "e": args.e,
        "r": args.r,
        "u": args.u,
        "v": args.v,
        "m_max": args.m_max,
    }
    cells = [
        {
            "u": cell.u,
            "v": cell.v,
            "label": cell.label.value,
            "witness": [list(pair) for pair in cell.witness],
        }
        for cell in classify_region(surface, args.r, u_range, v_range, args.m_max)
    ]
    lines = [
        f"u={c['u']:>3} v={c['v']:>3}  {c['label']:<12} {_intervals_str(c['witness'])}"
        for c in cells
    ] if args.format == "table" else []
    columns = ["u", "v", "label", "witness"]
    return Report(args.command, inputs, {"cells": cells}, columns, cells, lines)


_FINDING_COLUMNS = ["claim", "e", "status", "subject", "detail"]


def _cmd_audit(args: SimpleNamespace) -> Report:
    e_lo, e_hi = _parse_range(args.e)
    if args.claims is None:
        claims = None
    else:
        claims = [token for token in args.claims.split(",") if token]
        if not claims:
            raise UsageError(f"--claims names no claim: '{args.claims}'")
        for name, count in Counter(claims).items():
            if name not in CLAIMS:
                raise UsageError(f"unknown claim '{name}'; valid: {', '.join(CLAIMS)}")
            if count > 1:
                raise UsageError(f"--claims names '{name}' more than once")
    _check_budget(
        (e_hi - e_lo + 1) * len(CLAIMS if claims is None else claims),
        f"--e {args.e}", "claim checks",
    )
    findings = [
        {name: getattr(f, name) for name in _FINDING_COLUMNS}
        for f in run_audit(range(e_lo, e_hi + 1), claims)
    ]
    inputs = {"claims": args.claims or "all", "e": args.e}
    by_status = Counter(f["status"] for f in findings)
    results = {"checked": len(findings), "by_status": dict(sorted(by_status.items()))}
    lines = [
        f"[{f['status']:^13}] {f['claim']} (e={f['e']}): {f['subject']} -- {f['detail']}"
        for f in findings
    ] if args.format == "table" else []
    return Report("audit", inputs, results, _FINDING_COLUMNS, findings, lines, findings)


def _cmd_oracle(args: SimpleNamespace) -> Report:
    e_lo, e_hi = _parse_range(args.e)
    a_lo, a_hi = _parse_range(args.a)
    b_lo, b_hi = _parse_range(args.b)
    ranges = f"--e {args.e} --a {args.a} --b {args.b}"
    classes = (e_hi - e_lo + 1) * (a_hi - a_lo + 1) * (b_hi - b_lo + 1)
    _check_budget(classes, ranges, "classes")
    # per class, oracle_h0 walks |a + 1| rows and the h0 + h2 points of c
    # and K - c; h0 and h2 fall as e grows and grow toward a box corner
    Surface(e_lo)  # refuses e < 1, which `sections` would divide by
    rows = max(abs(a_lo + 1), abs(a_hi + 1))
    points = sections(e_lo, a_hi, b_hi) + sections(e_lo, -2 - a_lo, -e_lo - 2 - b_lo)
    _check_budget(classes * (rows + points), ranges, "oracle steps", ORACLE_BUDGET)
    inputs = {"e": args.e, "a": args.a, "b": args.b}
    checked = 0
    mismatches = []
    for e in range(e_lo, e_hi + 1):
        surface = Surface(e)
        k = surface.canonical_class()
        for a in range(a_lo, a_hi + 1):
            for b in range(b_lo, b_hi + 1):
                cls = DivisorClass(a, b)
                checked += 1
                closed0 = h0(surface, cls)
                brute0 = oracle_h0(surface, cls)
                closed2 = h2(surface, cls)
                brute2 = oracle_h0(surface, k - cls)
                val1 = h1(surface, cls)
                problems = []
                if closed0 != brute0:
                    problems.append(f"h0 {closed0} != oracle {brute0}")
                if closed2 != brute2:
                    problems.append(f"h2 {closed2} != oracle {brute2}")
                # no chi check: `counts` defines h1 as h0 + h2 - chi from the
                # kernel that h0 and h2 read, so h0 - h1 + h2 = chi always
                if h1_vanishes(surface, cls) != (val1 == 0):
                    problems.append("vanishing criterion disagrees with h1")
                if problems:
                    mismatches.append(
                        {"e": e, "a": a, "b": b, "problems": "; ".join(problems)}
                    )
    results = {"classes_checked": checked, "mismatches": len(mismatches)}
    lines = []
    if args.format == "table":
        lines.append(f"checked {checked} classes, {len(mismatches)} mismatches")
        lines += [f"  e={m['e']} ({m['a']},{m['b']}): {m['problems']}" for m in mismatches[:20]]
    return Report(
        "oracle", inputs, results, ["classes_checked", "mismatches"], [results], lines,
        mismatches, exit_code=1 if mismatches else 0,
    )


# ---------------------------------------------------------------------------
# parser assembly and entry point


# one row of a command's option table: an option string and its keywords.
# `dest` names the namespace field the value goes to; `type` (int)
# converts the value, `choices` bounds it, `required` refuses a line
# without the option, `default` fills the field when the option is
# absent, and `action="store_true"` makes a flag that takes no value.
# `metavar` (the field's name in capitals by default) and `help` are read
# only by the help text
_Row = tuple[str, dict[str, Any]]

_E: _Row = ("--e", dict(dest="e", type=int, required=True))
_FORMAT: _Row = ("--format", dict(dest="format", choices=FORMATS, metavar="{table,csv,json}"))
_REGION = (
    _E,
    ("--r", dict(dest="r", type=int, required=True)),
    ("--u", dict(dest="u", required=True, metavar="FROM..TO")),
    ("--v", dict(dest="v", required=True, metavar="FROM..TO")),
    ("--m-max", dict(dest="m_max", type=int, default=0)),
    _FORMAT,
)

# each command's handler, help line and options, in `--help` order: the
# one definition of the grammar, read by `main`, `_parse_line` and `_help`
_GRAMMAR: dict[str, tuple[Callable[[SimpleNamespace], Report], str, tuple[_Row, ...]]] = {
    "coh": (_cmd_coh, "cohomology of a divisor class", (
        _E,
        ("--class", dict(dest="cls", required=True, metavar="A,B")),
        ("--twist-by", dict(dest="twist_by", metavar="A,B")),
        ("--t", dict(dest="t", metavar="FROM..TO")),
        _FORMAT,
    )),
    "check": (_cmd_check, "natural / unconditional vanishing checks", (
        _E,
        ("--line", dict(dest="line", metavar="U,V")),
        ("--sum", dict(dest="sum", metavar="U1,V1;U2,V2;...")),
        ("--ideal", dict(dest="ideal", metavar="LOCUS:Z:U,V")),
        ("--extension", dict(dest="extension", metavar="U,V,M,S")),
        ("--wrt", dict(dest="wrt", required=True, metavar="M|R|A,B")),
        ("--pp", dict(
            dest="pp", action="store_true", default=False,
            help="require vanishing at every twist, not only where sections exist",
        )),
        _FORMAT,
    )),
    "construct": (_cmd_construct, "rank-2 extension with certificates", (
        _E,
        ("--u", dict(dest="u", type=int, required=True)),
        ("--v", dict(dest="v", type=int, required=True)),
        ("--m", dict(dest="m", type=int, required=True)),
        ("--s", dict(dest="s", type=int, required=True)),
        _FORMAT,
    )),
    "classify": (_cmd_classify, "label a (u, v) region", _REGION),
    "enumerate": (_cmd_classify, "classify with CSV output by default", _REGION),
    "audit": (_cmd_audit, "desk-scale claim verification", (
        ("--claims", dict(dest="claims", metavar="NAME,NAME,...")),
        ("--e", dict(dest="e", default="1..4", metavar="FROM..TO")),
        _FORMAT,
    )),
    "oracle": (_cmd_oracle, "closed form vs brute force", (
        ("--e", dict(dest="e", required=True, metavar="FROM..TO")),
        ("--a", dict(dest="a", required=True, metavar="FROM..TO")),
        ("--b", dict(dest="b", required=True, metavar="FROM..TO")),
        _FORMAT,
    )),
}

# -h and --help, which the top level and every command take
_HELP = {"action": "help"}
_TOP_FLAGS = {"-h": _HELP, "--help": _HELP}

# for `_parse_line`: each command's rows by option string, -h and --help
# first, and its namespace before any option is read
_FLAGS = {name: {**_TOP_FLAGS, **dict(rows)} for name, (_, _, rows) in _GRAMMAR.items()}
_DEFAULTS = {
    name: {"command": name, **{option["dest"]: option.get("default") for _, option in rows}}
    for name, (_, _, rows) in _GRAMMAR.items()
}

# help is laid out for this many columns, whatever the terminal's width;
# an option's help text starts at column _HELP_COLUMN
_HELP_WIDTH = 78
_HELP_COLUMN = 24


def _default_format(command: str) -> str:
    env = os.environ.get("HIRZEBRUCH_FORMAT", "")
    if env in FORMATS:
        return env
    return "csv" if command == "enumerate" else "table"


def _parse_line(argv: Sequence[str]) -> SimpleNamespace:
    """The namespace of `argv`: its command, then one field per row of
    that command's table, in table order.

    Options follow the command in any order, each an option string or a
    unique prefix of one.  A value option takes `=value`, or else the next
    token unless that opens with "-" and is not a negative number.  The
    last occurrence wins.  Any other line is refused with one UsageError
    naming the first offending token, or else the missing options.  -h
    or --help raises `_Help` with the help text."""
    command = argv[0] if argv else None
    flags = _FLAGS.get(command)
    tokens = iter(argv[1:])
    if flags is None:
        if command is None:
            raise UsageError("the following arguments are required: command")
        flag = command.partition("=")[0]
        if flag != "-h" and not (len(flag) > 2 and "--help".startswith(flag)):
            if any(flag in options for options in _FLAGS.values()):
                raise UsageError(f"{flag} must follow the command")
            raise _invalid_choice("command", command, _GRAMMAR)
        # the top-level help: the loop below reads the lead as -h or --help
        command, flags, tokens = None, _TOP_FLAGS, iter(argv)
    values = dict(_DEFAULTS.get(command, {}))
    for token in tokens:
        flag, eq, value = token.partition("=")
        option = flags.get(flag)
        if option is None:  # a unique prefix of an option string, or refused
            matches = [name for name in flags if name.startswith(flag)] if len(flag) > 2 else []
            if not matches:
                raise UsageError(f"unrecognized arguments: {token}")
            if len(matches) > 1:
                raise UsageError(f"ambiguous option: {token} could match {', '.join(matches)}")
            flag, option = matches[0], flags[matches[0]]
        if "action" in option:  # help, or store_true
            if eq:
                name = "-h/--help" if option is _HELP else flag
                raise UsageError(f"argument {name}: ignored explicit argument {value!r}")
            if option is _HELP:
                raise _Help(_help(command))
            values[option["dest"]] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-") and not value[1:2].isdecimal():
                raise UsageError(f"argument {flag}: expected one argument")
        if "type" in option:
            try:
                value = option["type"](value)
            except ValueError:
                raise UsageError(f"argument {flag}: invalid int value: {value!r}") from None
        if "choices" in option and value not in option["choices"]:
            raise _invalid_choice(flag, value, option["choices"])
        values[option["dest"]] = value
    rows = _GRAMMAR[command][2]
    missing = [flag for flag, kw in rows if kw.get("required") and values[kw["dest"]] is None]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(**values)


def _invalid_choice(name: str, value: str, choices: Sequence[str]) -> UsageError:
    listed = ", ".join(map(repr, choices))
    return UsageError(f"argument {name}: invalid choice: {value!r} (choose from {listed})")


def _help(command: Optional[str]) -> str:
    """The help text of `command`, or the top level's for None."""
    entries = [("-h, --help", "show this help message and exit")]
    if command is None:
        prog, choices = "hirzebruch", "{" + ",".join(_GRAMMAR) + "}"
        parts = ["[-h]", choices + " ..."]
        body = ["", *_wrap(_DESCRIPTION.split(), 0), "", "positional arguments:", "  " + choices]
        body += [f"    {name:<{_HELP_COLUMN - 4}}{text}" for name, (_, text, _) in _GRAMMAR.items()]
    else:
        prog, parts, body = f"hirzebruch {command}", ["[-h]"], []
        for flag, option in _GRAMMAR[command][2]:
            metavar = option.get("metavar", option["dest"].upper())
            usage = flag if "action" in option else f"{flag} {metavar}"
            parts.append(usage if option.get("required") else f"[{usage}]")
            entries.append((usage, option.get("help", "")))
    lines = [*_wrap(["usage:", prog, *parts], len(prog) + 8), *body, "", "options:"]
    for usage, text in entries:
        head = f"  {usage:<{_HELP_COLUMN - 3}}" if text else f"  {usage}"
        lines += _wrap([head, *text.split()], _HELP_COLUMN)
    return "\n".join(lines)


def _wrap(words: Sequence[str], indent: int) -> list[str]:
    """`words` a space apart, broken before each word that would end past
    column `_HELP_WIDTH` onto a line indented `indent` columns."""
    lines = [words[0]]
    for word in words[1:]:
        if len(lines[-1]) + 1 + len(word) > _HELP_WIDTH:
            lines.append(" " * indent + word)
        else:
            lines[-1] += " " + word
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse_line(sys.argv[1:] if argv is None else argv)
        # resolved first: a handler may skip what its format does not print
        args.format = args.format or _default_format(args.command)
        report = _GRAMMAR[args.command][0](args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except DomainError as err:
        print(f"domain error: {err}", file=sys.stderr)
        return 3
    except _Help as shown:
        return 0 if _write(str(shown)) else CLOSED_PIPE
    return report.exit_code if _write(report.render(args.format)) else CLOSED_PIPE


def _write(text: str) -> bool:
    """Print `text`; False if the reader closed stdout first.  Then stdout's
    descriptor is pointed at the null device, so that the interpreter's
    flush of the unwritten rest at exit meets no closed pipe and prints
    nothing; a stdout without a descriptor is left alone."""
    try:
        print(text)
        sys.stdout.flush()
        return True
    except BrokenPipeError:
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError):  # io.UnsupportedOperation is an OSError
            return False
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)
    return False


if __name__ == "__main__":
    sys.exit(main())
