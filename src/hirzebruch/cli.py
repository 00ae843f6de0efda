"""Command-line front end.

Subcommands: coh (cohomology of a class, optionally along a twist range),
check (natural / unconditional vanishing of a model w.r.t. a twisting
class), construct (rank-2 extension with certificates and stability),
classify / enumerate (region sweeps), audit (desk-scale claim checks),
oracle (closed form vs brute force).

Output formats: table (default), csv, json; the HIRZEBRUCH_FORMAT
environment variable changes the default.  JSON output is one object with
fields command, inputs, results, findings, in that order, deterministic
for fixed inputs.  It is laid out as `json.dumps(record, indent=2)` lays
it out, but written by the package's own writer, `_json_text`.  Exit
codes: 0 success, 1 oracle mismatch, 2 usage error, 3 domain error, 141
the reader closed the output pipe early (nothing is printed then).  A
command whose ranges would produce more than ROW_BUDGET rows, cells,
classes or claim checks is a domain error, refused before anything is
computed; for a rank-2 `classify` or `enumerate` the count is cells times
(m_max + 1), one section-count interval per cell and m.  So is a
`construct` whose stability verdicts would check more than ROW_BUDGET
classes, refused before the first check, and a JSON `construct` that
would list more than ROW_BUDGET stability candidates, refused before any
is listed, and an `oracle` box whose lattice walk, bounded from its
corners, passes ORACLE_BUDGET steps.

Each command's options are defined once, in an option table whose rows
are an option string and its `add_argument` keywords.  A well-formed
command line (the command, then exact option strings, each with its
value or as `--opt=value`) is read off those keywords directly.  Any
other line goes to the argparse parser built by passing each row to
`add_argument`, which gives every usage error and the help text.
"""

from __future__ import annotations

import functools
import io
import os
import re
import sys
from collections import Counter
from types import SimpleNamespace
from typing import Any, Optional, Sequence

try:
    # the C escaper that `json.encoder` itself uses, without loading the
    # rest of the `json` package
    from _json import encode_basestring_ascii
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import encode_basestring_ascii

from .audit import CLAIMS, run_audit
from .bundles import (
    audit_boxes,
    audit_extension_natural,
    classify_region,
    construct_extension,
    stability_certificate,
    stability_checks,
)
from .cohomology import (
    CohomologyTriple,
    chi,
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

# every row is held in memory until the report renders, so the ranges of
# one command are capped; desk-sized queries stay far below this
ROW_BUDGET = 10_000

# `oracle_h0` walks lattice points and rows one by one, so an `oracle` box
# is also capped by a bound on that walk, read off the box's corners
ORACLE_BUDGET = 1_000_000

# the reader closed stdout before the report was written: 128 + SIGPIPE,
# the status a shell gives a pipeline stage that SIGPIPE ended
CLOSED_PIPE = 141


class UsageError(Exception):
    pass


# ranges and pairs may open with a negative integer ("-5..6", "-1,2"); a
# token this matches is a value, never an option string
_NEGATIVE_NUMBER = re.compile(r"^-\d")


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
    format prints `table_lines`.
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


def _json_text(value: Any, indent: str = "\n") -> str:
    """`value` in the layout of `json.dumps(value, indent=2)`.

    `json` turns its C encoder off when asked to indent, so the record is
    written here, with the same C string escaper.  Exact types are tried
    first; str and int subclasses are written as `json` writes them, and
    any other type, a non-str key included, raises TypeError.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = indent + "  "
        items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
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
        line = f"h0={results['h0']} h1={results['h1']} h2={results['h2']}"
        inputs = {"e": args.e, "class": args.cls}
        return Report("coh", inputs, results, ["h0", "h1", "h2", "chi"], [results], [line])

    by = _parse_pair(args.twist_by)
    t_lo, t_hi = _parse_range(args.t)
    _check_budget(t_hi - t_lo + 1, f"--t {args.t}", "rows")
    rows = [
        {"t": t, **_triple_dict(values)}
        for t, values in cohomology_profile(surface, cls, by, t_lo, t_hi)
    ]
    lines = [
        f"t={r['t']:>3}  h0={r['h0']} h1={r['h1']} h2={r['h2']} chi={r['chi']}" for r in rows
    ]
    inputs = {"e": args.e, "class": args.cls, "twist_by": args.twist_by, "t": args.t}
    return Report("coh", inputs, {"rows": rows}, ["t", "h0", "h1", "h2", "chi"], rows, lines)


def _check_model(args: SimpleNamespace, kind: str) -> tuple[SheafModel, dict[str, Any]]:
    if kind == "line":
        return Line(_parse_pair(args.line)), {"line": args.line}
    if kind == "sum":
        return DirectSum(tuple(_parse_sum(args.sum))), {"sum": args.sum}
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
        datum = construct_extension(surface, u, v, m, s)
        # the audit evaluates one box per twist of its settle prefix, O(|u|)
        _check_budget(audit_boxes(datum), f"--extension {args.extension}", "LES boxes")
        evidence = audit_extension_natural(datum)
    else:
        model, model_inputs = _check_model(args, given[0])
        by = _parse_wrt(args.wrt, surface)
        inputs = {"e": args.e, **model_inputs, "wrt": args.wrt, "pp": bool(args.pp)}
        scan = unconditional_scan if args.pp else scan_verdict
        evidence = scan(surface, model, by)
        closed = _closed_form(surface, model, args.wrt, bool(args.pp))

    verdict = evidence.verdict
    results: dict[str, Any] = {"outcome": verdict.outcome.value, "holds": verdict.holds()}
    line = f"{str(verdict.holds()).lower()} ({verdict.outcome.value})"
    if verdict.witness_t is not None:
        results["witness_t"] = verdict.witness_t
        results["witness_h0"] = verdict.witness_h0
        results["witness_h1"] = verdict.witness_h1
        line += f" witness t={verdict.witness_t} (h0,h1)=({verdict.witness_h0},{verdict.witness_h1})"
    results["scanned_t"] = [evidence.scan_start, evidence.scan_stop]
    if closed is not None:
        results["closed_form"] = closed
    columns = ["outcome", "holds", "witness_t", "witness_h0", "witness_h1"]
    return Report("check", inputs, results, columns, [results], [line])


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
    lines = [
        f"extension 0 -> O{datum.sub} -> E -> I_Z{datum.quotient.cls} -> 0, |Z| = {datum.s}",
        f"c1 = {chern.c1}, c2 = {chern.c2}, admissible s in [{a_lo}, {b_hi}]",
        f"section_min={datum.section_min} cayley_bacharach={datum.cayley_bacharach} "
        f"ext_forced_split={datum.ext_forced_split}",
    ]
    if args.m != 0:
        results["stability"] = "only computed for m = 0"
        lines.append("stability: only computed for m = 0")
        return Report("construct", inputs, results, _CONSTRUCT_COLUMNS, [row], lines)
    # the R verdict checks one class per column of its region, O(u + v)
    _check_budget(
        sum(stability_checks(datum, pol) for pol in ("R", "M")),
        f"--u {args.u} --v {args.v}", "stability checks",
    )
    reports = [stability_certificate(datum, pol) for pol in ("R", "M")]
    for report in reports:
        pol = report.polarization.value
        row[f"stable_{pol}"] = report.certified
        status = "certified" if report.certified else "NOT certified"
        lines.append(
            f"stability w.r.t. {pol}: {status} ({report.candidate_count} candidates)"
            + (f" warnings: {'; '.join(report.warnings)}" if report.warnings else "")
        )
    # only JSON lists the candidates; the table and CSV read their counts
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
    ]
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
        unknown = [c for c in claims if c not in CLAIMS]
        if unknown:
            raise UsageError(
                f"unknown claim '{unknown[0]}'; valid: {', '.join(CLAIMS)}"
            )
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
    ]
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
                if closed0 - val1 + closed2 != chi(surface, cls):
                    problems.append("chi identity failed")
                if h1_vanishes(surface, cls) != (val1 == 0):
                    problems.append("vanishing criterion disagrees with h1")
                if problems:
                    mismatches.append(
                        {"e": e, "a": a, "b": b, "problems": "; ".join(problems)}
                    )
    results = {"classes_checked": checked, "mismatches": len(mismatches)}
    lines = [f"checked {checked} classes, {len(mismatches)} mismatches"]
    lines += [f"  e={m['e']} ({m['a']},{m['b']}): {m['problems']}" for m in mismatches[:20]]
    return Report(
        "oracle", inputs, results, ["classes_checked", "mismatches"], [results], lines,
        mismatches, exit_code=1 if mismatches else 0,
    )


# ---------------------------------------------------------------------------
# parser assembly and entry point


# one row of a command's option table: an option string and exactly its
# `add_argument` keywords, which also tell `_parse_line` how to read it
_Row = tuple[str, dict[str, Any]]

_E: _Row = ("--e", dict(dest="e", type=int, required=True))
_FORMAT: _Row = ("--format", dict(dest="format", choices=FORMATS))
_REGION = (
    _E,
    ("--r", dict(dest="r", type=int, required=True)),
    ("--u", dict(dest="u", required=True, metavar="FROM..TO")),
    ("--v", dict(dest="v", required=True, metavar="FROM..TO")),
    ("--m-max", dict(dest="m_max", type=int, default=0)),
    _FORMAT,
)

# each command's help line and options, in `--help` order: the one
# definition of the grammar, read by `_parse_line` and `_build_parser`
_GRAMMAR: dict[str, tuple[str, tuple[_Row, ...]]] = {
    "coh": ("cohomology of a divisor class", (
        _E,
        ("--class", dict(dest="cls", required=True, metavar="A,B")),
        ("--twist-by", dict(dest="twist_by", metavar="A,B")),
        ("--t", dict(dest="t", metavar="FROM..TO")),
        _FORMAT,
    )),
    "check": ("natural / unconditional vanishing checks", (
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
    "construct": ("rank-2 extension with certificates", (
        _E,
        ("--u", dict(dest="u", type=int, required=True)),
        ("--v", dict(dest="v", type=int, required=True)),
        ("--m", dict(dest="m", type=int, required=True)),
        ("--s", dict(dest="s", type=int, required=True)),
        _FORMAT,
    )),
    "classify": ("label a (u, v) region", _REGION),
    "enumerate": ("classify with CSV output by default", _REGION),
    "audit": ("desk-scale claim verification", (
        ("--claims", dict(dest="claims", metavar="NAME,NAME,...")),
        ("--e", dict(dest="e", default="1..4", metavar="FROM..TO")),
        _FORMAT,
    )),
    "oracle": ("closed form vs brute force", (
        ("--e", dict(dest="e", required=True, metavar="FROM..TO")),
        ("--a", dict(dest="a", required=True, metavar="FROM..TO")),
        ("--b", dict(dest="b", required=True, metavar="FROM..TO")),
        _FORMAT,
    )),
}

# each command's option keywords by option string, for `_parse_line`
_FLAGS = {name: dict(options) for name, (_, options) in _GRAMMAR.items()}


@functools.cache
def _build_parser() -> Any:
    # built from `_GRAMMAR` on the first line `_parse_line` declines, not
    # at import, and shared by every later one: parsing keeps no state in
    # the parser, each call fills its own namespace.  `commands` keeps each
    # command's sub-parser by name.  argparse, and the gettext it loads, is
    # imported here, so a line read off the table never loads it.
    import argparse

    class _Parser(argparse.ArgumentParser):
        # on the top-level parser: each command's sub-parser
        commands: dict[str, "_Parser"]

        # argparse's default error handling prints usage plus the message;
        # the contract here is a single diagnostic line and exit code 2
        def error(self, message: str) -> None:  # type: ignore[override]
            raise UsageError(message)

        def parse_known_args(self, args: Any = None, namespace: Any = None) -> Any:
            try:
                return super().parse_known_args(args, namespace)
            except UsageError:
                # the top-level parser skips a command's option given before
                # the command and reads the option's value as the command;
                # name the option instead of that value
                lead = (args or [""])[0].partition("=")[0]
                commands = getattr(self, "commands", {}).values()
                if any(lead in command._option_string_actions for command in commands):
                    raise UsageError(f"{lead} must follow the command") from None
                raise

        def __init__(self, *args: Any, **kwargs: Any) -> None:
            super().__init__(*args, **kwargs)
            # stock argparse would read "-5..6" or "-1,2" as option strings
            self._negative_number_matcher = _NEGATIVE_NUMBER

    parser = _Parser(prog="hirzebruch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}
    for name, (help_text, options) in _GRAMMAR.items():
        command = parser.commands[name] = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            command.add_argument(flag, **kwargs)
    return parser


_COMMANDS = {
    "coh": _cmd_coh,
    "check": _cmd_check,
    "construct": _cmd_construct,
    "classify": _cmd_classify,
    "enumerate": _cmd_classify,
    "audit": _cmd_audit,
    "oracle": _cmd_oracle,
}


def _default_format(command: str) -> str:
    env = os.environ.get("HIRZEBRUCH_FORMAT", "")
    if env in FORMATS:
        return env
    return "csv" if command == "enumerate" else "table"


def _parse_line(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The namespace that argparse fills for `argv`, read off the option
    table, if `argv` is well formed; None otherwise.

    Well formed: a command, then exact option strings of that command,
    each value option followed by its value or written `--opt=value`, every
    value read as argparse reads it, and every required option given.  A
    following token that opens with "-" and is not a negative number is
    not taken as a value.  The last occurrence of an option wins.
    """
    flags = _FLAGS.get(argv[0]) if argv else None
    if flags is None:
        return None
    given: dict[str, Any] = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        option = flags.get(flag)
        if option is None:
            return None
        if "action" in option:  # store_true, the one action in the table
            if eq:
                return None
            given[option["dest"]] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None:
                return None
        if value.startswith("-") and not _NEGATIVE_NUMBER.match(value):
            return None
        if "type" in option:
            try:
                value = option["type"](value)
            except ValueError:
                return None
        if "choices" in option and value not in option["choices"]:
            return None
        given[option["dest"]] = value
    # argparse sets the command, then every default in table order, then
    # the values given
    values = {"command": argv[0]}
    for option in flags.values():
        dest = option["dest"]
        if dest in given:
            values[dest] = given[dest]
        elif option.get("required"):
            return None
        else:
            values[dest] = option.get("default")
    return SimpleNamespace(**values)


def _parse(argv: Sequence[str]) -> SimpleNamespace:
    """The SimpleNamespace that the top-level parser fills for `argv`.

    A well-formed argv is read off the option table by `_parse_line`,
    without argparse.  Any other argv that opens with a command is parsed
    by that command's sub-parser alone, in one argparse pass, for its
    diagnostic or help; the rest (empty, an unknown command, --help, an
    option before the command) go to the top-level parser.
    """
    args = _parse_line(argv)
    if args is not None:
        return args
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv, SimpleNamespace())
    return command.parse_args(argv[1:], SimpleNamespace(command=argv[0]))


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        # resolved first: a handler may skip what its format does not print
        args.format = args.format or _default_format(args.command)
        report = _COMMANDS[args.command](args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except DomainError as err:
        print(f"domain error: {err}", file=sys.stderr)
        return 3
    try:
        print(report.render(args.format))
        sys.stdout.flush()
    except BrokenPipeError:
        _silence_stdout()
        return CLOSED_PIPE
    return report.exit_code


def _silence_stdout() -> None:
    """Point stdout's descriptor at the null device, so that the
    interpreter's flush of the unwritten rest at exit meets no closed pipe
    and prints nothing.  A stdout without a descriptor is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):  # io.UnsupportedOperation is an OSError
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


if __name__ == "__main__":
    sys.exit(main())
