"""Seeded query streams for the three workloads, each with its referee.

A query is one call into the top layer the workload drives.  `call`
returns the program's raw output; `check` (run outside the timed region)
returns None or the reason the answer is wrong; `answer` gives the
decision-level text that goes into the run's SHA-256 digest.

Inputs are stratified: every seed draws the same number of queries of
each kind and magnitude stratum, with the values jittered inside each
stratum.  Costs grow linearly (scans) or quadratically (extension audits)
with coefficient size, so unstratified draws would make one seed's pass
several times as expensive as another's.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from contextlib import redirect_stderr, redirect_stdout

import referee as ref

LOCI = ("general", "section", "fiber")
FORMATS = ("table", "csv", "json", None)
CLI_KINDS = frozenset((
    "coh", "check_line", "check_sum", "check_ideal", "check_extension",
    "construct", "classify", "oracle", "malformed",
))
CLAIM_NAMES = (
    "ample-self-twists",
    "line-twist-criterion",
    "line-ample-r-criterion",
    "direct-sum-splitting",
    "rank1-points",
    "sum-criterion",
    "nonexistence-region",
    "construction-bounds",
    "stability-exclusion",
    "extension-natural",
)


class Query:
    __slots__ = ("kind", "desc", "tags", "call", "check", "answer")

    def __init__(self, kind, desc, tags, call, check, answer):
        self.kind = kind
        self.desc = desc
        self.tags = tags
        self.call = call
        self.check = check
        self.answer = answer


def invoke(call):
    try:
        return "ok", call()
    except (Exception, SystemExit) as err:  # scored by the referee
        return "raised", err


def build(workload: str, seed: int, hz) -> list[Query]:
    rng = random.Random(f"{workload}:{seed}")
    queries = GENERATORS[workload](rng, hz)
    rng.shuffle(queries)
    return queries


def mag_bucket(mag: int) -> str:
    return f"mag1e{min(4, max(1, round(math.log10(mag))))}"


def stratified_mags(rng, n: int, lo_exp: float = 1.0, hi_exp: float = 4.0) -> list[int]:
    """n log-uniform magnitudes, one per equal-width stratum of log10.

    Each is drawn from the middle half of its stratum: the few largest
    values set the p99 latency, and full-width jitter would let the seed
    move that percentile by a tenth.
    """
    step = (hi_exp - lo_exp) / n
    return [round(10 ** (lo_exp + step * (i + 0.25 + 0.5 * rng.random()))) for i in range(n)]


# ---------------------------------------------------------------------------
# desk: small CLI queries through hirzebruch.cli.main(argv), in-process


def _cli_call(cli, argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return call


def _cli_answer(raw) -> str:
    status, value = raw
    if status == "raised":
        return f"raised {type(value).__name__}: {value}"
    code, out, err = value
    return f"exit {code}\n{out}\n{err}"


def _parse_output(fmt, out, command):
    """(table_lines | csv_rows | json_record) for the given format."""
    if fmt == "json":
        record = json.loads(out)
        if list(record) != ["command", "inputs", "results", "findings"]:
            raise ValueError(f"json keys {list(record)}")
        if record["command"] != command:
            raise ValueError(f"json command {record['command']!r}")
        return record
    if fmt == "csv":
        return list(csv.reader(io.StringIO(out)))
    return out.rstrip("\n").split("\n")


def _effective_format(fmt, command):
    if fmt is not None:
        return fmt
    return "csv" if command == "enumerate" else "table"


def _desk_query(cli, kind, argv, fmt, expect_code, verify):
    """verify(parsed, fmt) -> reason or None, for exit-0 answers."""
    command = argv[0]
    full = argv + ([] if fmt is None else ["--format", fmt])

    def check(raw):
        status, value = raw
        if status == "raised":
            return f"raised {type(value).__name__}: {value}"
        code, out, err = value
        if code != expect_code:
            return f"exit {code}, expected {expect_code} ({err.strip()[:120]})"
        if code in (2, 3):
            prefix = "error: " if code == 2 else "domain error: "
            if out or err.count("\n") != 1 or not err.startswith(prefix):
                return f"exit {code} diagnostic is not one '{prefix}' line: {err!r}"
            return None
        if err:
            return f"unexpected stderr {err!r}"
        eff = _effective_format(fmt, command)
        try:
            parsed = _parse_output(eff, out, command)
            return verify(parsed, eff)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unparseable {eff} output: {exc}"

    return Query(kind, " ".join(full), {}, _cli_call(cli, full), check, _cli_answer)


_TABLE_KV = re.compile(r"(\w+)=\s*(-?\d+)")


def _coh_rows(parsed, fmt, ranged):
    if fmt == "json":
        res = parsed["results"]
        return res["rows"] if ranged else [res]
    if fmt == "csv":
        header, body = parsed[0], parsed[1:]
        return [dict(zip(header, map(int, row))) for row in body]
    rows = [{k: int(v) for k, v in _TABLE_KV.findall(line)} for line in parsed]
    if not ranged:
        rows[0]["chi"] = rows[0]["h0"] - rows[0]["h1"] + rows[0]["h2"]
    return rows


def _verify_coh(hz, e, cls, twist_by, t_range):
    surface = hz.Surface(e)

    def verify(parsed, fmt):
        ranged = twist_by is not None
        rows = _coh_rows(parsed, fmt, ranged)
        ts = range(t_range[0], t_range[1] + 1) if ranged else [0]
        if len(rows) != len(ts):
            return f"{len(rows)} rows for {len(ts)} twists"
        for t, row in zip(ts, rows):
            c, d = twist_by if ranged else (0, 0)
            a, b = cls[0] + t * c, cls[1] + t * d
            if ranged and row["t"] != t:
                return f"row t={row['t']}, expected {t}"
            truth = (
                hz.oracle_h0(surface, hz.DivisorClass(a, b)),
                ref.h1(e, a, b),
                hz.oracle_h0(surface, hz.DivisorClass(-2 - a, -(e + 2) - b)),
                ref.chi(e, a, b),
            )
            got = (row["h0"], row["h1"], row["h2"], row["chi"])
            if got != truth:
                return f"({a},{b}): (h0,h1,h2,chi)={got}, oracle {truth}"
        return None

    return verify


_VERDICT_LINE = re.compile(r"^(true|false) \((\w+)\)(?: witness t=(-?\d+) \(h0,h1\)=\((\d+),(\d+)\))?$")


def _parse_verdict(parsed, fmt):
    """(holds, outcome, witness or None, closed_form or None)."""
    if fmt == "json":
        res = parsed["results"]
        witness = None
        if "witness_t" in res:
            witness = (res["witness_t"], res["witness_h0"], res["witness_h1"])
        return res["holds"], res["outcome"], witness, res.get("closed_form")
    if fmt == "csv":
        row = parsed[1]
        witness = tuple(int(x) for x in row[2:5]) if row[2] != "" else None
        return row[1] == "True", row[0], witness, None
    match = _VERDICT_LINE.match(parsed[0])
    if match is None:
        raise ValueError(f"verdict line {parsed[0]!r}")
    witness = tuple(int(x) for x in match.group(3, 4, 5)) if match.group(3) else None
    return match.group(1) == "true", match.group(2), witness, None


def _closed_form_expected(e, model, wrt, pp):
    """The CLI reports a closed form exactly in these cases."""
    if model[0] == "line":
        u, v = model[1]
        if wrt == "M":
            return ref.line_unconditional_wrt_m(e, u, v) if pp else ref.line_natural_wrt_m(e, u, v)
        if wrt == "R" and not pp:
            return ref.line_natural_wrt_r(e, u, v)
    if model[0] == "sum" and wrt == "M" and not pp:
        return ref.sum_natural_wrt_m(e, model[1])
    return None


def scan_window(e, model, by):
    """Twist half-width past which every row verdict is frozen (see referee)."""
    comps = ref.components(model)
    z = model[2] if model[0] == "ideal" else 0
    big_u = max(abs(u) for u, _ in comps)
    big_v = max(abs(v) for _, v in comps)
    return big_u + z + 7 + ref.ceil_div(e * (big_u + 2) + big_v + z + 20, by[1])


def _verify_model_verdict(e, model, by, pp, holds, outcome, witness, closed):
    """Shared by the desk and far-twist referees; None when consistent."""
    if outcome not in ("HOLDS", "FAILS") or holds != (outcome == "HOLDS"):
        return f"outcome {outcome} with holds={holds}"
    if witness is not None:
        t, w0, w1 = witness
        truth = ref.model_values(e, model, t, by)
        if (w0, w1) != truth or w1 <= 0 or (not pp and w0 <= 0):
            return f"witness t={t} (h0,h1)=({w0},{w1}) re-evaluates to {truth}"
    elif not holds:
        return "FAILS without a witness"
    if closed is not None and closed != holds:
        return f"closed form {closed} disagrees with scan {holds}"
    return None


def _verify_check(e, model, wrt, pp):
    by = {"M": (1, e), "R": (1, e + 1)}.get(wrt) or tuple(int(x) for x in wrt.split(","))
    width = scan_window(e, model, by)
    truth = ref.wide_scan(e, model, by, pp, width)
    expected_closed = _closed_form_expected(e, model, wrt, pp)

    def verify(parsed, fmt):
        holds, outcome, witness, closed = _parse_verdict(parsed, fmt)
        reason = _verify_model_verdict(e, model, by, pp, holds, outcome, witness, closed)
        if reason:
            return reason
        if holds != truth:
            return f"verdict {outcome}, independent scan over |t| <= {width} says holds={truth}"
        if fmt == "json" and (closed is None) != (expected_closed is None):
            return f"closed form reported={closed is not None}, expected={expected_closed is not None}"
        if closed is not None and closed != expected_closed:
            return f"closed form {closed}, documented criterion gives {expected_closed}"
        return None

    return verify


def _extension_truth(e, u, v, m, s, width):
    con = ref.construction(e, u, v, m, s)
    rows = [(t, ref.les_box(e, con, s, t)) for t in range(m - 1, m + width)]
    outcomes = [ref.box_outcome(box) for _, box in rows]
    if "FAILS" in outcomes:
        t, box = rows[outcomes.index("FAILS")]
        return "FAILS", (t, box[0], box[2])
    pinned = rows[0][1][1] == 0 and rows[-1][1][3] == 0
    return ("HOLDS" if all(o == "HOLDS" for o in outcomes) and pinned else "INDET"), None


def _verify_extension_check(e, u, v, m, s):
    outcome_truth, witness_truth = _extension_truth(e, u, v, m, s, 80)

    def verify(parsed, fmt):
        holds, outcome, witness, _ = _parse_verdict(parsed, fmt)
        if (outcome, witness) != (outcome_truth, witness_truth) or holds != (outcome == "HOLDS"):
            return f"{outcome} {witness}, independent LES scan gives {outcome_truth} {witness_truth}"
        return None

    return verify


_CONSTRUCT_TABLE = re.compile(r"c2 = (-?\d+), admissible s in \[(-?\d+), (-?\d+)\]")
_FLAGS_TABLE = re.compile(r"section_min=(\w+) cayley_bacharach=(\w+) ext_forced_split=(\w+)")


def _verify_construct(e, u, v, m, s):
    truth = ref.construction(e, u, v, m, s)
    flags = (truth["section_min"], truth["cayley_bacharach"], truth["ext_forced_split"])

    def verify(parsed, fmt):
        if fmt == "json":
            res = parsed["results"]
            got = (
                res["c2"],
                tuple(res["s_range"]),
                (res["section_min"], res["cayley_bacharach"], res["ext_forced_split"]),
            )
            if res["sub"] != "({},{})".format(*truth["sub"]):
                return f"sub {res['sub']}, expected {truth['sub']}"
            if m == 0:
                for pol in ("R", "M"):
                    info = res["stability"][pol]
                    reason = _verify_candidates(
                        e, u, v, s, truth, pol,
                        [(_pair(c["class"]), c["reason"]) for c in info["candidates"]],
                        info["certified"],
                    )
                    if reason:
                        return reason
        elif fmt == "csv":
            row = dict(zip(parsed[0], parsed[1]))
            got = (
                int(row["c2"]),
                (int(row["s_lo"]), int(row["s_hi"])),
                tuple(row[k] == "True" for k in ("section_min", "cayley_bacharach", "ext_forced_split")),
            )
        else:
            text = "\n".join(parsed)
            c2, lo, hi = _CONSTRUCT_TABLE.search(text).groups()
            got = (int(c2), (int(lo), int(hi)), tuple(x == "True" for x in _FLAGS_TABLE.search(text).groups()))
        want = (truth["c2"], truth["s_range"], flags)
        if got != want:
            return f"(c2, s_range, flags)={got}, expected {want}"
        return None

    return verify


def _pair(text: str) -> tuple[int, int]:
    a, b = text.strip("()").split(",")
    return int(a), int(b)


def _verify_candidates(e, u, v, s, con, pol, candidates, certified):
    """candidates: [((a, b), reason)] in the program's order."""
    if [c for c, _ in candidates] != sorted(c for c, _ in candidates):
        return f"{pol} candidates not sorted"
    for cls, reason in candidates:
        if not ref.slope_qualifies(e, pol, u, v, cls):
            return f"{pol} candidate {cls} does not meet the slope condition"
        want = ref.exclusion(e, con, s, cls)
        if reason != want:
            return f"{pol} candidate {cls}: reason {reason}, expected {want}"
    if certified != all(reason is not None for _, reason in candidates):
        return f"{pol} certified={certified} contradicts its candidate list"
    return None


def _verify_classify(e, rank, u_range, v_range, m_max):
    want = [
        (u, v) + ref.region_cell(e, rank, u, v, m_max)
        for u in range(u_range[0], u_range[1] + 1)
        for v in range(v_range[0], v_range[1] + 1)
    ]

    def verify(parsed, fmt):
        if fmt == "json":
            got = [
                (c["u"], c["v"], c["label"], tuple(tuple(p) for p in c["witness"]))
                for c in parsed["results"]["cells"]
            ]
        else:
            if fmt == "csv":
                rows = [(int(r[0]), int(r[1]), r[2], r[3]) for r in parsed[1:]]
            else:
                rows = []
                for line in parsed:
                    match = re.match(r"^u=\s*(-?\d+) v=\s*(-?\d+)\s+(\w+)\s*(.*)$", line)
                    rows.append((int(match[1]), int(match[2]), match[3], match[4].strip()))
            got = [
                (u, v, label, tuple(_pair_range(p) for p in w.split(";") if p))
                for u, v, label, w in rows
            ]
        if got != want:
            bad = next((g, w) for g, w in zip(got + [None] * len(want), want) if g != w)
            return f"cell {bad[0]} expected {bad[1]} ({len(got)} cells)"
        return None

    return verify


def _pair_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    return int(lo), int(hi)


def _verify_oracle(count):
    def verify(parsed, fmt):
        if fmt == "json":
            got = (parsed["results"]["classes_checked"], parsed["results"]["mismatches"])
        elif fmt == "csv":
            got = tuple(int(x) for x in parsed[1])
        else:
            got = tuple(int(x) for x in re.match(r"checked (\d+) classes, (\d+) mismatches", parsed[0]).groups())
        if got != (count, 0):
            return f"(checked, mismatches)={got}, expected ({count}, 0)"
        return None

    return verify


def _expect_model(e, model, wrt, pp):
    """Exit code the documented contract gives for a check of this model."""
    if e < 1 or (model[0] == "ideal" and model[2] < 0):
        return 3
    by = {"M": (1, e), "R": (1, e + 1)}.get(wrt) or tuple(int(x) for x in wrt.split(","))
    if not ref.spanned(e, by):
        return 3
    if not pp and not ref.has_sections_somewhere(model, by):
        # min_twist_with_sections documents DomainError when no twist has sections
        return 3
    return 0


def _desk(rng, hz):
    cli = hz.cli
    out: list[Query] = []

    def small():
        return rng.randint(-12, 12)

    def no_check(parsed, fmt):
        return None

    # Parameters that move a query's cost (the output format, --pp, the
    # twist, list lengths, grid and box sizes, the extension's m and u, and
    # where s lies in its range) follow the query's index i, so every seed
    # gets the same cost mix and the seed moves only the coordinates: the
    # few dearest queries set the p99 latency, and drawing these at random
    # let the seed move it by a tenth.
    def fmt(i):
        return FORMATS[i % 4]

    # coh, single class and twist range
    for i in range(300):
        e = 1 + i % 6
        a, b = small(), small()
        out.append(_desk_query(cli, "coh", ["coh", "--e", str(e), "--class", f"{a},{b}"], fmt(i // 6), 0,
                               _verify_coh(hz, e, (a, b), None, None)))
    for i in range(150):
        e = 1 + i % 6
        a, b = small(), small()
        c, d = rng.randint(-2, 2), rng.randint(-6, 6)
        lo = rng.randint(-5, 5)
        hi = lo + (i // 6) % 9
        argv = ["coh", "--e", str(e), "--class", f"{a},{b}", "--twist-by", f"{c},{d}", "--t", f"{lo}..{hi}"]
        out.append(_desk_query(cli, "coh", argv, fmt(i // 6 + 1), 0, _verify_coh(hz, e, (a, b), (c, d), (lo, hi))))

    # check: line, sum, ideal (all three loci) w.r.t. M, R and A,B; with and without --pp
    def wrt_token(e, j):
        return ("M", "M", "R", "R", "0,1", "0,2", f"1,{e}", f"1,{e + 2}", f"2,{2 * e + 1}", "1,0", "-1,3")[j % 11]

    def add_check(i, kind, e, model, model_args):
        # with e = 1 + i % 6, the twist and --pp run through every e
        wrt, pp = wrt_token(e, i // 6), i % 20 in (1, 4, 8, 11, 14, 17, 19)
        argv = ["check", "--e", str(e)] + model_args + ["--wrt", wrt] + (["--pp"] if pp else [])
        code = _expect_model(e, model, wrt, pp)
        verify = _verify_check(e, model, wrt, pp) if code == 0 else no_check
        # only json carries the closed form next to the scan
        out.append(_desk_query(cli, kind, argv, "json" if i % 2 else fmt(i // 2), code, verify))

    for i in range(260):
        e = 1 + i % 6
        u, v = small(), small()
        if i % 12 < 6:
            # on and around the edges of the slack band [eu-1, eu+e-1],
            # where the closed forms change their answer
            u = rng.randint(-2, 2)
            v = e * u + rng.randint(-3, e + 1)
        add_check(i, "check_line", e, ("line", (u, v)), ["--line", f"{u},{v}"])
    for i in range(100):
        e = 1 + i % 6
        classes = tuple((small(), small()) for _ in range(2 + (i // 3) % 2))
        token = ";".join(f"{u},{v}" for u, v in classes)
        add_check(i, "check_sum", e, ("sum", classes), ["--sum", token])
    for i in range(150):
        e = 1 + i % 6
        locus = LOCI[i % 3]
        z = (i // 2) % 11
        u, v = rng.randint(-3, 8), small()
        model = ("ideal", locus, z, (u, v))
        add_check(i, "check_ideal", e, model, ["--ideal", f"{locus}:{z}:{u},{v}"])

    # check --extension and construct (m = 0 enumerates stability candidates)
    def ext_params(e, m, j):
        # u and the place of s in its range [lo - 1, hi + 1] follow j; the
        # ends of that range are out of range and exit 3
        u = j % 6
        v = e * (u - 1) - 1 + rng.randint(-1, 6)
        lo, hi = ref.section_bounds(e, u, v, m)
        lo = max(0, lo - 1)
        s = lo + int((hi + 2 - lo) * ((j // 6) % 5 + rng.random()) / 5)
        return u, v, s

    for i in range(60):
        e, m = 1 + i % 6, (i // 6) % 4
        u, v, s = ext_params(e, m, i // 2)
        code = 3 if ref.construction_error(e, u, v, m, s) else 0
        argv = ["check", "--e", str(e), "--extension", f"{u},{v},{m},{s}", "--wrt", "M"]
        out.append(_desk_query(cli, "check_extension", argv, fmt(i // 3), code,
                               _verify_extension_check(e, u, v, m, s) if code == 0 else no_check))
    for i in range(120):
        e = 1 + i % 4
        m = 0 if i % 3 else 1 + (i // 3) % 4
        u, v, s = ext_params(e, m, i // 2)
        code = 3 if ref.construction_error(e, u, v, m, s) else 0
        argv = ["construct", "--e", str(e), "--u", str(u), "--v", str(v), "--m", str(m), "--s", str(s)]
        out.append(_desk_query(cli, "construct", argv, fmt(i // 4), code,
                               _verify_construct(e, u, v, m, s) if code == 0 else no_check))

    # classify / enumerate on small grids, oracle on tiny boxes
    for i in range(60):
        e = 1 + i % 6
        rank = 3 if i % 20 == 0 else 1 + i % 2
        u_lo, v_lo = rng.randint(-3, 4), rng.randint(-8, 8)
        u_range, v_range = (u_lo, u_lo + (i // 2) % 4), (v_lo, v_lo + (i // 3) % 7)
        m_max = (i // 4) % 3
        argv = [("classify", "enumerate")[(i // 6) % 2], "--e", str(e), "--r", str(rank),
                "--u", f"{u_range[0]}..{u_range[1]}", "--v", f"{v_range[0]}..{v_range[1]}", "--m-max", str(m_max)]
        code = 0 if rank in (1, 2) else 3
        out.append(_desk_query(cli, "classify", argv, fmt(i // 5), code,
                               _verify_classify(e, rank, u_range, v_range, m_max) if code == 0 else no_check))
    for i in range(40):
        e_lo = rng.randint(1, 4)
        e_hi = e_lo + i % 2
        a_lo, b_lo = rng.randint(-6, 4), rng.randint(-8, 6)
        a_hi, b_hi = a_lo + (i // 2) % 4, b_lo + (i // 3) % 5
        argv = ["oracle", "--e", f"{e_lo}..{e_hi}", "--a", f"{a_lo}..{a_hi}", "--b", f"{b_lo}..{b_hi}"]
        count = (e_hi - e_lo + 1) * (a_hi - a_lo + 1) * (b_hi - b_lo + 1)
        out.append(_desk_query(cli, "oracle", argv, fmt(i // 7), 0, _verify_oracle(count)))

    # a fixed share of malformed tokens (exit 2) and out-of-domain values (exit 3)
    bad = [
        (["coh", "--e", "1", "--class", "1,x"], 2),
        (["coh", "--e", "2", "--class", "1,2,3"], 2),
        (["coh", "--e", "1.5", "--class", "1,1"], 2),
        (["coh", "--e", "1", "--class", "1,1", "--twist-by", "1,1"], 2),
        (["coh", "--e", "1", "--class", "0,0", "--twist-by", "0,1", "--t", "5..2"], 2),
        (["check", "--e", "2", "--line", "1,0", "--sum", "1,0;0,0", "--wrt", "M"], 2),
        (["check", "--e", "2", "--ideal", "gen:2:1,1", "--wrt", "M"], 2),
        (["check", "--e", "2", "--ideal", "general:x:1,1", "--wrt", "M"], 2),
        (["check", "--e", "1", "--extension", "1,2,3", "--wrt", "M"], 2),
        (["check", "--e", "1", "--extension", "2,1,0,0", "--wrt", "R"], 2),
        (["check", "--e", "1", "--extension", "2,1,0,0", "--wrt", "M", "--pp"], 2),
        (["check", "--e", "3", "--sum", ";", "--wrt", "M"], 2),
        (["check", "--e", "3", "--line", "1,1", "--wrt", "1,2,3"], 2),
        (["classify", "--e", "1", "--r", "2", "--u", "a..3", "--v", "0..2"], 2),
        (["oracle", "--e", "1..x", "--a", "0..1", "--b", "0..1"], 2),
        (["construct", "--e", "1", "--u", "three", "--v", "2", "--m", "0", "--s", "3"], 2),
        (["cohomology", "--e", "1"], 2),
        (["coh", "--class", "1,1"], 2),
        (["coh", "--e", "0", "--class", "1,1"], 3),
        (["check", "--e", "2", "--line", "1,0", "--wrt", "1,0"], 3),
        (["check", "--e", "2", "--ideal", "fiber:-1:1,1", "--wrt", "M"], 3),
        (["classify", "--e", "2", "--r", "2", "--u", "0..1", "--v", "0..1", "--m-max", "-1"], 3),
    ]
    for i in range(88):
        argv, code = bad[i % len(bad)]
        out.append(_desk_query(cli, "malformed", list(argv), None if i % 2 else "json", code, no_check))
    return out


# ---------------------------------------------------------------------------
# far-twist: decisions on large coefficients, through library calls


def _lib_answer_scan(raw):
    status, value = raw
    if status == "raised":
        return f"raised {type(value).__name__}: {value}"
    v = value.verdict
    return f"{v.outcome.value} {v.witness_t} {v.witness_h0} {v.witness_h1}"


def _scan_query(hz, kind, e, model, by, pp, tags):
    surface = hz.Surface(e)
    program_model = _program_model(hz, model)
    twist_cls = hz.DivisorClass(*by)
    name = "unconditional_scan" if pp else "scan_verdict"

    def call():
        return getattr(hz, name)(surface, program_model, twist_cls)

    wrt = "M" if by == (1, e) else "R" if by == (1, e + 1) else None
    closed = _closed_form_expected(e, model, wrt, pp) if wrt else None

    def check(raw):
        status, value = raw
        if status == "raised":
            return f"raised {type(value).__name__}: {value}"
        v = value.verdict
        witness = None if v.witness_t is None else (v.witness_t, v.witness_h0, v.witness_h1)
        reason = _verify_model_verdict(e, model, by, pp, v.holds(), v.outcome.value, witness, closed)
        if reason:
            return reason
        width = scan_window(e, model, by)
        if width <= 300:
            truth = ref.wide_scan(e, model, by, pp, width)
            if truth != v.holds():
                return f"verdict {v.outcome.value}, independent scan over |t| <= {width} says holds={truth}"
        return None

    desc = f"{name} e={e} {model} by={by}"
    return Query(kind, desc, tags, call, check, _lib_answer_scan)


def _program_model(hz, model):
    if model[0] == "line":
        return hz.Line(hz.DivisorClass(*model[1]))
    if model[0] == "sum":
        return hz.DirectSum(tuple(hz.DivisorClass(*c) for c in model[1]))
    _, locus, z, cls = model
    return hz.IdealSheafModel(hz.PointConfig(z, hz.Locus(locus)), hz.DivisorClass(*cls))


def _min_twist_query(hz, e, model, by, tags):
    surface = hz.Surface(e)
    program_model = _program_model(hz, model)
    twist_cls = hz.DivisorClass(*by)

    def call():
        return hz.min_twist_with_sections(surface, program_model, twist_cls)

    def check(raw):
        status, t = raw
        if status == "raised":
            return f"raised {type(t).__name__}: {t}"
        here, before = ref.model_values(e, model, t, by)[0], ref.model_values(e, model, t - 1, by)[0]
        if here <= 0 or before != 0:
            return f"min twist {t}: h0 there {here}, one twist earlier {before}"
        return None

    def answer(raw):
        return f"{raw[0]} {raw[1]}"

    return Query("min_twist", f"min_twist e={e} {model} by={by}", tags, call, check, answer)


def _ext_audit_query(hz, kind, e, u, v, m, s, tags):
    datum = hz.construct_extension(hz.Surface(e), u, v, m, s)

    def call():
        return hz.audit_extension_natural(datum)

    def check(raw):
        status, audit = raw
        if status == "raised":
            return f"raised {type(audit).__name__}: {audit}"
        con = ref.construction(e, u, v, m, s)
        if (datum.sub.a, datum.sub.b) != con["sub"] or datum.chern().c2 != con["c2"]:
            return "extension datum disagrees with the documented construction"
        if audit.scan_start != m - 1:
            return f"scan starts at {audit.scan_start}, expected m-1 = {m - 1}"
        boxes = [ref.les_box(e, con, s, t) for t in range(audit.scan_start, audit.scan_stop + 1)]
        outcomes = [ref.box_outcome(b) for b in boxes]
        if "FAILS" in outcomes:
            k = outcomes.index("FAILS")
            want = ("FAILS", audit.scan_start + k, boxes[k][0], boxes[k][2])
        elif all(o == "HOLDS" for o in outcomes) and boxes[0][1] == 0 and boxes[-1][3] == 0:
            want = ("HOLDS", None, None, None)
        else:
            want = ("INDET", None, None, None)
        vd = audit.verdict
        got = (vd.outcome.value, vd.witness_t, vd.witness_h0, vd.witness_h1)
        if got != want:
            return f"audit verdict {got}, independent LES scan gives {want}"
        return None

    def answer(raw):
        status, audit = raw
        if status == "raised":
            return f"raised {type(audit).__name__}: {audit}"
        vd = audit.verdict
        return f"{vd.outcome.value} {vd.witness_t} {vd.witness_h0} {vd.witness_h1}"

    return Query(kind, f"audit_extension_natural e={e} (u,v,m,s)=({u},{v},{m},{s})", tags, call, check, answer)


def _far_twist(rng, hz):
    out: list[Query] = []

    # Parameters that move a query's cost (e, the fiber step d, the sign of
    # v) follow the stratum index i, so every seed gets the same cost mix;
    # the seed moves magnitudes inside their strata and the small
    # coordinates.
    def signed(mag, i):
        return mag if i % 2 else -mag

    def fiber(i):
        return (0, 2 if i % 3 == 2 else 1)

    def scans(kind, per_case, cases):
        # each case gets its own full magnitude range
        for make in cases:
            for i, mag in enumerate(stratified_mags(rng, per_case)):
                e = 1 + i % 6
                model, by, pp = make(e, mag, i)
                # the scaling curve follows the two families whose windows
                # grow with the coefficients at the commit that defined the
                # benchmark: ideal scans and two-sided fiber-type scans
                grows = model[0] == "ideal" or by[0] == 0 and pp
                tags = {"mag": mag_bucket(mag)} if grows else {}
                out.append(_scan_query(hz, kind, e, model, by, pp, tags))

    def line(lo, hi, mag, i):
        return ("line", (rng.randint(lo, hi), signed(mag, i // 6)))

    # fiber-type twists: windows grow linearly with |v|
    scans("line_pp_fiber", 80, [lambda e, mag, i: (line(-5, 5, mag, i), fiber(i), True)])
    scans("line_fiber", 120, [lambda e, mag, i: (line(0, 5, mag, i), fiber(i), False)])
    # M and R twists of lines: flat in the magnitude, the built-in control
    scans("line_m", 90, [lambda e, mag, i, pp=pp: (line(-4, 6, mag, i), (1, e), pp) for pp in (False, True)])
    scans("line_r", 80, [lambda e, mag, i, pp=pp: (line(-4, 6, mag, i), (1, e + 1), pp) for pp in (False, True)])

    def sum_model(mag, i):
        count = 2 + i % 2
        return ("sum", tuple((rng.randint(-3, 4), signed(max(1, round(mag * (1.0, 0.6, 0.3)[j])), i // 6 + j))
                             for j in range(count)))

    scans("sum", 24, [
        lambda e, mag, i: (sum_model(mag, i), (1, e), False),
        lambda e, mag, i: (sum_model(mag, i), (1, e + 1), False),
        lambda e, mag, i: (sum_model(mag, i), fiber(i), True),
    ])

    def ideal(locus, twist, pp):
        def make(e, mag, i):
            by = {"M": (1, e), "R": (1, e + 1)}.get(twist) or fiber(i)
            return ("ideal", locus, mag, (rng.randint(0, 3), rng.randint(0, 8))), by, pp
        return make

    scans("ideal", 10, [
        ideal(locus, twist, pp)
        for locus in LOCI
        for twist, pp in (("M", False), ("R", False), ("F", False), ("M", True), ("F", True))
    ])

    for locus in LOCI:
        for twist in ("M", "F"):
            for i, mag in enumerate(stratified_mags(rng, 35)):
                e = 1 + i % 6
                model = ("ideal", locus, mag, (rng.randint(0, 3), rng.randint(-8, 8)))
                by = (1, e) if twist == "M" else fiber(i)
                out.append(_min_twist_query(hz, e, model, by, {}))

    # extension audits: rows grow quadratically with m
    for i in range(33):
        e, m = 1 + i % 6, i
        u = rng.randint(0, 4)
        v = e * (u - 1) - 1 + rng.randint(0, 4)
        lo, hi = ref.section_bounds(e, u, v, m)
        s = rng.randint(lo, hi)
        bucket = "m00_09" if m < 10 else "m10_19" if m < 20 else "m20_32"
        out.append(_ext_audit_query(hz, "ext_audit", e, u, v, m, s, {"m": bucket}))
    return out


# ---------------------------------------------------------------------------
# referee: bulk verification through the library, thousands of small calls


def _audit_query(hz, claim, e):
    def call():
        return hz.run_audit([e], [claim])

    def check(raw):
        status, findings = raw
        if status == "raised":
            return f"raised {type(findings).__name__}: {findings}"
        if not findings:
            return "no findings"
        for f in findings:
            if f.claim != claim or f.e != e or f.status not in ("agrees", "discrepancy", "indeterminate"):
                return f"malformed finding {f}"
        return None

    def answer(raw):
        status, findings = raw
        if status == "raised":
            return f"raised {type(findings).__name__}: {findings}"
        return "\n".join(f"{f.claim}|{f.e}|{f.status}|{f.subject}|{f.detail}" for f in findings)

    return Query("audit", f"run_audit e={e} claim={claim}", {"claim": claim}, call, check, answer)


def _classify_query(hz, e, rank, u_range, v_range, m_max):
    surface = hz.Surface(e)
    want = [
        (u, v) + ref.region_cell(e, rank, u, v, m_max)
        for u in range(u_range[0], u_range[1] + 1)
        for v in range(v_range[0], v_range[1] + 1)
    ]

    def call():
        return hz.classify_region(surface, rank, u_range, v_range, m_max)

    def cells(raw):
        return [(c.u, c.v, c.label.value, tuple(c.witness)) for c in raw[1]]

    def check(raw):
        if raw[0] == "raised":
            return f"raised {type(raw[1]).__name__}: {raw[1]}"
        got = cells(raw)
        if got != want:
            return f"{len(got)} cells differ from the documented thresholds and section bounds"
        return None

    def answer(raw):
        return str(cells(raw)) if raw[0] == "ok" else f"raised {raw[1]}"

    desc = f"classify_region e={e} r={rank} u={u_range} v={v_range} m_max={m_max}"
    return Query("classify_region", desc, {"cells": len(want)}, call, check, answer)


def _stability_query(hz, e, u, v, s, pol):
    datum = hz.construct_extension(hz.Surface(e), u, v, 0, s)
    con = ref.construction(e, u, v, 0, s)

    def call():
        return hz.stability_certificate(datum, pol)

    def listed(report):
        return [((c.cls.a, c.cls.b), c.reason, c.tail) for c in report.candidates]

    def check(raw):
        status, report = raw
        if status == "raised":
            return f"raised {type(report).__name__}: {report}"
        if report.polarization.value != pol:
            return f"polarization {report.polarization}"
        return _verify_candidates(e, u, v, s, con, pol, [(c, r) for c, r, _ in listed(report)], report.certified)

    def answer(raw):
        status, report = raw
        if status == "raised":
            return f"raised {type(report).__name__}: {report}"
        return f"{report.certified} {listed(report)} {list(report.warnings)}"

    bucket = "u03_06" if u <= 6 else "u07_10" if u <= 10 else "u11_14"
    return Query("stability", f"stability_certificate e={e} (u,v,s)=({u},{v},{s}) {pol}",
                 {"u": bucket}, call, check, answer)


def _construct_sweep_query(hz, e, u, v, m, s_values):
    surface = hz.Surface(e)

    def call():
        bounds = hz.section_count_bounds(surface, u, v, m)
        results = []
        for s in s_values:
            try:
                results.append(hz.construct_extension(surface, u, v, m, s))
            except hz.ConstructionError as err:
                results.append(err)
        return bounds, results

    def summary(item):
        if isinstance(item, hz.ConstructionError):
            return ("error", item.reason)
        return ("ok", (item.sub.a, item.sub.b), (item.quotient.cls.a, item.quotient.cls.b),
                item.chern().c2, item.section_min, item.cayley_bacharach, item.ext_forced_split)

    def check(raw):
        status, value = raw
        if status == "raised":
            return f"raised {type(value).__name__}: {value}"
        bounds, results = value
        if tuple(bounds) != ref.section_bounds(e, u, v, m):
            return f"section_count_bounds {bounds}, expected {ref.section_bounds(e, u, v, m)}"
        for s, item in zip(s_values, results):
            reason = ref.construction_error(e, u, v, m, s)
            if reason is not None:
                want = ("error", reason)
            else:
                c = ref.construction(e, u, v, m, s)
                want = ("ok", c["sub"], c["quot"], c["c2"], c["section_min"],
                        c["cayley_bacharach"], c["ext_forced_split"])
            if summary(item) != want:
                return f"s={s}: {summary(item)}, expected {want}"
        return None

    def answer(raw):
        if raw[0] == "raised":
            return f"raised {raw[1]}"
        bounds, results = raw[1]
        return f"{tuple(bounds)} {[summary(r) for r in results]}"

    return Query("construct_sweep", f"construct sweep e={e} (u,v,m)=({u},{v},{m}) s={s_values}",
                 {}, call, check, answer)


def _referee(rng, hz):
    out: list[Query] = []
    for claim in CLAIM_NAMES:
        for e in range(1, 9):
            out.append(_audit_query(hz, claim, e))
    for i in range(120):
        e, rank = 1 + i % 6, 1 + i % 2
        u_lo, v_lo = rng.randint(-3, 6), rng.randint(-10, 16)
        u_range = (u_lo, u_lo + rng.randint(2, 6))
        v_range = (v_lo, v_lo + rng.randint(4, 12))
        out.append(_classify_query(hz, e, rank, u_range, v_range, rng.randint(0, 3)))
    for i in range(360):
        e, u = 1 + i % 3, 3 + (i // 6) % 12
        v = rng.randint(e * (u - 1) - 1, 2 * e * u - 3)
        lo, hi = ref.section_bounds(e, u, v, 0)
        out.append(_stability_query(hz, e, u, v, rng.randint(lo, hi), "R" if i % 2 else "M"))
    for i in range(480):
        e, m = 1 + i % 6, rng.randint(0, 4)
        u = rng.randint(-1, 6)
        v = e * (u - 1) - 1 + rng.randint(-1, 5)
        lo, hi = ref.section_bounds(e, u, v, m)
        s_values = sorted({lo - 1, lo, (lo + hi) // 2, hi, hi + 1})
        out.append(_construct_sweep_query(hz, e, u, v, m, s_values))
    return out


GENERATORS = {"desk": _desk, "far-twist": _far_twist, "referee": _referee}
