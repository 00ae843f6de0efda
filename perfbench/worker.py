"""One workload in one process: closed-loop passes, referee, optional trace.

Run by run.py as a child process, from the root of a checkout, with
`src` on PYTHONPATH.  Prints one JSON object as its last stdout line.

A first, untimed pass warms up and lets the referee check every answer.
Untraced mode then makes k timed passes over the seeded query list, k
fixed by --seconds, and every timed pass must reproduce the first pass's
answers exactly.  Each query's latency is its minimum over the k passes
(min-of-k): the passes lie seconds apart, so the minimum drops the
slowdowns other tenants of a shared host cause, which would otherwise
move every statistic of a run by 10-40%, as long as they are shorter than
the span of the passes.

Traced mode runs one timed untraced pass (the scaling curves and the
tracer's overhead baseline), one traced pass, and a traced re-run of
every RETRACE_STEP-th query whose per-query counts must match the first
traced pass exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict

import procs
import tracer as tracing
import workloads

# seconds of --seconds given to each timed pass; fixes the pass count k for
# a given --seconds (14, 9 and 17 passes at --seconds 30).  On the 2-core
# Xeon the benchmark was built on, a desk pass takes about 2.0 s, a
# far-twist pass 2.5 s and a referee pass 0.6 s on a quiet host, and up to
# 1.6x that while other tenants are busy.  The host slows by 20-50% for
# spells of tens of seconds, and the per-query minima drop a spell only
# when the passes span more than it: in a 200 s desk trace, the spread of
# the minima over sliding windows fell from 0.10 to 0.04 of the median as
# the windows grew from 30 to 60 s.
PASS_BUDGET_S = {"desk": 2.1, "far-twist": 3.3, "referee": 1.8}
RETRACE_STEP = 5
PROCESS_ROUNDS = 8
FAILURE_LIST_CAP = 50

CURVES = {
    "mag": ("natural.p50_ms.", ("mag1e1", "mag1e2", "mag1e3", "mag1e4")),
    "m": ("bundles.ext_audit_p50_ms.", ("m00_09", "m10_19", "m20_32")),
    "u": ("bundles.stability_p50_ms.", ("u03_06", "u07_10", "u11_14")),
    "claim": ("audit.claim_ms.", workloads.CLAIM_NAMES),
}
CLOSED_FORMS = ("natural.line_natural_wrt_m", "natural.line_unconditional_wrt_m",
                "natural.line_natural_wrt_r", "natural.direct_sum_natural_wrt_m")


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def run_untraced(queries, first_answers, flagged, failures, tick=None):
    """One pass; fills first_answers/flagged/failures on the first pass.

    tick, when given, runs after every query, outside its timer."""
    clock = time.perf_counter_ns
    invoke = workloads.invoke
    first = not first_answers
    latencies = []
    failed = 0
    cli_stats = [0, 0]  # output bytes, nonzero exits
    for i, q in enumerate(queries):
        start = clock()
        raw = invoke(q.call)
        latencies.append(clock() - start)
        digest = hashlib.sha256(q.answer(raw).encode()).digest()
        if first:
            first_answers.append(digest)
            reason = q.check(raw)
            if reason is not None:
                flagged.add(i)
                failures.append({"index": i, "kind": q.kind, "query": q.desc, "reason": reason})
            if raw[0] == "ok" and q.kind in workloads.CLI_KINDS:
                code, out, _ = raw[1]
                cli_stats[0] += len(out.encode())
                cli_stats[1] += code != 0
        elif digest != first_answers[i] and i not in flagged:
            flagged.add(i)
            failures.append({"index": i, "kind": q.kind, "query": q.desc,
                             "reason": "answer differs from the first pass"})
        failed += i in flagged
        if tick is not None:
            tick()
    return latencies, failed, cli_stats


def curves(queries, latencies):
    out = {}
    samples = defaultdict(list)
    cells = [0, 0]
    for q, ns in zip(queries, latencies):
        for tag, value in q.tags.items():
            if tag == "cells":
                cells[0] += ns
                cells[1] += value
            else:
                samples[(tag, value)].append(ns)
    for tag, (prefix, buckets) in CURVES.items():
        for bucket in buckets:
            values = samples.get((tag, bucket))
            out[prefix + bucket] = statistics.median(values) / 1e6 if values else 0.0
    out["bundles.classify_us_per_cell"] = cells[0] / cells[1] / 1e3 if cells[1] else 0.0
    return out


def signature(calls, counts):
    return (tuple(sorted((key, rec[0], rec[3]) for key, rec in calls.items())),
            tuple(sorted(counts.items())))


def run_traced(hz, queries, out_path):
    tr = tracing.Tracer()
    tr.install(hz)
    clock = time.perf_counter_ns
    invoke = workloads.invoke
    totals = defaultdict(lambda: [0, 0, 0, 0])
    counts = Counter()
    signatures = []
    wall = top = 0
    try:
        for i, q in enumerate(queries):
            tr.query[0] = i
            start = clock()
            invoke(q.call)
            wall += clock() - start
            calls, query_counts, query_top = tr.take()
            top += query_top
            for key, rec in calls.items():
                acc = totals[key]
                for k in range(4):
                    acc[k] += rec[k]
            counts.update(query_counts)
            signatures.append(signature(calls, query_counts))
        mismatches = []
        for i in range(0, len(queries), RETRACE_STEP):
            tr.query[0] = len(queries) + i
            invoke(queries[i].call)
            calls, query_counts, _ = tr.take()
            if signature(calls, query_counts) != signatures[i]:
                mismatches.append(i)
    finally:
        tr.uninstall()
    write_trace(tr, totals, mismatches, out_path)
    return tr, totals, counts, wall, top, mismatches


def write_trace(tr, totals, mismatches, out_path):
    names = tr.names
    functions = [
        {"name": names[fid], "parent": names[parent] if parent >= 0 else None,
         "calls": rec[0], "total_ms": rec[1] / 1e6, "self_ms": rec[2] / 1e6, "raised": rec[3]}
        for (fid, parent), rec in sorted(totals.items(), key=lambda item: -item[1][2])
    ]
    spans = [[sid, names[fid], parent, query, start, end] for sid, fid, parent, query, start, end in tr.raw]
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as handle:
        json.dump({"functions": functions, "repeat_mismatches": mismatches,
                   "raw_span_fields": ["span", "function", "parent_span", "query", "start_ns", "end_ns"],
                   "raw_spans": spans}, handle)


def layer_metrics(tr, totals, counts, n):
    names, layers = tr.names, tr.layers
    calls = Counter()
    self_ns = Counter()
    raised_out = Counter()
    layer_calls = Counter()
    probes = 0
    for (fid, parent), (count, total, own, raised) in totals.items():
        name, layer = names[fid], layers[fid]
        calls[name] += count
        self_ns[layer] += own
        layer_calls[layer] += count
        if parent < 0 or layers[parent] != layer:
            raised_out[layer] += raised
        if name == "sheaves.h0_ideal" and parent >= 0 and names[parent] == "natural.min_twist_with_sections":
            probes += count
        if name == "cli.main":
            self_ns["cli.main"] += own
        if name == "cli.Report.render":
            self_ns["cli.render_total"] += total
    raised_scans = sum(rec[3] for (fid, _), rec in totals.items()
                       if names[fid] in ("natural.scan_verdict", "natural.unconditional_scan"))
    rows = counts["natural.rows"]
    all_rows = rows + counts["bundles.audit_rows"]

    def per(x):
        return x / n

    def ms(x):
        return x / n / 1e6

    return {
        "picard.calls": per(layer_calls["picard"]),
        "picard.self_ms": ms(self_ns["picard"]),
        "picard.divisor_classes": per(counts["picard.divisor_classes"]),
        "cohomology.h0_calls": per(calls["cohomology.h0"]),
        "cohomology.h1_calls": per(calls["cohomology.h1"]),
        "cohomology.h2_calls": per(calls["cohomology.h2"]),
        "cohomology.chi_calls": per(calls["cohomology.chi"]),
        "cohomology.self_ms": ms(self_ns["cohomology"]),
        "cohomology.h0_per_row": calls["cohomology.h0"] / all_rows if all_rows else 0.0,
        "sheaves.h0_ideal_calls": per(calls["sheaves.h0_ideal"]),
        "sheaves.h1_ideal_calls": per(calls["sheaves.h1_ideal"]),
        "sheaves.self_ms": ms(self_ns["sheaves"]),
        "natural.verdicts": per(calls["natural.scan_verdict"] + calls["natural.unconditional_scan"] - raised_scans),
        "natural.rows_scanned": per(rows),
        "natural.useful_row_ratio": counts["natural.useful_rows"] / rows if rows else 0.0,
        "natural.min_twist_probes": per(probes),
        "natural.closed_form_calls": per(sum(calls[name] for name in CLOSED_FORMS)),
        "natural.self_ms": ms(self_ns["natural"]),
        "natural.raised": per(raised_out["natural"]),
        "bundles.les_boxes": per(calls["bundles.cohomology_interval"]),
        "bundles.audit_rows": per(counts["bundles.audit_rows"]),
        "bundles.stability_candidates": per(counts["bundles.stability_candidates"]),
        "bundles.classify_cells": per(counts["bundles.classify_cells"]),
        "bundles.self_ms": ms(self_ns["bundles"]),
        "bundles.raised": per(raised_out["bundles"]),
        "audit.findings": per(counts["audit.findings"]),
        "audit.self_ms": ms(self_ns["audit"]),
        "cli.self_ms": ms(self_ns["cli.main"]),
        "cli.render_ms": ms(self_ns["cli.render_total"]),
    }


class ProcessSamples:
    """Fresh-interpreter samples, one at a time, spread through the passes.

    A slow spell on a shared host lasts seconds; taking the samples one by
    one at evenly spaced queries of the timed passes, rather than in a
    block, lets each example's minimum find a quiet moment.
    """

    def __init__(self, children, rounds, queries_total):
        self.children = children
        tasks = [("setup", None), ("bare", None)] + [("cold", example) for example in procs.COLD_CLI]
        self.todo = tasks * rounds
        self.stride = max(1, queries_total // len(self.todo))
        self.seen = 0
        self.setup_s: list[float] = []
        self.import_ms: list[float] = []
        self.bare_ms: list[float] = []
        self.cold_ms: dict[int, list[float]] = {i: [] for i in range(len(procs.COLD_CLI))}
        self.failures: list[dict] = []

    def tick(self):
        """Called after every timed query, outside its timer."""
        self.seen += 1
        if self.seen % self.stride == 0 and self.todo:
            self.take(*self.todo.pop(0))

    def finish(self):
        while self.todo:
            self.take(*self.todo.pop(0))

    def take(self, what, example):
        if what == "setup":
            total, alone = procs.setup_sample(self.children)
            self.setup_s.append(total)
            self.import_ms.append(alone)
        elif what == "bare":
            self.bare_ms.append(procs.bare_sample(self.children))
        else:
            argv, expected = example
            ms, reason = procs.cold_sample(self.children, argv, expected)
            self.cold_ms[procs.COLD_CLI.index(example)].append(ms)
            if reason is not None:
                self.failures.append({"kind": "cold_cli", "query": "python -m hirzebruch " + " ".join(argv),
                                      "reason": reason})

    def cold_count(self):
        return sum(len(samples) for samples in self.cold_ms.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--deadline-ns", type=int, required=True,
                        help="time.monotonic_ns() by which every child process must have ended")
    args = parser.parse_args(argv)

    os.environ.pop("HIRZEBRUCH_FORMAT", None)
    import hirzebruch as hz
    import hirzebruch.cli  # noqa: F401  (the desk workload's entry point)

    root = os.getcwd()
    expected = os.path.join(root, "src", "hirzebruch")
    if os.path.dirname(os.path.abspath(hz.__file__)) != expected:
        print(f"error: imported {hz.__file__}, not the checkout's {expected}", file=sys.stderr)
        return 2

    queries = workloads.build(args.workload, args.seed, hz)

    # the first pass warms every code path and feeds the referee; its
    # timings are discarded because the referee's work sits between them
    first_answers: list[bytes] = []
    flagged: set[int] = set()
    failures: list[dict] = []
    _, _, cli_stats = run_untraced(queries, first_answers, flagged, failures)

    passes = 1 if args.trace else max(2, round(args.seconds / PASS_BUDGET_S[args.workload]))
    samples = None if args.trace else ProcessSamples(
        procs.Children(root, args.deadline_ns), PROCESS_ROUNDS, passes * len(queries))
    best = [math.inf] * len(queries)
    failed = 0
    try:
        for _ in range(passes):
            latencies, more_failed, _ = run_untraced(
                queries, first_answers, flagged, failures, samples and samples.tick)
            best = [min(pair) for pair in zip(best, latencies)]
            failed += more_failed
        if samples:
            samples.finish()
    except procs.Fail as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    n = len(queries)
    result = {
        "attempted": passes * n,
        "failed": failed,
        "passes": passes,
        "queries_per_pass": n,
        "digest": hashlib.sha256(b"".join(first_answers)).hexdigest(),
        "kinds": dict(Counter(q.kind for q in queries)),
        "notes": [],
    }
    if not args.trace:
        ordered = sorted(best)
        failures.extend(samples.failures)
        result["attempted"] += samples.cold_count()
        result["failed"] += len(samples.failures)
        result["metrics"] = {
            "setup_s": statistics.median(samples.setup_s),
            "throughput_qps": n / (sum(best) / 1e9),
            "latency_p50_ms": percentile(ordered, 50) / 1e6,
            "latency_p99_ms": percentile(ordered, 99) / 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cold_cli_ms": statistics.median(min(ms) for ms in samples.cold_ms.values()),
        }
        result["notes"].append(
            f"latency samples={n} (per-query min over {passes} passes); "
            f"interpreter baseline (python -c pass)={statistics.median(samples.bare_ms):.3f} ms; "
            f"package import alone={statistics.median(samples.import_ms):.3f} ms; "
            f"set-up samples={len(samples.setup_s)}; cold CLI samples={samples.cold_count()}"
        )
    else:
        out_path = os.path.join("perfbench", "out", f"trace-{args.workload}-{args.seed}.json")
        tr, totals, counts, wall, top, mismatches = run_traced(hz, queries, out_path)
        metrics = layer_metrics(tr, totals, counts, n)
        metrics.update(curves(queries, latencies))
        metrics["cli.output_bytes"] = cli_stats[0] / n
        metrics["cli.exit_nonzero"] = cli_stats[1] / n
        metrics["trace.overhead_ratio"] = wall / sum(latencies)
        metrics["trace.coverage"] = top / wall
        result["metrics"] = metrics
        result["failed"] += len(mismatches)
        for i in mismatches:
            failures.append({"kind": queries[i].kind, "query": queries[i].desc,
                             "reason": "per-query trace counts differ between two traced runs"})
        result["notes"].append(f"trace file: {out_path}; traced re-runs of every {RETRACE_STEP}th query, "
                               f"count mismatches: {len(mismatches)}")
        unexercised = sorted(name for name, value in metrics.items() if value == 0)
        if unexercised:
            result["notes"].append("reported as 0, not exercised by this workload: " + ", ".join(unexercised))
    result["failures"] = failures[:FAILURE_LIST_CAP]
    result["failures_total"] = len(failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
