"""Benchmark entry point for the hirzebruch package: one workload, one seed.

    python3 perfbench/run.py --workload {desk,far-twist,referee} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ./src.
With --trace 0 it reports the end-to-end metrics, measured by a worker
child (perfbench/worker.py) that runs the closed-loop query stream and,
between its passes, the fresh-interpreter set-up and whole-CLI-process
samples.  With --trace 1 it reports the per-layer metrics: per-module
import time from `-X importtime`, the interpreter baseline, and the
worker's traced pass.  Every metric is printed by name with its unit;
the last stdout line is one JSON object.  The exit code is 1 when any
referee check failed, 2 on a usage or environment error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import procs
from workloads import GENERATORS

DEADLINE_S = 170
IMPORTTIME_SAMPLES = 5
SETUP_SAMPLES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_qps": "queries/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "cold_cli_ms": "ms",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("import_ms") or name.startswith("setup.") or "p50_ms" in name or ".claim_ms." in name:
        return "ms"
    if name.endswith("_ms"):
        return "ms/query"
    if name == "bundles.classify_us_per_cell":
        return "us/cell"
    if name == "cli.output_bytes":
        return "bytes/query"
    if name.endswith(("_ratio", "coverage")) or name == "cohomology.h0_per_row":
        return "ratio"
    return "count/query"


def layer_setup(children: procs.Children) -> dict:
    metrics = procs.import_layers(children, IMPORTTIME_SAMPLES)
    imports = [procs.setup_sample(children)[1] for _ in range(SETUP_SAMPLES)]
    metrics["setup.package_import_ms"] = statistics.median(imports)
    metrics["setup.python_bare_ms"] = statistics.median(procs.bare_sample(children) for _ in range(SETUP_SAMPLES))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hirzebruch", "__init__.py")):
        print("error: run from the root of a hirzebruch checkout (no src/hirzebruch here)", file=sys.stderr)
        return 2
    deadline_ns = time.monotonic_ns() + DEADLINE_S * 10**9
    children = procs.Children(root, deadline_ns)
    try:
        # compiles the package's bytecode once, so every timed import reads it
        procs.check_import(children)
        extra = layer_setup(children) if args.trace else {}
        done, _ = children.run([
            os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--deadline-ns", str(deadline_ns),
        ])
        if done.returncode != 0 or not done.stdout.strip():
            raise procs.Fail(f"worker exited {done.returncode}: {done.stderr.strip()[-800:]}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except procs.Fail as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    metrics = dict(result["metrics"], **extra)
    if args.trace:
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        units = END_TO_END_UNITS
    attempted, failed = result["attempted"], result["failed"]

    print(f"machine: nproc={os.cpu_count()} python={sys.version.split()[0]}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"queries per pass={result['queries_per_pass']} timed passes={result['passes']} "
          f"kinds={result['kinds']}")
    print(f"digest sha256={result['digest']}")
    for line in result["notes"]:
        print(line)
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    print(f"  failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} queries attempted)")
    if result["failures"]:
        print(f"failing queries ({result['failures_total']} in all, first {len(result['failures'])} listed):")
        for f in result["failures"]:
            print(f"  [{f['kind']}] {f['query']}: {f['reason']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
