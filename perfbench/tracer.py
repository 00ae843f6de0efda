"""Span tracer that wraps the package's public functions from outside.

Install it after import: every function named in the package `__all__`,
the `Surface` methods, `cli.main` and `Report.render` are replaced by a
wrapper, and every module-level alias of a wrapped function (the copies
`from .cohomology import h0` binds in other modules) is rebound to that
wrapper.  `DivisorClass.__init__` gets a counter, not a span.

A span is (span id, function, parent span id, query id, start, end).
Self time is a span's duration minus the time its child spans cover.
Hot loops make millions of spans, so each query's spans are folded into
per-(function, parent function) totals as they close; the top two levels
of spans are also kept raw, up to a cap, and written out at the end.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import time

LAYERS = ("picard", "cohomology", "sheaves", "natural", "bundles", "audit", "cli")
RAW_SPAN_CAP = 50_000


def _scan_hook(tracer, evidence):
    rows = evidence.rows
    tracer.counts["natural.rows"] += len(rows)
    v = evidence.verdict
    useful = len(rows) if v.witness_t is None or not rows else v.witness_t - rows[0][0] + 1
    tracer.counts["natural.useful_rows"] += useful


def _len_hook(counter, attr=None):
    def hook(tracer, result):
        tracer.counts[counter] += len(getattr(result, attr) if attr else result)

    return hook


HOOKS = {
    "natural.scan_verdict": _scan_hook,
    "natural.unconditional_scan": _scan_hook,
    "bundles.audit_extension_natural": _len_hook("bundles.audit_rows", "rows"),
    "bundles.stability_certificate": _len_hook("bundles.stability_candidates", "candidates"),
    "bundles.classify_region": _len_hook("bundles.classify_cells"),
    "audit.run_audit": _len_hook("audit.findings"),
}
COUNTERS = ("natural.rows", "natural.useful_rows", "bundles.audit_rows",
            "bundles.stability_candidates", "bundles.classify_cells", "audit.findings",
            "picard.divisor_classes")


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # function id -> "layer.name"
        self.layers: list[str] = []  # function id -> layer
        self.stack: list[list] = []  # open spans: [fid, child_ns, span_id]
        self.calls: dict = {}  # (fid, parent fid or -1) -> [count, total_ns, self_ns, raised]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.raw: list[tuple] = []
        self.top_ns = [0]
        self.query = [0]
        self._ids = itertools.count()
        self._undo: list[tuple] = []

    # -- installation

    def install(self, hz) -> None:
        cli = hz.cli
        targets = [getattr(hz, name) for name in hz.__all__]
        targets = [fn for fn in targets if inspect.isfunction(fn)] + [cli.main]
        wrapped = {}
        for fn in targets:
            layer = fn.__module__.rpartition(".")[2]
            if layer in LAYERS and fn not in wrapped:
                wrapped[fn] = self._wrap(fn, f"{layer}.{fn.__name__}", layer)
        modules = [m for name, m in sys.modules.items() if name == hz.__name__ or name.startswith(hz.__name__ + ".")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._rebind(module, attr, wrapped[value])
        for attr, value in list(vars(hz.Surface).items()):
            if inspect.isfunction(value) and not attr.startswith("_"):
                self._rebind(hz.Surface, attr, self._wrap(value, f"picard.Surface.{attr}", "picard"))
        render = vars(cli.Report)["render"]
        self._rebind(cli.Report, "render", self._wrap(render, "cli.Report.render", "cli"))

        counts = self.counts
        init = vars(hz.DivisorClass)["__init__"]

        def counting_init(obj, *args, **kwargs):
            counts["picard.divisor_classes"] += 1
            init(obj, *args, **kwargs)

        self._rebind(hz.DivisorClass, "__init__", counting_init)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _rebind(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name, layer):
        fid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        stack, calls, raw, ids = self.stack, self.calls, self.raw, self._ids
        top_ns, query = self.top_ns, self.query
        hook = HOOKS.get(name)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [fid, 0, next(ids)]
            stack.append(frame)
            raised = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised = 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is None:
                    key = (fid, -1)
                    top_ns[0] += duration
                else:
                    parent[1] += duration
                    key = (fid, parent[0])
                record = calls.get(key)
                if record is None:
                    record = calls[key] = [0, 0, 0, 0]
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[1]
                record[3] += raised
                if len(stack) <= 1 and len(raw) < RAW_SPAN_CAP:
                    raw.append((frame[2], fid, parent[2] if parent else -1, query[0], start, end))
            if hook is not None:
                hook(tracer, result)
            return result

        return wrapper

    # -- per-query harvest

    def take(self):
        """This query's (calls, counts, top-level ns); resets them."""
        calls = {key: tuple(rec) for key, rec in self.calls.items()}
        counts = dict(self.counts)
        top = self.top_ns[0]
        self.calls.clear()
        for key in self.counts:
            self.counts[key] = 0
        self.top_ns[0] = 0
        return calls, counts, top
