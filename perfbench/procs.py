"""Whole-process measurements in fresh child interpreters.

Every child runs from the checkout root with ./src on PYTHONPATH and must
finish before a shared deadline (a time.monotonic_ns value, which Linux
keeps system-wide, so a parent can hand it to a child process).
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

LAYERS = ("picard", "cohomology", "sheaves", "natural", "bundles", "audit", "cli")
IMPORT_SNIPPET = "import hirzebruch, hirzebruch.cli"
SETUP_SNIPPET = f"import time; t = time.monotonic_ns(); {IMPORT_SNIPPET}; print(t, time.monotonic_ns())"

# the README's small examples, with the two outputs the README prints verbatim
COLD_CLI = (
    (["coh", "--e", "1", "--class", "1,1"], "h0=3 h1=0 h2=0\n"),
    (["check", "--e", "2", "--line", "1,0", "--wrt", "M"], "false (FAILS) witness t=0 (h0,h1)=(1,1)\n"),
    (["construct", "--e", "1", "--u", "3", "--v", "2", "--m", "0", "--s", "3", "--format", "json"], None),
    (["classify", "--e", "2", "--r", "2", "--u", "-3..6", "--v", "-10..14", "--format", "csv"], None),
    (["enumerate", "--e", "1", "--r", "2", "--u", "0..4", "--v", "0..6", "--m-max", "2"], None),
)


class Fail(Exception):
    """A measurement could not be taken; the run reports no result."""


class Children:
    def __init__(self, root: str, deadline_ns: int):
        self.root = root
        self.deadline_ns = deadline_ns
        env = dict(os.environ)
        env.pop("HIRZEBRUCH_FORMAT", None)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["PYTHONHASHSEED"] = "0"
        self.env = env

    def run(self, args: list[str]) -> tuple[subprocess.CompletedProcess, int]:
        """(completed process, spawn time in monotonic ns)."""
        spawned = time.monotonic_ns()
        remaining = (self.deadline_ns - spawned) / 1e9
        if remaining <= 0:
            raise Fail("deadline reached before all measurements ran")
        try:
            done = subprocess.run([sys.executable] + args, cwd=self.root, env=self.env,
                                  capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise Fail(f"child {args[:3]} ran past the deadline") from None
        return done, spawned

    def timed(self, args: list[str]) -> tuple[subprocess.CompletedProcess, float]:
        """(completed process, whole-process wall time in ms)."""
        done, spawned = self.run(args)
        return done, (time.monotonic_ns() - spawned) / 1e6


def check_import(children: Children) -> None:
    done, _ = children.run(["-c", IMPORT_SNIPPET])
    if done.returncode != 0:
        raise Fail(f"import failed: {done.stderr.strip()[-300:]}")


def setup_sample(children: Children) -> tuple[float, float]:
    """(seconds from spawn until the package is imported, ms of the import alone)."""
    done, spawned = children.run(["-c", SETUP_SNIPPET])
    if done.returncode != 0:
        raise Fail(f"import failed: {done.stderr.strip()[-300:]}")
    started, imported = map(int, done.stdout.split())
    return (imported - spawned) / 1e9, (imported - started) / 1e6


def bare_sample(children: Children) -> float:
    """Whole-process ms of `python -c pass`, the interpreter baseline."""
    return children.timed(["-c", "pass"])[1]


def cold_sample(children: Children, argv: list[str], expected) -> tuple[float, str | None]:
    """(whole-process ms of `python -m hirzebruch ARGV`, failure reason or None)."""
    done, ms = children.timed(["-m", "hirzebruch"] + argv)
    if done.returncode != 0 or done.stderr or not done.stdout:
        return ms, f"exit {done.returncode}, stderr {done.stderr[:120]!r}"
    if expected is not None and done.stdout != expected:
        return ms, f"stdout {done.stdout[:120]!r}, README shows {expected!r}"
    return ms, None


def import_layers(children: Children, samples: int) -> dict:
    """Median cumulative `-X importtime` ms of each layer's module."""
    found: dict[str, list[float]] = {layer: [] for layer in LAYERS}
    for _ in range(samples):
        done, _ = children.run(["-X", "importtime", "-c", IMPORT_SNIPPET])
        if done.returncode != 0:
            raise Fail(f"import failed: {done.stderr.strip()[-300:]}")
        for line in done.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2].startswith("hirzebruch."):
                layer = parts[2].partition(".")[2]
                if layer in found:
                    found[layer].append(int(parts[1]) / 1e3)
    missing = [layer for layer, values in found.items() if len(values) != samples]
    if missing:
        raise Fail(f"-X importtime reported no time for {missing}")
    return {f"{layer}.import_ms": statistics.median(values) for layer, values in found.items()}
