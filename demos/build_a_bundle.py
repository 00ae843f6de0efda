"""Construct a rank-2 bundle as an extension and audit its twists.

The recipe: pick the target first Chern class (u, v), a margin m >= 0, and a
number of points s inside the allowed window.  The bundle sits in

    0 -> O(1-m, -em) -> E -> I_Z(u+m-1, v+em) -> 0

with Z a set of s general points.  Everything downstream (c2, section
counts, splitting behavior, stability) is decided by exact arithmetic.

Run with: python3 demos/build_a_bundle.py
"""

import sys

from hirzebruch import (
    ConstructionError,
    Outcome,
    Surface,
    audit_extension_natural,
    construct_extension,
    section_count_bounds,
    stability_certificate,
)

surface = Surface(1)
u, v, m = 3, 2, 0

lo, hi = section_count_bounds(surface, u, v, m)
print(f"e = {surface.e}, c1 = ({u},{v}), margin m = {m}: s ranges over [{lo}, {hi}]")

datum = construct_extension(surface, u, v, m, lo)
print(f"  sub-bundle:     O{datum.sub}")
print(f"  quotient:       I_Z{datum.quotient.cls} with |Z| = {datum.quotient.config.z}")
chern = datum.chern()
print(f"  Chern classes:  c1 = {chern.c1}, c2 = {chern.c2}")
print(f"  Cayley-Bacharach satisfied: {datum.cayley_bacharach}")
print(f"  forced to split: {datum.ext_forced_split}")
print()

# The audit scans self-twists and classifies each via the long exact
# sequence box; HOLDS means at most one of h0, h1 can be nonzero.
audit = audit_extension_natural(datum)
print(f"audit over t in [{audit.scan_start}, {audit.scan_stop}]: "
      f"{audit.verdict.outcome.name}")
for row in audit.rows[:5]:
    iv = row.interval
    print(f"  t = {row.t}: h0 in [{iv.h0_min},{iv.h0_max}], "
          f"h1 in [{iv.h1_min},{iv.h1_max}]  -> {row.outcome.name}")
print()

# Same machinery on the boundary instance e = 2, c1 = (2,1), s = 0: here
# the extension group vanishes, the bundle splits, and the split pieces
# collide at t = 0.
boundary = construct_extension(Surface(2), 2, 1, 0, 0)
print(f"boundary e = 2, c1 = (2,1), s = 0: forced split = "
      f"{boundary.ext_forced_split}")
bv = audit_extension_natural(boundary).verdict
if bv.outcome is not Outcome.FAILS:
    sys.exit(f"expected the split boundary instance to fail, got {bv.outcome.name}")
print(f"  fails at t = {bv.witness_t} with (h0,h1) = "
      f"({bv.witness_h0},{bv.witness_h1})")
print()

# Stability: for m = 0 the certificate enumerates every sub-line-bundle
# class that could destabilize and rules each out.
for s in (lo, hi):
    report = stability_certificate(construct_extension(surface, u, v, m, s), "R")
    cands = ", ".join(str(c.cls) for c in report.candidates)
    print(f"s = {s}: stable wrt R certified = {report.certified} "
          f"(candidates ruled out: {cands})")

# Out-of-window s is rejected with a named reason, not silently clamped.
try:
    construct_extension(surface, u, v, m, hi + 1)
except ConstructionError as err:
    print(f"\ns = {hi + 1} rejected: {err}")
