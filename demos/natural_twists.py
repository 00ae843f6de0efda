"""Where two-step vanishing holds and where it quietly breaks.

A sheaf has "natural" cohomology in a twist when at most one of h0, h1 is
nonzero.  Twisting by an ample class eventually forces this; the interesting
question is what survives when the twisting class M = (1, e) is only spanned,
with M.M = e > 0 but M.f = 0 on the fibers.

Run with: python3 demos/natural_twists.py
"""

import sys

from hirzebruch import (
    DirectSum,
    DivisorClass,
    Line,
    Surface,
    cohomology_profile,
    direct_sum_natural_wrt_m,
    line_natural_wrt_m,
    scan_verdict,
    unconditional_scan,
)

surface = Surface(2)
m = surface.m_class()

# The smallest failure: O(1,0) on the e = 2 surface.  Every twist keeps a
# fiber direction that the spanned class never corrects.
probe = DivisorClass(1, 0)
evidence = scan_verdict(surface, Line(probe), m)
v = evidence.verdict
print(f"O{probe} twisted by M = {m} on e = 2:")
print(f"  holds: {v.holds()}, witness t = {v.witness_t}, "
      f"(h0,h1) = ({v.witness_h0},{v.witness_h1})")
for t, triple in cohomology_profile(surface, probe, m, v.witness_t, v.witness_t + 1):
    print(f"  t = {t}: h0 = {triple.h0}, h1 = {triple.h1}")
print()

# Closed form: a line bundle (u, v) works iff v >= eu - 1.  The band of
# classes that pass for every twist, positive and negative, is exactly
# eu - 1 <= v <= eu + e - 1.
print("closed form vs scan on a small square, e = 2 (x = natural wrt M):")
for v_ in range(5, -3, -1):
    row = ""
    for u in range(-2, 4):
        cls = DivisorClass(u, v_)
        flag = line_natural_wrt_m(surface, cls)
        if flag != scan_verdict(surface, Line(cls), m).verdict.holds():
            sys.exit(f"closed form and scan disagree on O{cls}")
        row += " x" if flag else " ."
    print(f"  v = {v_:3d}:{row}")
print()

# Direct sums do not inherit the property from their summands.  The pair
# O + O(-2, 4 - e) is the sharpest example: each summand passes alone, the
# sum jams h0 from one summand against h1 from the other at t = 0.
for e in (1, 2, 3):
    s = Surface(e)
    pair = (DivisorClass(0, 0), DivisorClass(-2, 4 - e))
    alone = [line_natural_wrt_m(s, c) for c in pair]
    together = direct_sum_natural_wrt_m(s, list(pair))
    w = scan_verdict(s, DirectSum(pair), s.m_class()).verdict
    print(f"e = {e}: summands natural = {alone}, sum natural = {together}, "
          f"witness t = {w.witness_t} (h0,h1) = ({w.witness_h0},{w.witness_h1})")
print()

# Against a genuinely ample class the two-sided property holds for all
# self-twists; the fattened polarization H + (0,2) destroys it.
e1 = Surface(1)
ample = DivisorClass(1, 3)
fat = ample + DivisorClass(0, 2)
for t in (1, 2, 3):
    power = Line(t * ample)
    up = unconditional_scan(e1, power, ample).verdict.holds()
    down = unconditional_scan(e1, power, fat).verdict.holds()
    print(f"t = {t}: {t}*H wrt H: {up},  wrt H+(0,2): {down}")
