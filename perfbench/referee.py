"""Independent answers for the benchmark's correctness gate.

Nothing here imports the package's closed forms.  Classes are plain
(a, b) integer pairs on F_e, written a*h + b*f.  The formulas are the
documented mathematics (pushforward sum, Riemann-Roch, the ideal-sheaf
model of the README), coded separately, so a disagreement with the
program is a finding about the program or about this file, never a
tautology.  Everything runs outside the timed region.
"""

from __future__ import annotations


def ceil_div(p: int, q: int) -> int:
    return -((-p) // q)


def h0(e: int, a: int, b: int) -> int:
    """Pushforward sum over i = 0..min(a, b//e) of (b - i*e + 1), paired
    first-with-last (Gauss)."""
    if a < 0 or b < 0:
        return 0
    n = min(a, b // e)
    first, last = b + 1, b - n * e + 1
    return (first + last) * (n + 1) // 2


def intersect(e: int, x: tuple[int, int], y: tuple[int, int]) -> int:
    return -e * x[0] * y[0] + x[0] * y[1] + x[1] * y[0]


def chi(e: int, a: int, b: int) -> int:
    """Riemann-Roch: 1 + (D.D - D.K)/2 with K = (-2, -(e+2))."""
    d = (a, b)
    twice = intersect(e, d, d) - intersect(e, d, (-2, -(e + 2)))
    return 1 + twice // 2


def h2(e: int, a: int, b: int) -> int:
    return h0(e, -2 - a, -(e + 2) - b)


def h1(e: int, a: int, b: int) -> int:
    return h0(e, a, b) + h2(e, a, b) - chi(e, a, b)


def spanned(e: int, c: tuple[int, int]) -> bool:
    return c[0] >= 0 and c[1] >= c[0] * e and c != (0, 0)


# --- sheaf models: ("line", (a, b)), ("sum", ((a, b), ...)),
#     ("ideal", locus, z, (a, b)) with locus general / section / fiber

_CURVE = {"section": (1, 0), "fiber": (0, 1)}


def ideal_h0(e: int, locus: str, z: int, a: int, b: int) -> int:
    if locus == "general":
        return max(0, h0(e, a, b) - z)
    ca, cb = _CURVE[locus]
    below = h0(e, a - ca, b - cb)
    return below + max(0, h0(e, a, b) - below - z)


def ideal_h1(e: int, locus: str, z: int, a: int, b: int) -> int:
    return ideal_h0(e, locus, z, a, b) - (chi(e, a, b) - z) + h2(e, a, b)


def model_values(e: int, model: tuple, t: int, by: tuple[int, int]) -> tuple[int, int]:
    """(h0, h1) of the model twisted by t*by."""
    c, d = by
    if model[0] == "line":
        a, b = model[1][0] + t * c, model[1][1] + t * d
        return h0(e, a, b), h1(e, a, b)
    if model[0] == "sum":
        total0 = total1 = 0
        for u, v in model[1]:
            a, b = u + t * c, v + t * d
            total0 += h0(e, a, b)
            total1 += h1(e, a, b)
        return total0, total1
    _, locus, z, (u, v) = model
    a, b = u + t * c, v + t * d
    return ideal_h0(e, locus, z, a, b), ideal_h1(e, locus, z, a, b)


def components(model: tuple) -> tuple[tuple[int, int], ...]:
    if model[0] == "sum":
        return tuple(model[1])
    return (model[-1],)


def has_sections_somewhere(model: tuple, by: tuple[int, int]) -> bool:
    """Some twist has sections iff some component can reach the effective
    quadrant: a fiber-type twist (0, d) freezes the h-coordinate."""
    return by[0] >= 1 or any(u >= 0 for u, _ in components(model))


def wide_scan(e: int, model: tuple, by: tuple[int, int], two_sided: bool, width: int) -> bool:
    """Row-by-row verdict over [-width, width]; small coefficients only.

    For small inputs every coordinate is deep in its stable regime at
    |t| = width.
    """
    for t in range(-width, width + 1):
        v0, v1 = model_values(e, model, t, by)
        if v1 > 0 and (two_sided or v0 > 0):
            return False
    return True


# --- closed forms, re-derived from the documented criteria


def line_natural_wrt_m(e: int, u: int, v: int) -> bool:
    return v >= e * u - 1


def line_unconditional_wrt_m(e: int, u: int, v: int) -> bool:
    return e * u - 1 <= v <= e * u + e - 1


def line_natural_wrt_r(e: int, u: int, v: int) -> bool:
    if v >= (e + 1) * u:
        return True
    return v + ceil_div(-v, e + 1) >= e * u - 1


def sum_natural_wrt_m(e: int, classes) -> bool:
    ordered = sorted(classes, key=lambda c: (-c[0], -c[1]))
    if any(v < e * u - 1 for u, v in ordered):
        return False
    u1, v1 = ordered[0]
    m = -u1 if v1 >= e * u1 else -u1 + 1
    for u, v in ordered[1:]:
        if u + m < -1 and not -1 <= v - e * u <= e - 1:
            return False
    return True


# --- rank-2 construction and its long-exact-sequence box


def section_bounds(e: int, u: int, v: int, m: int) -> tuple[int, int]:
    return (
        h0(e, u + 2 * m - 2, v + 2 * m * e - e),
        h0(e, u + 2 * m - 1, v + 2 * m * e),
    )


def construction_error(e: int, u: int, v: int, m: int, s: int):
    """The ConstructionError reason the documented hypotheses predict, or None."""
    if v < e * (u - 1) - 1:
        return "hypothesis_v"
    if m < 0:
        return "hypothesis_m"
    lo, hi = section_bounds(e, u, v, m)
    if not lo <= s <= hi:
        return "s_out_of_range"
    return None


def construction(e: int, u: int, v: int, m: int, s: int) -> dict:
    sub = (1 - m, -e * m)
    quot = (u + m - 1, v + e * m)
    lo, hi = section_bounds(e, u, v, m)
    cb = True if s == 0 else h0(e, u + 2 * m - 5, v + 2 * m * e - 2 * e - 2) <= s - 1
    split = s == 0 and h1(e, sub[0] - quot[0], sub[1] - quot[1]) == 0
    return {
        "sub": sub,
        "quot": quot,
        "s_range": (lo, hi),
        "c2": s + intersect(e, sub, quot),
        "section_min": lo <= s,
        "cayley_bacharach": cb,
        "ext_forced_split": split,
    }


def les_box(e: int, con: dict, s: int, t: int) -> tuple:
    """(h0_min, h0_max, h1_min, h1_max) of the extension twisted by t*M."""
    sa, sb = con["sub"][0] + t, con["sub"][1] + t * e
    qa, qb = con["quot"][0] + t, con["quot"][1] + t * e
    a0, a1, a2 = h0(e, sa, sb), h1(e, sa, sb), h2(e, sa, sb)
    q0 = ideal_h0(e, "general", s, qa, qb)
    q1 = ideal_h1(e, "general", s, qa, qb)
    if con["ext_forced_split"]:
        return a0 + q0, a0 + q0, a1 + q1, a1 + q1
    return a0 + max(0, q0 - a1), a0 + q0, max(0, a1 - q0) + max(0, q1 - a2), a1 + q1


def box_outcome(box: tuple) -> str:
    lo0, hi0, lo1, hi1 = box
    if lo0 > 0 and lo1 > 0:
        return "FAILS"
    if hi1 == 0 or hi0 == 0:
        return "HOLDS"
    return "INDET"


# --- stability exclusions and region labels


def exclusion(e: int, con: dict, s: int, n: tuple[int, int]):
    """Why O(N) cannot map into the extension (None when it can)."""
    if con["sub"][0] - n[0] >= 0 and con["sub"][1] - n[1] >= 0:
        return None
    ra, rb = con["quot"][0] - n[0], con["quot"][1] - n[1]
    if ideal_h0(e, "general", s, ra, rb) > 0:
        return None
    if h0(e, ra, rb) > 0:
        return "genericity"
    return "no_map"


def slope_qualifies(e: int, pol: str, u: int, v: int, n: tuple[int, int]) -> bool:
    if pol == "R":
        return 2 * (n[0] + n[1]) >= u + v
    return 2 * n[1] >= v


def region_cell(e: int, rank: int, u: int, v: int, m_max: int) -> tuple[str, tuple]:
    if v <= e * (u - rank + 1) - 2:
        return "Nonexistent", ()
    if rank == 1:
        return "Existent", ((0, 0),)
    spans = []
    for m in range(m_max + 1):
        lo, hi = section_bounds(e, u, v, m)
        base = -e * (u + m - 1) + (1 - m) * (v + e * m)
        spans.append((base + lo, base + hi))
    merged: list[list[int]] = []
    for lo, hi in sorted(spans):
        if merged and lo <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return "Existent", tuple((lo, hi) for lo, hi in merged)
