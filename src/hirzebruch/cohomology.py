"""Cohomology of line bundles on Hirzebruch surfaces, exactly.

Pushing O(a*h + b*f) down the ruling gives the splitting

    pi_* O(a*h + b*f) = O(b) + O(b - e) + ... + O(b - a*e)   on P^1,

so for a >= 0

    h^0(a, b) = sum_{i=0..a} max(0, b - i*e + 1),

and h^0 = 0 for a < 0.  ``h0`` evaluates that sum in closed form
(arithmetic series over the nonzero terms); ``oracle_h0`` counts the
monomial lattice points one by one and shares no code with it, so the two
can referee each other.

h^2 is Serre duality, h^2(c) = h^0(K - c).  The Euler characteristic comes
from Riemann-Roch:

    chi(a, b) = 1 + a*b + a + b - e*a*(a+1)/2,

where e*a*(a+1) is always even, and h^1 is defined by chi = h0 - h1 + h2.
A negative h^1 would mean this module is internally broken, so it raises
``ConsistencyError`` rather than returning.

h^1 vanishes exactly on three regimes ("the trichotomy"):

    a >= 0 and b >= e*a - 1
    a == -1
    a <= -2 and b <= e*a + e - 1

which is closed under Serre duality: h^1 > 0 exactly when a >= 0 and the
slack b - e*a is <= -2, or a <= -2 and slack >= e.  Along a spanned
twist (c, d), a moves by c and the slack by d - e*c, both >= 0, so each
set is one interval of twists, and a class meets at most one: the first
set before the second would need a to fall from >= 0 to <= -2, the
second before the first the slack to fall from >= e to <= -2.  So each
class has at most one *run* of h^1 > 0 along a twist line, from where
one form reaches its threshold to where the other reaches -1.

Kernels and wrappers: ``sections(e, a, b)`` (the h^0 sum) and
``counts(e, a, b)`` (the triple, with both consistency checks) take plain
integers and build no object.  The hot loops of :mod:`hirzebruch.natural`
and :mod:`hirzebruch.bundles` call them on twisted coordinates.  The
twist-line kernels ``effective_twist``, ``sections_twist`` (k sections)
and ``run_edges`` answer along a spanned twist in a fixed number of
integer operations per class, whatever the size of the coordinates.  The
public functions on (Surface, DivisorClass) are thin wrappers that call a
kernel on the class's coordinates, so each quantity has one formula; they
check nothing themselves, since `DivisorClass` refuses non-integer
coordinates when it is built.
"""

from __future__ import annotations

from math import isqrt
from typing import Optional

from .picard import DivisorClass, DomainError, Record, Surface, ceil_div, require_ints


class ConsistencyError(RuntimeError):
    """An internal identity failed; indicates a bug, not bad input."""


class CohomologyTriple(Record):
    __slots__ = ("h0", "h1", "h2")

    def __init__(self, h0: int, h1: int, h2: int) -> None:
        put_h0, put_h1, put_h2 = self._put
        put_h0(self, h0)
        put_h1(self, h1)
        put_h2(self, h2)

    def chi(self) -> int:
        return self.h0 - self.h1 + self.h2


def sections(e: int, a: int, b: int) -> int:
    """h^0(a*h + b*f) on F_e, by summing the pushforward degrees.

    The nonzero terms of sum_i max(0, b - i*e + 1) are the i with
    i <= b/e, so with n = min(a, floor(b/e)) the sum collapses to
    (n+1)(b+1) - e*n(n+1)/2.
    """
    if a < 0 or b < 0:
        return 0
    n = min(a, b // e)
    return (n + 1) * (b + 1) - e * n * (n + 1) // 2


def effective_twist(u: int, v: int, c: int, d: int) -> Optional[int]:
    """Least t with (u, v) + t*(c, d) effective (h^0 > 0), for (c, d)
    spanned and nonzero; None if no twist is effective.

    A class is effective exactly when both coordinates are >= 0.  If
    c >= 1 then d >= e*c >= 1 and both coordinates grow, so the answer is
    max(ceil(-u/c), ceil(-v/d)); if c = 0 the h-coordinate is frozen at
    u, so u < 0 means no twist is effective.
    """
    # ceil(-x / q) is -(x // q), written inline here and in `run_edges`
    # to spare a `ceil_div` call per bound
    if c >= 1:
        return max(-(u // c), -(v // d))
    if u < 0:
        return None
    return -(v // d)


def sections_twist(e: int, k: int, u: int, v: int, c: int, d: int, start: int) -> Optional[int]:
    """Least t >= start with sections(e, u + t*c, v + t*d) >= k, for k >= 1
    and (c, d) spanned and nonzero; None if no twist has a section.

    Both the h-coordinate a and the slack b - e*a are nondecreasing along
    the twist, and so is h^0.  Where it is nonzero:

      slack < 0:  h^0 depends on b alone (a > b // e in the sum), a
                  triangular count whose q+1 full columns, b = e*q + e - 1,
                  hold e*(q+1)*(q+2)/2 sections; the least b with k
                  sections is read off the column count with `isqrt`;
      slack >= 0: 2*h^0 = (a+1)*(2b + 2 - e*a), a product of two linear
                  forms in t that are positive there: a quadratic with a
                  nonnegative leading coefficient (linear when c = 0),
                  increasing past its larger root, which `isqrt` gives up
                  to one step.

    The first regime ends at the twist where the slack turns nonnegative
    (never, when a multiple of M leaves a negative slack alone).  Either
    answer has both coordinates >= 0, so no start needs clamping to the
    first twist with a section.  With c = 0 and u < 0 the h-coordinate
    never turns nonnegative.
    """
    if not c and u < 0:
        return None
    step, slack = d - e * c, v - e * u
    if step:
        turn: Optional[int] = ceil_div(-slack, step)
    else:
        turn = start if slack >= 0 else None
    if turn is None or turn > start:
        # the least n with n full columns, e*n*(n+1)/2 >= k, then the least
        # b in the last of them; the n before holds fewer than k sections
        need = ceil_div(2 * k, e)
        n = (isqrt(4 * need + 1) - 1) // 2
        if n * (n + 1) < need:
            n += 1
        q = n - 1
        b = e * q + ceil_div(k - e * q * n // 2, n) - 1
        t = max(start, ceil_div(b - v, d))
        if turn is None or t < turn:
            return t
    # 2*h^0 - 2k = lead*t^2 + mid*t + rest where the slack is >= 0; where
    # it is < 0 the quadratic is at most 2*h^0 - 2k (the pushforward sum
    # over i <= n is largest at n = b // e), so it finds no earlier twist
    lead = c * (2 * d - e * c)
    mid = (u + 1) * (2 * d - e * c) + c * (2 * v + 2 - e * u)
    rest = (u + 1) * (2 * v + 2 - e * u) - 2 * k
    if not lead:
        return max(start, ceil_div(-rest, mid))
    t = ceil_div(isqrt(mid * mid - 4 * lead * rest) - mid, 2 * lead)
    if (lead * t + mid) * t + rest < 0:
        t += 1
    return max(start, t)


def _euler(e: int, a: int, b: int) -> int:
    """Riemann-Roch; exact integer division."""
    num = e * a * (a + 1)
    q, rem = divmod(num, 2)
    if rem != 0:
        raise ConsistencyError(f"e*a*(a+1) = {num} is odd; impossible")
    return 1 + a * b + a + b - q


def counts(e: int, a: int, b: int) -> tuple[int, int, int]:
    """(h0, h1, h2) of a*h + b*f on F_e: h0 or h2 = h0(K - c) summed, the
    one that can be nonzero (a >= 0 leaves K - c the h-coordinate -2 - a,
    and a < 0 has no h0), and h1 forced by chi = h0 - h1 + h2."""
    v0, v2 = (sections(e, a, b), 0) if a >= 0 else (0, sections(e, -2 - a, -e - 2 - b))
    v1 = v0 + v2 - _euler(e, a, b)
    if v1 < 0:
        raise ConsistencyError(f"negative h1 = {v1} at e={e}, c=({a},{b})")
    return v0, v1, v2


def h0(surface: Surface, c: DivisorClass) -> int:
    """Global sections of O(c)."""
    return sections(surface.e, c.a, c.b)


def oracle_h0(surface: Surface, c: DivisorClass) -> int:
    """Brute-force section count: lattice points (i, j) with
    0 <= i <= a and 0 <= j <= b - i*e.

    Deliberately naive. Kept independent of ``h0`` so each checks the other.
    """
    a, b, e = c.a, c.b, surface.e
    count = 0
    for i in range(0, a + 1):
        for _j in range(0, b - i * e + 1):
            count += 1
    return count


def chi(surface: Surface, c: DivisorClass) -> int:
    """Euler characteristic via Riemann-Roch."""
    return _euler(surface.e, c.a, c.b)


def h2(surface: Surface, c: DivisorClass) -> int:
    """Serre duality: h^2(c) = h^0(K - c)."""
    return counts(surface.e, c.a, c.b)[2]


def h1(surface: Surface, c: DivisorClass) -> int:
    """h^1 forced by chi = h0 - h1 + h2."""
    return counts(surface.e, c.a, c.b)[1]


def h1_vanishes(surface: Surface, c: DivisorClass) -> bool:
    """Closed-form h^1 = 0 test (the trichotomy); no cohomology computed."""
    a, b, e = c.a, c.b, surface.e
    if a >= 0:
        return b >= e * a - 1
    if a == -1:
        return True
    return b <= e * a + e - 1


def run_edges(
    e: int, classes: tuple[DivisorClass, ...], c: int, d: int
) -> tuple[list[int], list[int]]:
    """The finite starts and stops of the classes' runs of h^1 > 0 along
    a spanned nonzero twist (c, d), one run at most per class (see the
    module docstring).

    A form that does not move meets its threshold always or never, which
    leaves the run unbounded on that side or empty: under a multiple of M
    (step = 0) the run starts where a reaches 0 or stops where it reaches
    -1, and under a fiber class (c = 0) likewise with the slack.
    """
    step = d - e * c
    starts: list[int] = []
    stops: list[int] = []
    # each ceil(-x / q) is written inline as -(x // q), as in `effective_twist`
    for cls in classes:
        a, slack = cls.a, cls.b - e * cls.a
        if not step:
            if slack <= -2:
                starts.append(-(a // c))
            elif slack >= e:
                stops.append(-((a + 1) // c))
        elif not c:
            if a >= 0:
                stops.append(-((slack + 1) // step))
            elif a <= -2:
                starts.append(-((slack - e) // step))
        else:
            start, stop = -(a // c), -((slack + 1) // step)
            if start >= stop:
                start, stop = -((slack - e) // step), -((a + 1) // c)
            if start < stop:
                starts.append(start)
                stops.append(stop)
    return starts, stops


def triple(surface: Surface, c: DivisorClass) -> CohomologyTriple:
    """(h0, h1, h2) from one evaluation each of h0, h2 and chi."""
    return CohomologyTriple(*counts(surface.e, c.a, c.b))


def cohomology_profile(
    surface: Surface,
    c: DivisorClass,
    by: DivisorClass,
    t_from: int,
    t_to: int,
) -> list[tuple[int, CohomologyTriple]]:
    """Triples of c + t*by for t in the inclusive range [t_from, t_to]."""
    require_ints(t_from, t_to)
    if t_from > t_to:
        raise DomainError(f"inverted twist range {t_from}..{t_to}")
    e, a, b, da, db = surface.e, c.a, c.b, by.a, by.b
    return [
        (t, CohomologyTriple(*counts(e, a + t * da, b + t * db)))
        for t in range(t_from, t_to + 1)
    ]
