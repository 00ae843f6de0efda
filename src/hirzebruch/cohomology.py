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

which is closed under Serre duality; :mod:`hirzebruch.natural` reads the
runs of h^1 > 0 along a twist line off it.

Kernels and wrappers: ``sections(e, a, b)`` (the h^0 sum) and
``counts(e, a, b)`` (the triple, with both consistency checks) take plain
integers and build no object.  The hot loops of :mod:`hirzebruch.natural`
and :mod:`hirzebruch.bundles` call them on twisted coordinates.  The
public functions on (Surface, DivisorClass) are thin wrappers that call a
kernel on the class's coordinates, so each quantity has one formula; they
check nothing themselves, since `DivisorClass` refuses non-integer
coordinates when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .picard import DivisorClass, DomainError, Surface, require_ints


class ConsistencyError(RuntimeError):
    """An internal identity failed; indicates a bug, not bad input."""


@dataclass(frozen=True)
class CohomologyTriple:
    h0: int
    h1: int
    h2: int

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


def _euler(e: int, a: int, b: int) -> int:
    """Riemann-Roch; exact integer division."""
    num = e * a * (a + 1)
    q, rem = divmod(num, 2)
    if rem != 0:
        raise ConsistencyError(f"e*a*(a+1) = {num} is odd; impossible")
    return 1 + a * b + a + b - q


def counts(e: int, a: int, b: int) -> tuple[int, int, int]:
    """(h0, h1, h2) of a*h + b*f on F_e: h0 and h2 = h0(K - c) summed once
    each, h1 forced by chi = h0 - h1 + h2."""
    v0, v2 = sections(e, a, b), sections(e, -2 - a, -e - 2 - b)
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
