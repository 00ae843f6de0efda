"""Exact Picard-lattice arithmetic on Hirzebruch surfaces.

The surface F_e (e >= 1) is the P^1-bundle over P^1 whose negative section
h has self-intersection -e.  Its divisor class group is free of rank two,
generated by h and a fiber f of the ruling, with intersection pairing

    h.h = -e,    h.f = 1,    f.f = 0.

A class a*h + b*f is stored as the integer pair (a, b).  Everything here
is exact integer arithmetic; no floats appear anywhere in this package.
The types refuse non-integers when they are built: `DivisorClass`,
`Surface` and `sheaves.PointConfig` check their own fields through
`require_ints` (a bool or a float such as 2.0 is a `DomainError`), so a
function that takes them reads plain ints without checking again.

Positivity on F_e has closed-form descriptions:

    effective:  a >= 0 and b >= 0
    spanned:    a >= 0 and b >= a*e   (base-point free)
    ample:      a >  0 and b >  a*e

so ample implies spanned implies effective.  Two distinguished classes
recur throughout the package: ``m_class`` = h + e*f, which is spanned but
not ample (it contracts h), and ``r_class`` = h + (e+1)*f, the minimal
ample class.
"""

from __future__ import annotations

from dataclasses import dataclass


class DomainError(ValueError):
    """Raised when an argument lies outside the mathematical domain."""


@dataclass(frozen=True)
class DivisorClass:
    """The class a*h + b*f in the Picard lattice of a Hirzebruch surface."""

    a: int
    b: int

    def __post_init__(self) -> None:
        # tested inline, since every class passes here; `require_ints` raises
        if type(self.a) is not int or type(self.b) is not int:
            require_ints(self.a, self.b)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(-self.a, -self.b)

    def __rmul__(self, k: int) -> "DivisorClass":
        if type(k) is not int:
            return NotImplemented
        return DivisorClass(k * self.a, k * self.b)

    def __str__(self) -> str:
        return f"({self.a},{self.b})"

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0


@dataclass(frozen=True)
class PositivityReport:
    """Membership of a class in the nested effective/spanned/ample cones."""

    effective: bool
    spanned: bool
    ample: bool


@dataclass(frozen=True)
class Surface:
    """The Hirzebruch surface F_e, e >= 1.

    e = 0 (the quadric) is excluded: several classifications used here
    genuinely differ there, and nothing in this package is validated for it.
    """

    e: int

    def __post_init__(self) -> None:
        require_ints(self.e)
        if self.e < 1:
            raise DomainError(f"surface parameter e must be an integer >= 1, got {self.e!r}")

    def intersect(self, c1: DivisorClass, c2: DivisorClass) -> int:
        """Intersection number of two classes.

        Bilinear extension of h.h = -e, h.f = 1, f.f = 0.
        """
        return -self.e * c1.a * c2.a + c1.a * c2.b + c2.a * c1.b

    def canonical_class(self) -> DivisorClass:
        """K = -2h - (e+2)f.  Satisfies adjunction for h and f."""
        return DivisorClass(-2, -(self.e + 2))

    def positivity(self, c: DivisorClass) -> PositivityReport:
        effective = c.a >= 0 and c.b >= 0
        spanned = c.a >= 0 and c.b >= c.a * self.e
        ample = c.a > 0 and c.b > c.a * self.e
        return PositivityReport(effective=effective, spanned=spanned, ample=ample)

    def m_class(self) -> DivisorClass:
        """M = h + e*f: spanned but not ample, with M.M = e.

        Twisting any sheaf repeatedly by M eventually produces sections,
        which makes M the default twisting class for the scans in
        :mod:`hirzebruch.natural`.
        """
        return DivisorClass(1, self.e)

    def r_class(self) -> DivisorClass:
        """R = h + (e+1)*f: the minimal ample class, R.R = e + 2."""
        return DivisorClass(1, self.e + 1)


def twist(c: DivisorClass, t: int, by: DivisorClass) -> DivisorClass:
    """The class c + t*by.  t may be any integer, and only an integer."""
    require_ints(t)
    return DivisorClass(c.a + t * by.a, c.b + t * by.b)


def require_ints(*values: object) -> None:
    """DomainError unless every value is a plain int.

    ``type(x) is int`` refuses bool and every float, 2.0 included.  The
    types check their fields here, and the public entry points their
    plain-int parameters; the integer kernels they call do not.
    """
    for x in values:
        if type(x) is not int:
            raise DomainError(f"expected an integer, got {x!r}")


def ceil_div(p: int, q: int) -> int:
    """ceil(p / q) for integers with q > 0, exactly."""
    return -((-p) // q)
