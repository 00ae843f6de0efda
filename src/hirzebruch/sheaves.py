"""Ideal sheaves of finite generic point sets, twisted by a line bundle.

The model is I_Z(c) for Z a length-z zero-dimensional subscheme in one of
three generic positions:

    GENERAL     z general points of the surface
    ON_SECTION  z general points on the negative section h
    ON_FIBER    z general points on one fiber f

Only the numbers below are modelled, not actual schemes.  For general
points each point imposes one condition on sections until the sections run
out, so h^0(I_Z(c)) = max(0, h0(c) - z).  For points on a curve C in class
(1,0) or (0,1), the sections that vanish on all of Z split off the
sublinear system through C: with r = h0(c) - h0(c - C) (the dimension the
restriction to C actually sees),

    h^0(I_Z(c)) = h0(c - C) + max(0, r - z).

h^2 is untouched by a 0-dimensional subscheme, and h^1 then follows from
chi(I_Z(c)) = chi(c) - z.  In every case

    h0_ideal(c) = h0(c) - min(z, rho(c)),  h1_ideal(c) = h1(c) + max(0, z - rho(c))

with rho the capacity returned by ``max_conditions``; the scan windows in
:mod:`hirzebruch.natural` lean on that shape, and the test suite checks it.
Equivalently h0_ideal(c) = max(h0(c) - z, h0(c - C)), with h0(c - C) = 0
in general position, so I_Z(c) has a section exactly when O(c) has z + 1
or c - C is effective.

As in :mod:`hirzebruch.cohomology`, the formulas live in integer kernels,
``ideal_sections(e, z, locus, a, b)`` and ``ideal_counts(e, z, locus, a,
b)``, which the scan, box and exclusion loops call without building a
model per twist; ``ideal_sections_twist`` runs the first of them
backwards along a twist with the twist-line kernels of
:mod:`hirzebruch.cohomology`, in a fixed number of integer operations:
``sections_twist`` for the z + 1 sections of O(c) and
``effective_twist`` for c - C.  The functions on (Surface,
IdealSheafModel) are thin wrappers that call a kernel and check nothing
themselves: `PointConfig` refuses a point count that is not a plain int
>= 0 and a locus that is not a `Locus`, and `DivisorClass` non-integer
coordinates, when they are built.  The kernels compare a locus by
identity against members bound once at import (`_GENERAL`, ...) and
index no dict by one: in a CPython 3.11 timeit, reading a member through
its class cost 120-135 ns against 14-18 ns for a plain class attribute,
and a dict lookup keyed by one, which runs the Python-level
`Enum.__hash__`, about 135 ns.
"""

from __future__ import annotations

import enum
from typing import Optional

from .cohomology import ConsistencyError, counts, effective_twist, sections, sections_twist
from .picard import DivisorClass, DomainError, Record, Surface, require_ints


class Locus(enum.Enum):
    GENERAL = "general"
    ON_SECTION = "section"
    ON_FIBER = "fiber"


# the members the kernels compare against, bound once (see the module
# docstring), and the supporting curves h = (1,0) and f = (0,1)
_GENERAL = Locus.GENERAL
_ON_SECTION = Locus.ON_SECTION
_SECTION_CURVE = DivisorClass(1, 0)
_FIBER_CURVE = DivisorClass(0, 1)


class PointConfig(Record):
    """z points in the given generic position; z = 0 means the empty scheme."""

    __slots__ = ("z", "locus")

    def __init__(self, z: int, locus: Locus) -> None:
        if type(z) is not int:
            require_ints(z)  # raises
        if z < 0:
            raise DomainError(f"point count must be >= 0, got {z}")
        if not isinstance(locus, Locus):
            raise DomainError(f"point locus must be a Locus, got {locus!r}")
        put_z, put_locus = self._put
        put_z(self, z)
        put_locus(self, locus)


class IdealSheafModel(Record):
    """I_Z(cls) with Z described by ``config``."""

    __slots__ = ("config", "cls")

    def __init__(self, config: PointConfig, cls: DivisorClass) -> None:
        put_config, put_cls = self._put
        put_config(self, config)
        put_cls(self, cls)


def restriction_degree(surface: Surface, c: DivisorClass, locus: Locus) -> int:
    """Degree of O(c) restricted to the supporting curve.

    On the section h this is c.h = b - e*a; on a fiber it is c.f = a.
    Undefined for GENERAL position.
    """
    if not isinstance(locus, Locus):
        raise DomainError(f"point locus must be a Locus, got {locus!r}")
    if locus is _GENERAL:
        raise DomainError("restriction degree needs a curve locus, not GENERAL")
    return surface.intersect(c, _SECTION_CURVE if locus is _ON_SECTION else _FIBER_CURVE)


def _unseen(e: int, locus: Locus, a: int, b: int) -> int:
    """The sections of O(c) that vanish on the whole supporting curve,
    h0(c - C); none in general position."""
    if locus is _GENERAL:
        return 0
    curve = _SECTION_CURVE if locus is _ON_SECTION else _FIBER_CURVE
    return sections(e, a - curve.a, b - curve.b)


def _ideal_h0(e: int, z: int, locus: Locus, a: int, b: int, full: int) -> int:
    """h0(c) - min(z, capacity) for c = (a, b), given full = h0(c): each
    point imposes one condition until the capacity runs out."""
    return full - min(z, full - _unseen(e, locus, a, b))


def ideal_sections(e: int, z: int, locus: Locus, a: int, b: int) -> int:
    """h0 of I_Z(a, b), with h0(c) evaluated once."""
    return _ideal_h0(e, z, locus, a, b, sections(e, a, b))


def ideal_sections_twist(
    e: int, z: int, locus: Locus, u: int, v: int, c: int, d: int, start: int
) -> Optional[int]:
    """Least t >= start with ideal_sections(e, z, locus, u + t*c, v + t*d) > 0,
    for (c, d) spanned and nonzero; None if no twist has a section.

    h0_ideal = max(h0(c) - z, h0(c - C)) and both terms are nondecreasing
    along the twist, so the answer is the earlier of the first twist where
    O(c) has z + 1 sections and the first where c - C is effective.
    """
    t = sections_twist(e, z + 1, u, v, c, d, start)
    if locus is _GENERAL:
        return t
    curve = _SECTION_CURVE if locus is _ON_SECTION else _FIBER_CURVE
    unseen = effective_twist(u - curve.a, v - curve.b, c, d)
    # c - C effective makes c effective, so unseen is None whenever t is
    return t if unseen is None else min(t, max(start, unseen))


def ideal_counts(e: int, z: int, locus: Locus, a: int, b: int) -> tuple[int, int, int]:
    """(h0, h1, h2) of I_Z(a, b): h2 is the line bundle's, and h1 is
    forced by chi(I_Z(c)) = chi(c) - z.  h0 reads the h0(c) of `counts`."""
    full, line1, v2 = counts(e, a, b)
    v0 = _ideal_h0(e, z, locus, a, b, full)
    v1 = v0 + v2 - (full - line1 + v2 - z)
    if v1 < 0:
        raise ConsistencyError(
            f"negative ideal h1 = {v1} at e={e}, z={z}, locus={locus.value}, c=({a},{b})"
        )
    return v0, v1, v2


def _kernel_args(model: IdealSheafModel) -> tuple[int, Locus, int, int]:
    """(z, locus, a, b) of the model: the arguments of the kernels."""
    return model.config.z, model.config.locus, model.cls.a, model.cls.b


def max_conditions(surface: Surface, model: IdealSheafModel) -> int:
    """How many independent conditions this configuration can impose.

    GENERAL position: all of h0(c).  On a curve C: the part of h0(c) that
    the restriction to C sees, r = h0(c) - h0(c - C).
    """
    _, locus, a, b = _kernel_args(model)
    return sections(surface.e, a, b) - _unseen(surface.e, locus, a, b)


def h0_ideal(surface: Surface, model: IdealSheafModel) -> int:
    """h0(c) - min(z, max_conditions)."""
    return ideal_sections(surface.e, *_kernel_args(model))


def h2_ideal(surface: Surface, model: IdealSheafModel) -> int:
    # a length-z subscheme cannot change h^2
    return ideal_counts(surface.e, *_kernel_args(model))[2]


def h1_ideal(surface: Surface, model: IdealSheafModel) -> int:
    """Forced by chi(I_Z(c)) = chi(c) - z."""
    return ideal_counts(surface.e, *_kernel_args(model))[1]

