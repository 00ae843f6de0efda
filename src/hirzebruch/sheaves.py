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

with rho = h0(c) - h0(c - C) the capacity (all of h0(c) in general
position), the most conditions the points impose; the scan windows in
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
IdealSheafModel) are thin wrappers that call a kernel and test only
their arguments' types, in `_kernel_args`: `PointConfig` refuses a point
count that is not a plain int >= 0 and a locus that is not a `Locus`,
and `DivisorClass` non-integer coordinates, when they are built.  The
kernels compare a locus by identity against members bound once at
import (`_GENERAL`, ...) and index no dict by one: in a CPython 3.11
timeit, reading a member through its class cost 120-135 ns against
14-18 ns for a plain class attribute, and a dict lookup keyed by one,
which runs the Python-level `Enum.__hash__`, about 135 ns.
"""

from __future__ import annotations

import enum
from typing import Optional

from .cohomology import counts, effective_twist, sections, sections_twist
from .picard import DivisorClass, DomainError, Record, Surface, require_ints, require_types


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
            require_types(("point locus", locus, Locus))
        put_z, put_locus = self._put
        put_z(self, z)
        put_locus(self, locus)


class IdealSheafModel(Record):
    """I_Z(cls) with Z described by ``config``."""

    __slots__ = ("config", "cls")

    def __init__(self, config: PointConfig, cls: DivisorClass) -> None:
        if not isinstance(config, PointConfig):
            require_types(("point configuration", config, PointConfig))
        if not isinstance(cls, DivisorClass):
            require_types(("ideal sheaf class", cls, DivisorClass))
        put_config, put_cls = self._put
        put_config(self, config)
        put_cls(self, cls)


def _curve_h0(e: int, z: int, locus: Locus, a: int, b: int, full: int) -> int:
    """h0 of I_Z(c), c = (a, b), for points on a curve C, given full =
    h0(c): max(full - z, h0(c - C)), as each point imposes one condition
    until the capacity full - h0(c - C) runs out.  General position, the
    locus of every construction's quotient, has no C: the callers answer
    it inline, max(full - z, 0)."""
    curve = _SECTION_CURVE if locus is _ON_SECTION else _FIBER_CURVE
    v0, unseen = full - z, sections(e, a - curve.a, b - curve.b)
    return v0 if v0 > unseen else unseen


def ideal_sections(e: int, z: int, locus: Locus, a: int, b: int) -> int:
    """h0 of I_Z(a, b), with h0(c) evaluated once."""
    full = sections(e, a, b)
    if locus is _GENERAL:
        return full - z if full > z else 0
    return _curve_h0(e, z, locus, a, b, full)


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
    if unseen is None:
        return t
    if unseen < start:
        unseen = start
    return t if t <= unseen else unseen


def ideal_counts(e: int, z: int, locus: Locus, a: int, b: int) -> tuple[int, int, int]:
    """(h0, h1, h2) of I_Z(a, b): h2 is the line bundle's, and h1 is
    forced by chi(I_Z(c)) = chi(c) - z.  h0 reads the h0(c) of `counts`.
    h1 = h1(c) + h0 - (h0(c) - z) is never negative: `counts` refuses a
    negative h1(c), and h0 >= h0(c) - z on every locus."""
    full, line1, v2 = counts(e, a, b)
    if locus is _GENERAL:
        v0 = full - z if full > z else 0
    else:
        v0 = _curve_h0(e, z, locus, a, b, full)
    return v0, line1 + v0 - (full - z), v2


def _kernel_args(surface: Surface, model: IdealSheafModel) -> tuple[int, int, Locus, int, int]:
    """(e, z, locus, a, b) of the surface and the model, the arguments of
    the kernels, once both arguments' types are tested."""
    if not isinstance(surface, Surface) or not isinstance(model, IdealSheafModel):
        require_types(("surface", surface, Surface), ("model", model, IdealSheafModel))
    return surface.e, model.config.z, model.config.locus, model.cls.a, model.cls.b


def h0_ideal(surface: Surface, model: IdealSheafModel) -> int:
    """h0(c) - min(z, rho), rho the capacity of the module docstring."""
    return ideal_sections(*_kernel_args(surface, model))


def h1_ideal(surface: Surface, model: IdealSheafModel) -> int:
    """Forced by chi(I_Z(c)) = chi(c) - z."""
    return ideal_counts(*_kernel_args(surface, model))[1]

