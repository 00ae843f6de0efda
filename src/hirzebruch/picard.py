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

from operator import attrgetter
from typing import Any, Callable


class DomainError(ValueError):
    """Raised when an argument lies outside the mathematical domain."""


class Record:
    """Base of the package's value types: small immutable records.

    A subclass has one of two layouts.  Most name their fields, in order,
    in `__slots__`; their own `__init__` checks its arguments and then
    writes each field past the frozen `__setattr__` through `_put`, the
    slot setters that `__init_subclass__` binds once per class, in field
    order.  A setter writes its slot directly, where `object.__setattr__`
    looks the name up on each write: a `DivisorClass` builds in about
    310 ns against 410 ns, and an `ExtensionDatum` in about 1.85 against
    2.35 us (best of five runs on a shared 2-vCPU host).  A type that is
    built far more often than read (`natural.Verdict`,
    `natural.ScanEvidence`, `bundles.CohomologyInterval`,
    `bundles.ExtensionAudit`, `cli.Report`) names its fields in `_fields`
    instead, has no slots, and writes them straight into its instance
    dict, which is cheaper still: an in-process far-twist A/B read p50 per
    query 6% higher with those five types slotted and written through
    their setters.  A subclass of a slotted type adds no slots
    (`__slots__ = ()`): it keeps its parent's fields and builds through
    its parent's `__init__` and setters.

    The base supplies the rest, as a frozen dataclass would: assigning or
    deleting an attribute raises AttributeError; a record equals a record
    of the same class whose fields are equal, and hashes as the tuple of
    its fields; its repr is ``Name(field=value, ...)``; and pickle and
    copy restore it field by field.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _put: tuple[Callable[[Any, Any], None], ...]
    _values: Callable[[Any], tuple[Any, ...]]

    def __init_subclass__(cls) -> None:
        slots = vars(cls).get("__slots__")
        if slots:
            # the parent's `__init__` unpacks `self._put`, so a subclass
            # that added slots would hand it the wrong setters
            if cls._fields:
                raise TypeError(f"{cls.__name__} adds slots to the fields of its parent")
            cls._fields = tuple(slots)
            cls._put = tuple(vars(cls)[name].__set__ for name in slots)
        fields = cls._fields
        get = attrgetter(*fields)
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._values = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = zip(self._fields, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __getstate__(self) -> dict[str, Any]:
        return dict(zip(self._fields, self._values(self)))

    def __setstate__(self, state: dict[str, Any]) -> None:
        # pickle and copy restore the fields past the frozen __setattr__
        for name, value in state.items():
            object.__setattr__(self, name, value)


class DivisorClass(Record):
    """The class a*h + b*f in the Picard lattice of a Hirzebruch surface."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        # tested inline, since every class passes here; `require_ints` raises
        if type(a) is not int or type(b) is not int:
            require_ints(a, b)
        put_a, put_b = self._put
        put_a(self, a)
        put_b(self, b)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return DivisorClass(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return DivisorClass(self.a - other.a, self.b - other.b)

    def __rmul__(self, k: int) -> "DivisorClass":
        if type(k) is not int:
            return NotImplemented
        return DivisorClass(k * self.a, k * self.b)

    def __str__(self) -> str:
        return f"({self.a},{self.b})"


class PositivityReport(Record):
    """Membership of a class in the nested effective/spanned/ample cones."""

    __slots__ = ("effective", "spanned", "ample")

    def __init__(self, effective: bool, spanned: bool, ample: bool) -> None:
        put_effective, put_spanned, put_ample = self._put
        put_effective(self, effective)
        put_spanned(self, spanned)
        put_ample(self, ample)


class Surface(Record):
    """The Hirzebruch surface F_e, e >= 1.

    e = 0 (the quadric) is excluded: several classifications used here
    genuinely differ there, and nothing in this package is validated for it.
    """

    __slots__ = ("e",)

    def __init__(self, e: int) -> None:
        require_ints(e)
        if e < 1:
            raise DomainError(f"surface parameter e must be an integer >= 1, got {e!r}")
        (put_e,) = self._put
        put_e(self, e)

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


def require_ints(*values: object) -> None:
    """DomainError unless every value is a plain int.

    ``type(x) is int`` refuses bool and every float, 2.0 included.  The
    types check their fields here, and the public entry points their
    plain-int parameters; the integer kernels they call do not.

    Where every call passes, the check is written inline, as
    ``if type(a) is not int or type(b) is not int: require_ints(a, b)``,
    with the same names in the same order, so only a refusal pays for this
    call and its message is this function's, naming the first bad value.
    `DivisorClass`, `PointConfig` and `bundles.ChernData` build this way,
    and so do the construction's entry points, each a reading of the
    family kernels `bundles._family` and `bundles._range`:
    `construct_extension`, `section_count_bounds` and
    `chern_of_extension`; and `cohomology_interval`.
    """
    for x in values:
        if type(x) is not int:
            raise DomainError(f"expected an integer, got {x!r}")


def require_types(*checks: tuple[str, object, type]) -> None:
    """DomainError naming the first (name, value, kind) check whose value
    is not a `kind`, in one line: "surface must be a Surface, got None".

    Called as `require_ints` is, only once an inline test has failed:
    ``if not isinstance(surface, Surface) or not isinstance(c,
    DivisorClass): require_types(("surface", surface, Surface), ("class",
    c, DivisorClass))``, so a passing call pays one `isinstance` per
    argument and no call.
    """
    for name, value, kind in checks:
        if not isinstance(value, kind):
            article = "an" if kind.__name__[0] in "AEIOU" else "a"
            raise DomainError(f"{name} must be {article} {kind.__name__}, got {value!r}")


def ceil_div(p: int, q: int) -> int:
    """ceil(p / q) for integers with q > 0, exactly."""
    return -((-p) // q)
