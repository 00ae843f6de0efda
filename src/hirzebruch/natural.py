"""Natural cohomology under repeated twisting: finite decision procedures.

A sheaf model E here is a line bundle, a direct sum of line bundles, or a
twisted ideal sheaf of generic points.  Fix a spanned nonzero class T.

    natural (w.r.t. T):        h^1(E + t*T) = 0 for every t with h^0 > 0
    unconditional (w.r.t. T):  h^1(E + t*T) = 0 for every integer t

Every checker decides from the *runs* of the model
(`cohomology.run_edges`): the maximal twist intervals on which a
component has h^1 > 0, at most one per component (see the trichotomy in
:mod:`hirzebruch.cohomology`).  For ideal models h1_ideal = h1 +
max(0, z - rho), and the capacity rho is nondecreasing along a spanned
twist, so the shortfall is positive only on a prefix of the twist line.
Hence the first failing twist of a window is its first twist or a run
start, and since h^1 > 0 at every run start, it is the first twist or
the least run start above it.  A verdict evaluates cohomology at those
two twists only, whatever the coefficients.  The window runs from its
first twist to the failure witness, and is its first twist alone when
nothing fails: no run begins past it then.  The scan evidence rebuilds
the (t, h0, h1) rows of the whole window on demand, as a referee.

Closed-form criteria exist for lines and sums when T is M = h + e*f or
R = h + (e+1)*f and are checked against the scans by the test suite; the
scans are the referees, the closed forms are the fast paths.  Ideal
models have none: `scan_verdict` decides them.

All verdicts carry a witness twist and the (h0, h1) evidence so a failed
check is reproducible by a single cohomology evaluation.

What a verdict builds: each scan checks the model and the twisting class
once, on entry, and dispatches on the model's shape once (`_components`);
coordinates and point counts are plain ints already, since `DivisorClass`
and `PointConfig` refuse anything else when they are built.  The checked
components then go to the min twist, the runs and the evaluations, each
one walk over them.  Each twist is evaluated on plain coordinates through
the integer kernels ``cohomology.counts`` and ``sheaves.ideal_counts``,
so no class, model or triple is built per twist.  The min twist is read
off the coordinates too (``cohomology.effective_twist``): for an ideal
model it is the line bundle's first effective twist, probed with
``ideal_sections``, or else the closed-form inverse
``sheaves.ideal_sections_twist``, a fixed number of kernel calls at any
point count.  An answer builds one `ScanEvidence`, and a `Verdict` only
when it FAILS: the HOLDS and INDETERMINATE verdicts are the shared
constants `HOLDS_VERDICT` and `INDETERMINATE_VERDICT`.
"""

from __future__ import annotations

import enum
from typing import Optional, Union

from .cohomology import ConsistencyError, counts, effective_twist, run_edges
from .picard import DivisorClass, DomainError, Record, Surface, ceil_div
from .sheaves import (
    IdealSheafModel,
    PointConfig,
    ideal_counts,
    ideal_sections,
    ideal_sections_twist,
)


class Line(Record):
    __slots__ = ("cls",)

    def __init__(self, cls: DivisorClass) -> None:
        (put_cls,) = self._put
        put_cls(self, cls)


class DirectSum(Record):
    __slots__ = ("classes",)

    def __init__(self, classes: tuple[DivisorClass, ...]) -> None:
        if len(classes) == 0:
            raise DomainError("direct sum needs at least one summand")
        (put_classes,) = self._put
        put_classes(self, classes)


SheafModel = Union[Line, DirectSum, IdealSheafModel]


class Outcome(str, enum.Enum):
    HOLDS = "HOLDS"
    FAILS = "FAILS"
    INDETERMINATE = "INDET"


# the members the verdict paths compare against, bound once (the
# `sheaves` docstring says why)
_HOLDS = Outcome.HOLDS
_FAILS = Outcome.FAILS


class Verdict(Record):
    """An outcome plus, for FAILS, the twist and cohomology that witness it.

    Verdicts are frozen, so the HOLDS and INDETERMINATE ones are shared:
    `HOLDS_VERDICT` and `INDETERMINATE_VERDICT`.
    """

    # no slots: a FAILS scan builds one and its caller reads a field or
    # two, so a build written straight into the instance dict, cheaper
    # even than one through slot setters, wins over faster reads (an
    # in-process far-twist A/B read p50 per query 6% higher with the five
    # dict layouts slotted and written through their setters)
    _fields = ("outcome", "witness_t", "witness_h0", "witness_h1")

    def __init__(
        self,
        outcome: Outcome,
        witness_t: Optional[int] = None,
        witness_h0: Optional[int] = None,
        witness_h1: Optional[int] = None,
    ) -> None:
        fields = self.__dict__
        fields["outcome"] = outcome
        fields["witness_t"] = witness_t
        fields["witness_h0"] = witness_h0
        fields["witness_h1"] = witness_h1

    def holds(self) -> bool:
        return self.outcome is _HOLDS


HOLDS_VERDICT = Verdict(Outcome.HOLDS)
INDETERMINATE_VERDICT = Verdict(Outcome.INDETERMINATE)


class ScanEvidence(Record):
    """The verdict of a scan over the twists scan_start..scan_stop of model + t*by.

    A FAILS window ends at its witness.  A HOLDS window is its first twist
    alone: no run of h^1 > 0 starts after it, since such a start would
    fail.
    """

    # every scan builds one; a dict layout, like `Verdict`'s
    _fields = ("verdict", "scan_start", "scan_stop", "surface", "model", "by")

    def __init__(
        self,
        verdict: Verdict,
        scan_start: int,
        scan_stop: int,
        surface: Surface,
        model: SheafModel,
        by: DivisorClass,
    ) -> None:
        fields = self.__dict__
        fields["verdict"] = verdict
        fields["scan_start"] = scan_start
        fields["scan_stop"] = scan_stop
        fields["surface"] = surface
        fields["model"] = model
        fields["by"] = by

    @property
    def rows(self) -> tuple[tuple[int, int, int], ...]:
        """The (t, h0, h1) row of every twist in the window, computed on each access.

        The verdict does not read them; they let a caller or a test check it.
        """
        return tuple(
            (t, *_values_at(self.surface, self.model, t, self.by))
            for t in range(self.scan_start, self.scan_stop + 1)
        )




def _components(model: SheafModel) -> tuple[tuple[DivisorClass, ...], Optional[PointConfig]]:
    """The model's line-bundle classes and, for an ideal model, its points
    (None for a line or a sum): the one dispatch on the model's shape."""
    if isinstance(model, Line):
        return (model.cls,), None
    if isinstance(model, DirectSum):
        return model.classes, None
    if isinstance(model, IdealSheafModel):
        return (model.cls,), model.config
    raise DomainError(f"not a sheaf model: {model!r}")


def _checked(
    surface: Surface, model: SheafModel, by: DivisorClass
) -> tuple[tuple[DivisorClass, ...], Optional[PointConfig]]:
    """`_components` of the model, after rejecting a non-model and a
    twisting class that is not spanned and nonzero.  Coordinates and point
    counts need no check: the types refuse non-integers when they are
    built."""
    parts = _components(model)  # DomainError for a non-model
    # spanned: c >= 0 and d >= e*c, where d = 0 leaves only c = 0
    c, d = by.a, by.b
    if c < 0 or d < surface.e * c or d == 0:
        raise DomainError(f"twisting class must be spanned and nonzero, got {by}")
    return parts


def _evaluate(
    e: int, classes: tuple[DivisorClass, ...], config: Optional[PointConfig], da: int, db: int
) -> tuple[int, int]:
    """(h0, h1) of the model whose classes are moved by (da, db)."""
    if config is not None:
        cls = classes[0]
        v0, v1, _ = ideal_counts(e, config.z, config.locus, cls.a + da, cls.b + db)
        return v0, v1
    total0 = total1 = 0
    for cls in classes:
        v0, v1, _ = counts(e, cls.a + da, cls.b + db)
        total0 += v0
        total1 += v1
    return total0, total1


def _values_at(surface: Surface, model: SheafModel, t: int, by: DivisorClass) -> tuple[int, int]:
    """(h0, h1) of the model twisted by t*by.  Exact for all three shapes."""
    return _evaluate(surface.e, *_components(model), t * by.a, t * by.b)


# ---------------------------------------------------------------------------
# minimal twist with sections


def min_twist_with_sections(surface: Surface, model: SheafModel, by: DivisorClass) -> int:
    """Minimal t with h^0(model + t*by) > 0.

    h^0 along spanned twists is monotone (a spanned class is effective, and
    multiplying by its section is injective on sections), so the set of
    twists with sections is the ray [m0, infinity).  Raises DomainError if
    the ray is empty, which happens only for fiber-type twisting classes
    (0, d) against models whose h-coordinates are all negative.

    m0 is computed in closed form, in a fixed number of integer
    operations whatever the coordinates and the point count.  A line or a sum has sections from
    the first twist at which some summand is effective.  An ideal model
    has h0_ideal = max(h0(c) - z, h0(c - C)), so m0 is the line bundle's
    first twist with sections when a probe finds sections there, and
    otherwise the earlier of the first twist where O(c) has z + 1 sections
    and the first where c - C is effective (`sheaves.ideal_sections_twist`,
    which inverts the section count with `math.isqrt`); two more probes
    certify that answer, and a miss is a ConsistencyError.
    """
    return _min_twist(surface.e, model, *_checked(surface, model, by), by)


def _min_twist(
    e: int,
    model: SheafModel,
    classes: tuple[DivisorClass, ...],
    config: Optional[PointConfig],
    by: DivisorClass,
) -> int:
    """`min_twist_with_sections` of a checked model, given its `_components`."""
    c, d = by.a, by.b
    if config is None:
        # a direct sum has sections exactly when some summand does, and a
        # line is a sum of one summand
        least = None
        for cls in classes:
            t = effective_twist(cls.a, cls.b, c, d)
            if t is not None and (least is None or t < least):
                least = t
        if least is None:
            summands = " + ".join(str(cls) for cls in classes)
            raise DomainError(f"no twist of {summands} by {by} has sections")
        return least

    # Ideal sheaf: h0_ideal <= h0 of the underlying line bundle, so the
    # answer is at or past the line bundle's first twist with sections,
    # and it is often that twist itself, which is probed first.  Past it,
    # the closed-form inverse answers, and two probes certify its answer.
    cls = classes[0]
    z, locus, u, v = config.z, config.locus, cls.a, cls.b
    start = effective_twist(u, v, c, d)
    if start is None:
        raise DomainError(f"no twist of the ideal model class {cls} by {by} has sections")
    if ideal_sections(e, z, locus, u + start * c, v + start * d) > 0:
        return start
    t = ideal_sections_twist(e, z, locus, u, v, c, d, start)
    if (
        t is None
        or ideal_sections(e, z, locus, u + t * c, v + t * d) == 0
        or ideal_sections(e, z, locus, u + (t - 1) * c, v + (t - 1) * d) > 0
    ):
        raise ConsistencyError(
            f"twist {t} of {model} by {by} is not the first with ideal sections"
        )
    return t


# ---------------------------------------------------------------------------
# runs of h^1 > 0 and the scans


def _decide(
    surface: Surface,
    model: SheafModel,
    by: DivisorClass,
    classes: tuple[DivisorClass, ...],
    config: Optional[PointConfig],
    lo: int,
    starts: list[int],
) -> ScanEvidence:
    """The scan of the window from lo, given the finite run starts.

    Two twists at most are evaluated.  If lo has h^1 > 0 it is the
    witness.  Otherwise the least run start above lo is: a run start is a
    twist where one component has h^1 > 0, and the model's h^1 is at
    least that (a sum's is the sum of its summands', an ideal's adds the
    shortfall to the line bundle's), so h^1 = 0 there is a
    ConsistencyError.  With no run start above lo, the window is lo alone.
    """
    e, c, d = surface.e, by.a, by.b
    t = lo
    v0, v1 = _evaluate(e, classes, config, t * c, t * d)
    if v1 == 0:
        # t becomes the least run start above lo, if there is one
        for start in starts:
            if start > lo and (t == lo or start < t):
                t = start
        if t != lo:
            v0, v1 = _evaluate(e, classes, config, t * c, t * d)
            if v1 == 0:
                raise ConsistencyError(
                    f"h1 = 0 at the run start t = {t} of {model} twisted by {by}"
                )
    if v1 > 0:
        return ScanEvidence(Verdict(_FAILS, t, v0, v1), lo, t, surface, model, by)
    return ScanEvidence(HOLDS_VERDICT, lo, lo, surface, model, by)


def scan_verdict(surface: Surface, model: SheafModel, by: DivisorClass) -> ScanEvidence:
    """Decide the natural-cohomology property over a finite twist window.

    The window runs from the first twist with sections, m0, to the witness
    of a failure; it is m0 alone when the property holds.  Since h^0 is
    monotone along a spanned twist, h^0 > 0 from m0 on, so the property
    fails exactly at the twists from m0 on with h^1 > 0.  Every run that
    meets [m0, infinity) either contains m0 or starts above it, and for
    ideal models the capacity shortfall max(0, z - rho) is positive only on
    a prefix of the twist line, which contains m0 if it reaches it; so m0
    and the least run start above it are the only twists evaluated.

    A model with no twist that has sections (possible only for a fiber-type
    `by` against negative h-coordinates) raises DomainError from
    `min_twist_with_sections`, although the property holds vacuously
    there; the CLI reports it as exit 3.  `unconditional_scan` decides
    such a model like any other.
    """
    classes, config = _checked(surface, model, by)
    e = surface.e
    m0 = _min_twist(e, model, classes, config, by)
    starts, _ = run_edges(e, classes, by.a, by.b)
    return _decide(surface, model, by, classes, config, m0, starts)


def unconditional_scan(surface: Surface, model: SheafModel, by: DivisorClass) -> ScanEvidence:
    """Decide h^1 = 0 at *every* twist over a two-sided finite window.

    The window starts one twist below every finite run edge (at 0 when
    there is none), so each run either contains the window start or starts
    above it.  It ends at the witness of a failure; it is its start alone
    when the property holds.
    For ideal models with z > 0 the window also starts below the line
    bundle's first twist with sections, where rho = 0 < z, so a capacity
    shortfall shows at the window start.  When a failing run is unbounded
    below, the witness is the window start.
    """
    classes, config = _checked(surface, model, by)
    c, d = by.a, by.b
    starts, stops = run_edges(surface.e, classes, c, d)
    edges = starts + stops
    if config is not None and config.z > 0:
        first = effective_twist(classes[0].a, classes[0].b, c, d)
        if first is not None:
            edges.append(first)
    lo = min(edges) - 1 if edges else 0
    # below lo no run edge is crossed and an ideal's shortfall is z (or 0),
    # so every twist there has the verdict of lo
    return _decide(surface, model, by, classes, config, lo, starts)


# ---------------------------------------------------------------------------
# closed forms (fast paths; the scans referee them)


def line_natural_wrt_m(surface: Surface, cls: DivisorClass) -> bool:
    """Line bundle (u, v) is natural w.r.t. M iff v >= e*u - 1.

    Twisting by M leaves the slack v - e*u alone, the scanned ray only
    meets nonnegative h-coordinates, and there h^1 = 0 iff slack >= -1.
    """
    return cls.b >= surface.e * cls.a - 1


def line_unconditional_wrt_m(surface: Surface, cls: DivisorClass) -> bool:
    """Unconditional w.r.t. M iff e*u - 1 <= v <= e*u + e - 1.

    Both tails of the twist line are pinned by the constant slack: the
    right one needs slack >= -1, the left one slack <= e - 1.
    """
    e, u, v = surface.e, cls.a, cls.b
    return e * u - 1 <= v <= e * u + e - 1


def line_natural_wrt_r(surface: Surface, cls: DivisorClass) -> bool:
    """Line bundle (u, v) is natural w.r.t. the minimal ample class R.

    Each R-twist raises the slack by one, so the binding constraint sits at
    the first twist with sections, x = ceil(-v/(e+1)) when v < (e+1)u (and
    there is nothing to check when v >= (e+1)u, where the slack is already
    >= -1 at the first section).  The criterion is v + x >= e*u - 1 with
    that x; each unit of x buys one unit of slack.
    """
    e, u, v = surface.e, cls.a, cls.b
    if v >= (e + 1) * u:
        return True
    y = ceil_div(-v, e + 1)
    return v + y >= e * u - 1


def direct_sum_natural_wrt_m(surface: Surface, classes: list[DivisorClass]) -> bool:
    """Closed-form criterion for a direct sum of line bundles w.r.t. M.

    Sort the summands by u descending, ties by v descending.  Each summand
    must individually satisfy v_i >= e*u_i - 1.  The sum first has sections
    at m = -u_1 (or -u_1 + 1 when v_1 = e*u_1 - 1 exactly), and from that
    twist on, summand i stays clean iff its h-coordinate never dips below
    -1 on the scanned ray (u_i + m >= -1) or its constant slack sits in the
    band [-1, e-1] where both outer trichotomy branches vanish.
    """
    e = surface.e
    if not classes:
        raise DomainError("direct sum needs at least one summand")
    ordered = sorted(classes, key=lambda c: (-c.a, -c.b))
    if any(c.b < e * c.a - 1 for c in ordered):
        return False
    top = ordered[0]
    # the sorted head realizes the minimal twist with sections
    m = -top.a if top.b >= e * top.a else -top.a + 1
    for c in ordered[1:]:
        if c.a + m >= -1:
            continue
        if -1 <= c.b - e * c.a <= e - 1:
            continue
        return False
    return True
