"""Rank-2 bundles as extensions: Chern data, construction, audits, stability.

A rank-2 bundle E on F_e is presented here by an extension

    0 -> O(sub) -> E -> I_Z(quot) -> 0

with Z a length-s general subscheme.  The standard construction takes
integers (u, v, m, s) with v >= e(u-1)-1, m >= 0 and a_lo <= s <= b_hi;
its ends (so c1(E) = (u, v)) and the range [a_lo, b_hi] come from one
plain-int kernel, `_construction`, and c2 - s from another, `_c2_offset`,
which sums no sections.  A datum is built from m and its two ends, and
derives c1, s and three certificates from them: the chosen twist is the
first with a section (section_min), the points satisfy the
Cayley-Bacharach condition that a locally free extension needs
(cayley_bacharach), and the extension is forced to split
(ext_forced_split).  The ends are typed: `DivisorClass` and `PointConfig`
refuse non-integer coordinates and point counts when they are built, so
only the plain-int parameters (u, v, m, s, rank, the classifier's bounds)
are checked here, through `require_ints`, once, by the public function
that takes them.

E is never materialized.  Its cohomology at a twist is reported as a box
of intervals squeezed out of the long exact sequence, whose lower corner
is the point estimate obtained by giving every connecting map maximal
rank; the box collapses to exact values when the extension is forced to
split (s = 0 and no ext group).  Everything downstream of the intervals
speaks the Holds / Fails / Indeterminate trichotomy rather than
pretending to exact answers it does not have.

The natural-cohomology audit of an extension (w.r.t. M) keeps a window of
twists that grows as m^2, but evaluates boxes only on its *settle prefix*,
the twists before both end classes reach a >= 1 and b >= 0, and at the
first twist of the *monotone tail* that follows.  The settle twist and
the window's end are first effective twists along M of classes read off
the ends (`cohomology.effective_twist`).  On the tail the sub class is
effective and the box's h1 bounds are nonincreasing, so that first twist
decides every later one (see `audit_extension_natural`).  The verdict
reads each box as plain ints from the box kernel `_box`, which
`cohomology_interval` wraps, and builds no box and no row; the audit
rebuilds the rows of the whole window on demand, as a referee.  The
audit and construction paths compare outcomes and loci by identity
against members bound once at import, as `sheaves` does and for the
reason its docstring gives.

Slope stability is decided on the lower boundary of the region of
destabilizing candidates, at most 11 classes of it whatever the size of
the coefficients (see `stability_certificate`); the report lists the
whole region on demand and counts it in closed form.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from .cohomology import ConsistencyError, counts, effective_twist, sections
from .natural import HOLDS_VERDICT, INDETERMINATE_VERDICT, Outcome, Verdict
from .picard import DivisorClass, DomainError, Record, Surface, ceil_div, require_ints
from .sheaves import IdealSheafModel, Locus, PointConfig, ideal_counts, ideal_sections

# the members the audit and construction paths compare against or store,
# bound once (the `sheaves` docstring says why)
_HOLDS = Outcome.HOLDS
_FAILS = Outcome.FAILS
_INDETERMINATE = Outcome.INDETERMINATE
_GENERAL = Locus.GENERAL
_ON_SECTION = Locus.ON_SECTION


class ConstructionError(DomainError):
    """A construction hypothesis failed; `reason` names which one."""

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason


class ChernData(Record):
    __slots__ = ("rank", "c1", "c2")

    def __init__(self, rank: int, c1: DivisorClass, c2: int) -> None:
        if rank < 1:
            raise DomainError(f"rank must be >= 1, got {rank}")
        if rank == 1 and c2 < 0:
            # rank-1 c2 is an ideal length
            raise DomainError(f"rank-1 c2 is a point count, got {c2}")
        put_rank, put_c1, put_c2 = self._put
        put_rank(self, rank)
        put_c1(self, c1)
        put_c2(self, c2)


class ExtensionDatum(Record):
    """One extension presentation of a rank-2 sheaf, plus its certificates.

    Built from the twist parameter m and the two ends: the sub class and
    the quotient ideal model.  Everything else is derived from those
    fields, never passed in: a datum built from changed ends derives it
    afresh, and a derived field passed as an argument is a TypeError.  u, v:
    c1 = sub + quot.  s: the quotient's point count.  s_range: the standard
    construction's (a_lo, b_hi) at (u, v, m), as `section_count_bounds`
    gives it, whatever the ends are.  section_min: s >= a_lo against that
    range.  For a datum of `construct_extension` it means no earlier twist
    of the would-be bundle has a section (h0_max = 0 at twist m - 1); for
    ends that are not the construction's at (u, v, m) it is that
    comparison alone, and says nothing about the datum's own sections.
    cayley_bacharach: the s general points satisfy the Cayley-Bacharach
    condition for |L + K|, L = quot - sub, that a locally free extension
    needs (Griffiths-Harris, Ann. of Math. 1978; Friedman, *Algebraic
    Surfaces and Holomorphic Vector Bundles*, 1998): h0(L + K) < s,
    vacuous at s = 0.  ext_forced_split: the
    extension group vanishes and s = 0, so the only extension is the
    direct sum.  The ends' coordinates and point count are plain ints
    already (their types refuse anything else); m is checked here, once,
    and s_range read off the unchecked kernel `_construction`.
    """

    __slots__ = (
        "surface", "m", "sub", "quotient",
        "u", "v", "s", "s_range", "section_min", "cayley_bacharach", "ext_forced_split",
    )

    def __init__(
        self, surface: Surface, m: int, sub: DivisorClass, quotient: IdealSheafModel
    ) -> None:
        if type(m) is not int or m < 0:
            _refuse_twist(m)
        e, qcls = surface.e, quotient.cls
        u, v, s = sub.a + qcls.a, sub.b + qcls.b, quotient.config.z
        s_range = _construction(e, u, v, m)[4:]
        # L + K = (quot - sub) + (-2, -e-2)
        cb = s == 0 or sections(e, qcls.a - sub.a - 2, qcls.b - sub.b - e - 2) < s
        split = s == 0 and counts(e, sub.a - qcls.a, sub.b - qcls.b)[1] == 0
        (
            put_surface, put_m, put_sub, put_quotient, put_u, put_v, put_s, put_s_range,
            put_section_min, put_cayley_bacharach, put_ext_forced_split,
        ) = self._put
        put_surface(self, surface)
        put_m(self, m)
        put_sub(self, sub)
        put_quotient(self, quotient)
        put_u(self, u)
        put_v(self, v)
        put_s(self, s)
        put_s_range(self, s_range)
        put_section_min(self, s_range[0] <= s)
        put_cayley_bacharach(self, cb)
        put_ext_forced_split(self, split)

    def c1(self) -> DivisorClass:
        return DivisorClass(self.u, self.v)

    def chern(self) -> ChernData:
        c2 = self.s + self.surface.intersect(self.sub, self.quotient.cls)
        return ChernData(2, self.c1(), c2)


# ---------------------------------------------------------------------------
# Chern formulas


def allowed_min_section_divisors(surface: Surface) -> list[DivisorClass]:
    """Possible vanishing classes of a minimal section, for ranks <= 2.

    Exactly 2e+1 classes: (0,0), (1,0), the fiber multiples (0,1)..(0,e),
    and for e >= 2 the mixed classes (1,1)..(1,e-1).
    """
    e = surface.e
    out = [DivisorClass(0, 0), DivisorClass(1, 0)]
    out.extend(DivisorClass(0, y) for y in range(1, e + 1))
    out.extend(DivisorClass(1, y) for y in range(1, e))
    return out


def extension_c2_twisted(
    surface: Surface, vanishing: DivisorClass, m: int, c1: DivisorClass, s: int
) -> int:
    """c2 of E(mM) when a minimal section of E(mM) vanishes on `vanishing`
    plus s residual points: D.c1 + 2m(M.D) - D^2 + s, on the coordinates
    D = (x, y), c1 = (p, q): D.c1 = x(q - ep) + py, M.D = y, D^2 = x(2y - ex)."""
    require_ints(m, s)
    if s < 0:
        raise DomainError(f"point count must be >= 0, got {s}")
    x, y, p = vanishing.a, vanishing.b, c1.a
    return s + x * (c1.b - surface.e * p - 2 * y + surface.e * x) + (p + 2 * m) * y


def chern_of_extension(
    surface: Surface, vanishing: DivisorClass, m: int, c1: DivisorClass, s: int
) -> ChernData:
    """Chern data of the untwisted E from the minimal-section presentation.

    Undoes the twist: c2(E) = c2(E(mM)) - m(M.c1) - m^2 e, where M.c1 = c1.b.
    """
    twisted = extension_c2_twisted(surface, vanishing, m, c1, s)
    return ChernData(2, c1, twisted - m * (c1.b + m * surface.e))


def section_count_bounds(surface: Surface, u: int, v: int, m: int) -> tuple[int, int]:
    """(a_lo, b_hi): the construction's admissible point counts (see
    `_construction`); a_lo <= b_hi, as the two classes differ by M."""
    require_ints(u, v)
    if type(m) is not int or m < 0:
        _refuse_twist(m)
    return _construction(surface.e, u, v, m)[4:]


def construction_c2(surface: Surface, u: int, v: int, m: int, s: int) -> int:
    """c2 of the standard construction: s + sub.quot (see `_c2_offset`)."""
    require_ints(u, v, m, s)
    return s + _c2_offset(surface.e, u, v, m)


def _refuse_twist(m: object) -> None:
    # raises for a twist parameter m that its caller found not an int >= 0
    require_ints(m)
    raise DomainError(f"twist parameter must be >= 0, got {m}")


def _construction(e: int, u: int, v: int, m: int) -> tuple[int, int, int, int, int, int]:
    """The standard construction at (u, v, m) on F_e, unchecked, as plain
    ints (sub_a, sub_b, quot_a, quot_b, a_lo, b_hi): the ends sub = (1-m, -em)
    and quot = (u+m-1, v+em), and the h0 of quot twisted by m - 1 and by m
    copies of M = (1, e).  The one place that writes these forms; c2 is
    `_c2_offset`'s, which sums no sections."""
    em = e * m
    qa, qb = u + m - 1, v + em
    a, b = qa + m, qb + em  # quot + mM; quot + (m-1)M is (a - 1, b - e)
    return 1 - m, -em, qa, qb, sections(e, a - 1, b - e), sections(e, a, b)


def _c2_offset(e: int, u: int, v: int, m: int) -> int:
    """c2 of the standard construction at s = 0, unchecked: sub.quot for
    the ends of `_construction`, -e(1-m)(u+m-1) + (1-m)(v+em) - em(u+m-1)
    = (1-m)(v+em) - e(u+m-1).  The one place that writes it."""
    return (1 - m) * (v + e * m) - e * (u + m - 1)


def c1_obstructed(surface: Surface, rank: int, u: int, v: int) -> bool:
    """True when no rank-`rank` bundle with c1 = (u, v) has natural
    cohomology w.r.t. M: the criterion is v <= e(u - rank + 1) - 2.
    False only means "not decided by this criterion"."""
    require_ints(rank, u, v)
    if rank < 1:
        raise DomainError(f"rank must be >= 1, got {rank}")
    return _c1_obstructed(surface.e, rank, u, v)


def _c1_obstructed(e: int, rank: int, u: int, v: int) -> bool:
    return v <= e * (u - rank + 1) - 2


# ---------------------------------------------------------------------------
# the standard construction


def construct_extension(surface: Surface, u: int, v: int, m: int, s: int) -> ExtensionDatum:
    """Build the standard extension datum for (u, v, m, s).

    Hypotheses, each rejected with a named ConstructionError:
      hypothesis_v:   v >= e(u-1)-1
      hypothesis_m:   m >= 0
      s_out_of_range: a_lo <= s <= b_hi

    Each input is checked once, here.  The ends and the range come from
    `_construction`, before anything is built, so a refusal builds nothing.
    """
    require_ints(u, v, m, s)
    e = surface.e
    if v < e * (u - 1) - 1:
        raise ConstructionError(
            "hypothesis_v", f"need v >= e(u-1)-1 = {e * (u - 1) - 1}, got v = {v}"
        )
    if m < 0:
        raise ConstructionError("hypothesis_m", f"need m >= 0, got m = {m}")
    sa, sb, qa, qb, a_lo, b_hi = _construction(e, u, v, m)
    if not a_lo <= s <= b_hi:
        raise ConstructionError("s_out_of_range", f"need {a_lo} <= s <= {b_hi}, got s = {s}")
    quotient = IdealSheafModel(PointConfig(s, _GENERAL), DivisorClass(qa, qb))
    return ExtensionDatum(surface, m, DivisorClass(sa, sb), quotient)


# ---------------------------------------------------------------------------
# long-exact-sequence intervals


class CohomologyInterval(Record):
    """Box of possible (h0, h1, h2) for the extension at one twist.

    The long exact sequence leaves exactly two free parameters, the ranks
    of the two connecting maps; the box is their exact projection, and its
    lower corner (h0_min, h1_min, h2_min) is where both ranks are maximal.
    chi is exact.
    """

    # no slots: each `cohomology_interval` call builds one, read a field or
    # two, so a build straight into the instance dict beats even one
    # through slot setters (see `natural.Verdict`)
    _fields = ("h0_min", "h0_max", "h1_min", "h1_max", "h2_min", "h2_max", "chi")

    def __init__(
        self,
        h0_min: int,
        h0_max: int,
        h1_min: int,
        h1_max: int,
        h2_min: int,
        h2_max: int,
        chi: int,
    ) -> None:
        fields = self.__dict__
        fields["h0_min"] = h0_min
        fields["h0_max"] = h0_max
        fields["h1_min"] = h1_min
        fields["h1_max"] = h1_max
        fields["h2_min"] = h2_min
        fields["h2_max"] = h2_max
        fields["chi"] = chi


def _box(datum: ExtensionDatum, t: int) -> tuple[int, int, int, int, int, int, int]:
    """The LES box of the extension twisted by t copies of M, as plain ints:
    (h0_min, h0_max, h1_min, h1_max, h2_min, h2_max, chi).

    With a_i from the sub line bundle and q_i from the quotient ideal model
    (both twisted by tM), the connecting-map ranks r0 <= min(q0, a1) and
    r1 <= min(q1, a2) give h0 = a0 + q0 - r0, h1 = (a1 - r0) + (q1 - r1),
    h2 = (a2 - r1) + q2.  The bounds below are those projections: each
    upper bound takes the ranks 0, each lower bound takes them at their
    caps.  A forced split caps both at 0.  The ends are evaluated on
    coordinates (M = (1, e)), and nothing is built.
    """
    e, sub, quot = datum.surface.e, datum.sub, datum.quotient
    a0, a1, a2 = counts(e, sub.a + t, sub.b + t * e)
    z, locus = quot.config.z, quot.config.locus
    q0, q1, q2 = ideal_counts(e, z, locus, quot.cls.a + t, quot.cls.b + t * e)
    total_chi = a0 - a1 + a2 + q0 - q1 + q2

    # the caps on r0 and r1; a forced split pins both ranks at 0
    cap0, cap1 = (0, 0) if datum.ext_forced_split else (min(q0, a1), min(q1, a2))
    hi0, hi1, hi2 = a0 + q0, a1 + q1, a2 + q2
    lo0, lo1, lo2 = hi0 - cap0, hi1 - cap0 - cap1, hi2 - cap1

    if lo0 - lo1 + lo2 != total_chi:
        raise ConsistencyError(f"LES box chi {lo0 - lo1 + lo2} != {total_chi} at t={t}")
    if lo0 > hi0 or lo1 > hi1 or lo2 > hi2:
        raise ConsistencyError(f"LES box has an inverted interval at t={t}")
    return lo0, hi0, lo1, hi1, lo2, hi2, total_chi


def cohomology_interval(datum: ExtensionDatum, t: int) -> CohomologyInterval:
    """Cohomology box of the extension twisted by t copies of M (see `_box`).

    t must be a plain int.  Only the box is built.
    """
    require_ints(t)
    return CohomologyInterval(*_box(datum, t))


# ---------------------------------------------------------------------------
# natural-cohomology audit of an extension, w.r.t. M


class ExtensionAuditRow(Record):
    __slots__ = ("t", "interval", "outcome")

    def __init__(self, t: int, interval: CohomologyInterval, outcome: Outcome) -> None:
        put_t, put_interval, put_outcome = self._put
        put_t(self, t)
        put_interval(self, interval)
        put_outcome(self, outcome)


def _outcome(h0_min: int, h0_max: int, h1_min: int, h1_max: int) -> Outcome:
    """What a box says about its twist: Fails when it forces h0 > 0 and
    h1 > 0; Holds when it forces h1 = 0 or h0 = 0; Indeterminate otherwise."""
    if h0_min > 0 and h1_min > 0:
        return _FAILS
    if h1_max == 0 or h0_max == 0:
        return _HOLDS
    return _INDETERMINATE


def _audit_rows(datum: ExtensionDatum, lo: int, hi: int) -> tuple[ExtensionAuditRow, ...]:
    """The LES box of each twist in [lo, hi] and its `_outcome`."""
    rows = []
    for t in range(lo, hi + 1):
        box = cohomology_interval(datum, t)
        outcome = _outcome(box.h0_min, box.h0_max, box.h1_min, box.h1_max)
        rows.append(ExtensionAuditRow(t=t, interval=box, outcome=outcome))
    return tuple(rows)


class ExtensionAudit(Record):
    """The verdict of an audit over the twists scan_start..scan_stop of `datum`."""

    # each audit builds one and its caller reads the verdict: a dict
    # layout, like `natural.ScanEvidence`'s
    _fields = ("verdict", "scan_start", "scan_stop", "datum")

    def __init__(
        self, verdict: Verdict, scan_start: int, scan_stop: int, datum: ExtensionDatum
    ) -> None:
        fields = self.__dict__
        fields["verdict"] = verdict
        fields["scan_start"] = scan_start
        fields["scan_stop"] = scan_stop
        fields["datum"] = datum

    @property
    def rows(self) -> tuple[ExtensionAuditRow, ...]:
        """The row of every twist in the window, computed on each access.

        The verdict does not read them; they let a caller or a test check it.
        """
        return _audit_rows(self.datum, self.scan_start, self.scan_stop)


def _settle_twist(datum: ExtensionDatum) -> int:
    """Least twist at which both end classes have a >= 1 and b >= 0.

    Every later twist keeps both; there h1 and h2 of the end classes are
    constant under M, which keeps their slack, and the capacity of the
    quotient's points is nondecreasing.
    """
    e, sub, qcls = datum.surface.e, datum.sub, datum.quotient.cls
    return max(effective_twist(sub.a - 1, sub.b, 1, e), effective_twist(qcls.a - 1, qcls.b, 1, e))


def _audit_scan_stop(datum: ExtensionDatum, settle: int) -> int:
    """Twist past which the h1 upper bound a1 + q1 is monotone nonincreasing.

    From `settle` (`_settle_twist(datum)`) on, the end classes' h1 is
    constant and the quotient's capacity nondecreasing; the window also
    reaches the twist where the capacity reaches s: once quot - (s-1)*f is
    effective under GENERAL (capacity h0 >= b + 1), once quot - (s-1)*M is
    under ON_FIBER (capacity min(a, b // e) + 1).  ON_SECTION's capacity is
    constant under M.  Construction data have capacity b_hi >= s at m.
    """
    e, qcls, n = datum.surface.e, datum.quotient.cls, datum.s - 1
    cuts = [datum.m, settle]
    locus = datum.quotient.config.locus
    if locus is not _ON_SECTION:
        da, db = (0, 1) if locus is _GENERAL else (1, e)
        cuts.append(effective_twist(qcls.a - n * da, qcls.b - n * db, 1, e))
    return max(cuts) + 1


def audit_extension_natural(datum: ExtensionDatum) -> ExtensionAudit:
    """Decide the natural-cohomology property of the extension's twists by M.

    The window runs from m - 1 to `_audit_scan_stop`, and the `_outcome`
    of each twist's box says whether it Fails, Holds or is Indeterminate.
    Aggregate verdict: Fails at the first failing twist; Holds when every
    twist holds and both tails are pinned (left: h0_max = 0 at the window
    start, and h0_max is monotone under twisting by the spanned class M,
    so every earlier twist has no sections; right: h1_max = 0 at the
    window end, which lies past the monotone threshold of
    `_audit_scan_stop`); otherwise Indeterminate.

    Only the twists from the window start through `_settle_twist` are
    evaluated (the start alone, if it lies past that twist): the *settle
    prefix* and the first twist of the *monotone tail*.  From the settle
    twist on, both end classes have a >= 1 and b >= 0.  There a1, h1 of
    the quotient class and a2 = q2 = 0 are constant, a0 and q0 are
    nondecreasing and the point correction max(0, s - capacity) is
    nonincreasing, so in the box (forced split or not) h1_min and h1_max
    are nonincreasing; and the sub class is effective, so
    h0_min >= a0 >= 1.  A tail twist thus fails exactly when h1_min > 0
    and holds exactly when h1_max = 0, and the tail's first twist is its
    worst: if it does not fail no tail twist does, and if it holds every
    tail twist holds, the window end included (which pins the right tail).
    The verdict costs settle - m + 2 calls of the box kernel `_box`
    (one when the start lies past the settle twist; `audit_boxes` counts
    them), however long the window, and builds no box and no row: only
    the audit and, when it fails, its verdict.  The audit rebuilds every row of the window on
    demand, as a referee.
    """
    start = datum.m - 1
    settle = _settle_twist(datum)
    verdict = HOLDS_VERDICT
    for t in range(start, max(start, settle) + 1):
        lo0, hi0, lo1, hi1, _, _, _ = _box(datum, t)
        outcome = _outcome(lo0, hi0, lo1, hi1)
        if outcome is _FAILS:
            verdict = Verdict(_FAILS, t, lo0, lo1)
            break
        if outcome is not _HOLDS or (t == start and hi0 > 0):
            verdict = INDETERMINATE_VERDICT
    return ExtensionAudit(verdict, start, _audit_scan_stop(datum, settle), datum)


def audit_boxes(datum: ExtensionDatum) -> int:
    """How many boxes `audit_extension_natural` evaluates at most: the
    twists from m - 1 through `_settle_twist`, one if none.

    Counted without evaluating any box, so a caller can refuse a long
    settle prefix, which grows as |u| for u < 0, before it starts.
    """
    return max(1, _settle_twist(datum) - datum.m + 2)


# ---------------------------------------------------------------------------
# slope stability


class Polarization(str, enum.Enum):
    R = "R"
    M = "M"


class DestabilizerCandidate(Record):
    """A slope-qualifying class N, with its exclusion reason if excluded.

    reason is None when the candidate is NOT excluded (the certificate then
    fails); "no_map" when N maps into neither end; "genericity" when the
    only possible route is through the quotient and the s general points
    absorb every section of the residual class.  A tail entry is the first
    listed class of an M column (the boundary rule in `_region`); it
    stands for every class (g, delta) with g <= its own first coordinate,
    where all three exclusion ingredients are frozen.
    Candidates are listed by `StabilityReport.candidates`, on access; the
    verdict does not read them.
    """

    __slots__ = ("cls", "reason", "tail")

    def __init__(self, cls: DivisorClass, reason: Optional[str], tail: bool = False) -> None:
        put_cls, put_reason, put_tail = self._put
        put_cls(self, cls)
        put_reason(self, reason)
        put_tail(self, tail)


class StabilityReport(Record):
    """The stability verdict of `datum` for one polarization.

    `certified` is decided on a bounded set of classes of the slope
    region's boundary (see `stability_certificate`); `candidates` lists
    the whole region and `candidate_count` counts it in closed form.
    """

    __slots__ = ("polarization", "certified", "warnings", "datum")

    def __init__(
        self,
        polarization: Polarization,
        certified: bool,
        warnings: tuple[str, ...],
        datum: ExtensionDatum,
    ) -> None:
        put_polarization, put_certified, put_warnings, put_datum = self._put
        put_polarization(self, polarization)
        put_certified(self, certified)
        put_warnings(self, warnings)
        put_datum(self, datum)

    @property
    def candidates(self) -> tuple[DestabilizerCandidate, ...]:
        """Every slope-qualifying class and its exclusion, sorted by (a, b).

        Nothing is stored: each access reruns the enumeration, one
        `_exclusion` call per listed class, so it costs O(u^2) calls on
        every read.  The verdict does not read them; they let a caller or
        a test check it.  `candidate_count` gives their number in closed
        form.
        """
        candidates = []
        pol = self.polarization
        deltas, gamma_max, first, _ = _region(self.datum, pol)
        for delta in deltas:
            start = first(delta)
            for gamma in range(start, gamma_max + 1):
                reason = _exclusion(self.datum, (gamma, delta))
                tail = pol is Polarization.M and gamma == start
                candidates.append(DestabilizerCandidate(DivisorClass(gamma, delta), reason, tail))
        candidates.sort(key=lambda cand: (cand.cls.a, cand.cls.b))
        return tuple(candidates)

    @property
    def candidate_count(self) -> int:
        """len(candidates), in closed form from `_region`'s bounds, with no
        column walk and no `_exclusion` call.  Under R the columns hold 1,
        2, ..., len(deltas) classes.  Under M the column of delta holds
        gamma_max + 1 - first(delta) = gamma_max + 2 - min(low, point)
        classes, where point = qa - floor(max(0, qb - delta)/e) is the
        freeze point and (e, qa, qb, low) are the freeze parameters that
        `_region` returns and `first` reads.  The point grows with delta,
        so the sum splits where it reaches low (nowhere if qa < low), and
        before that it sums to qa per column less a sum of floors
        (`_floor_sum`).
        """
        deltas, gamma_max, _, freeze = _region(self.datum, self.polarization)
        n = len(deltas)
        if freeze is None:
            return n * (n + 1) // 2
        if n == 0:
            return 0
        e, qa, qb, low = freeze
        lo, stop = deltas.start, deltas.stop
        # point(delta) >= low iff max(0, qb - delta) < e * (qa - low + 1)
        cross = stop if qa < low else min(stop, max(lo, qb + 1 - e * (qa - low + 1)))
        frozen = (cross - lo) * qa - _floor_sum(e, qb - lo) + _floor_sum(e, qb - cross)
        return n * (gamma_max + 2) - frozen - (stop - cross) * low


def _floor_sum(e: int, k: int) -> int:
    """The sum of j // e over 0 <= j <= k, zero for k < 0: q full runs of
    e terms each, j // e = 0 .. q-1, then r terms equal to q, where
    q, r = divmod(k + 1, e)."""
    if k < 0:
        return 0
    q, r = divmod(k + 1, e)
    return e * q * (q - 1) // 2 + r * q


def _exclusion(datum: ExtensionDatum, n: tuple[int, int]) -> Optional[str]:
    """Why O(N) for N = n = (gamma, delta) cannot inject into the extension,
    or None if it can.

    A nonzero map lands in the sub (needs sub - N effective) or, after
    composing with the quotient map, in the ideal piece (needs a section
    of the ideal model twisted to class quot - N; for general points that
    is h0(quot - N) >= s + 1).
    """
    (gamma, delta), sub, quot, e = n, datum.sub, datum.quotient, datum.surface.e
    if sub.a >= gamma and sub.b >= delta:
        return None
    ra, rb = quot.cls.a - gamma, quot.cls.b - delta
    if ideal_sections(e, quot.config.z, quot.config.locus, ra, rb) > 0:
        return None
    if sections(e, ra, rb) > 0:
        return "genericity"
    return "no_map"


def _region(
    datum: ExtensionDatum, pol: Polarization
) -> tuple[range, int, Callable[[int], int], Optional[tuple[int, int, int, int]]]:
    """The slope region of `pol` as (deltas, gamma_max, first, freeze): one
    column per delta in `deltas`, increasing, and the column of delta
    lists the classes (gamma, delta) with first(delta) <= gamma <=
    gamma_max.  Under M, freeze = (e, qa, qb, low) are the parameters of
    the freeze point that `first` reads (below), so a caller that sums
    the columns reads the same derivation; under R it is None.  This is
    the one place that derives the region's bounds.

    A class N = (gamma, delta) is in the region when its slope meets half
    of c1's and it is not excluded wholesale.  The box: a map O(N) -> E
    needs gamma <= sub.a or gamma <= quot.a, and delta <= sub.b or
    delta <= quot.b, so classes past gamma_max = max(sub.a, quot.a) or
    delta_max = max(sub.b, quot.b) map into neither end.  The slope:
    N.R = gamma + delta for every e, so under R a column holds the gammas
    from threshold - delta to gamma_max, threshold = ceil((u+v)/2), and
    its deltas run from threshold - gamma_max; N.M = delta, so under M the
    deltas start at ceil(v/2) and gamma is unbounded below.  The freeze
    point: for gamma below low = min(0, sub.a) and below qa - floor(max(0,
    qb - delta)/e), (qa, qb) = quot, the residual class quot - N keeps a
    constant h0 (its h-coordinate is past the section count's saturation)
    and a constant effectivity, and sub - N keeps a constant effectivity,
    so `_exclusion` is constant there.

    The boundary rule: `first` gives a column's first listed class, and
    this is the only code that says where a listing begins.  Under R it is
    threshold - delta, on the antidiagonal gamma + delta = threshold.
    Under M it is min(low, qa - floor(max(0, qb - delta)/e)) - 1, the tail
    entry, which stands for every class of the column below the freeze
    point; the freeze point grows with delta, so the first column's tail
    stands below every class of the region.  The stability verdict checks
    some of these first classes, at most 11 (see `stability_certificate`),
    and `candidate_count` sums the columns in closed form.
    """
    qcls, sub = datum.quotient.cls, datum.sub
    gamma_max, delta_max = max(sub.a, qcls.a), max(sub.b, qcls.b)
    if pol is Polarization.R:
        threshold = ceil_div(datum.u + datum.v, 2)
        deltas = range(threshold - gamma_max, delta_max + 1)
        return deltas, gamma_max, lambda delta: threshold - delta, None
    e, qa, qb, low = datum.surface.e, qcls.a, qcls.b, sub.a if sub.a < 0 else 0

    def first(delta: int) -> int:
        return min(low, qa - max(0, qb - delta) // e) - 1

    return range(ceil_div(datum.v, 2), delta_max + 1), gamma_max, first, (e, qa, qb, low)


def _polarization(value: Polarization | str) -> Polarization:
    """The polarization named by value; DomainError unless it is R or M."""
    try:
        return Polarization(value)
    except ValueError:
        raise DomainError(f"polarization must be R or M, got {value!r}") from None


def stability_certificate(datum: ExtensionDatum, polarization: Polarization | str) -> StabilityReport:
    """Try to certify slope stability of the extension for one polarization.

    The candidates are the classes N whose slope meets or exceeds half of
    c1's and which could inject into the extension; certified means every
    one is excluded.  Any rank-1 subsheaf saturates to such an O(N), so a
    fully excluded candidate region is a genuine stability proof given
    general points; a surviving candidate is reported, not judged.

    The verdict is read off the region's boundary.  The classes that
    `_exclusion` does not exclude form a down-set in (gamma, delta):
    lowering either coordinate of N raises both coordinates of sub - N
    and of quot - N, and effectivity, h0 and h0_ideal are nondecreasing
    in each coordinate.  So a survivor exists iff one of the columns'
    first classes survives (`_region`): under M the first column's tail
    alone, one `_exclusion` call; under R a class of the segment gamma +
    delta = ceil((u+v)/2), found among at most 11 of its classes at any
    size of the coefficients.  Along the segment quot - N = (A, S - A)
    with S fixed and A growing with delta, and a class survives when
      - sub - N is effective: on one delta interval, ending at
        min(delta_max, sub.b) = sub.b;
      - h0(A, S - A) >= s + 1: h0 is 0 outside 0 <= A <= S and unimodal
        inside, the concave quadratic (A + 1)(S + 1 - A - eA/2), with
        vertex (2S - e)/(2(e + 2)), while B >= eA, that is up to the turn
        S // (e + 1), and nonincreasing past the turn, where it depends
        on B alone;
      - or, on a curve locus, quot - N - C is effective: on one A
        interval, 1..S for C = h and 0..S - 1 for C = f.
    So the verdict checks the segment's ends, delta = sub.b, and the
    deltas of A = vertex, vertex + 1, turn, turn + 1, 0, 1, S - 1 and S,
    each clamped to the segment and taken once.  The report lists the
    whole region on access (`StabilityReport.candidates`), as a referee.

    Only twist parameter m = 0 is supported; the slope bookkeeping above
    assumes the untwisted presentation.
    """
    pol = _polarization(polarization)
    if datum.m != 0:
        raise DomainError(f"stability certification needs m = 0, got m = {datum.m}")
    surface = datum.surface
    e, u, v = surface.e, datum.u, datum.v

    warnings = []
    if u < 3:
        warnings.append(f"u = {u} is below the certified range u >= 3")
    if v >= 2 * e * u:
        warnings.append(f"v = {v} violates v < 2eu = {2 * e * u}")
    if pol is Polarization.M and v > 2 * e * u - 3:
        warnings.append(
            f"v = {v} violates the fiber-polarization bound v <= 2eu-3 = {2 * e * u - 3}"
        )

    deltas, _, first, _ = _region(datum, pol)
    if pol is Polarization.M or not deltas:
        # the first column's tail stands below every other class; an
        # empty region has nothing to check
        checked = deltas[:1]
    else:
        # on the segment first(delta) = threshold - delta, so A = quot.a -
        # first(delta) = delta + shift, and S = A + B
        qcls, threshold = datum.quotient.cls, first(0)
        shift, total = qcls.a - threshold, qcls.a + qcls.b - threshold
        vertex, turn = (2 * total - e) // (2 * e + 4), total // (e + 1)
        lo, hi = deltas[0], deltas[-1]
        picks = [vertex, vertex + 1, turn, turn + 1, 0, 1, total - 1, total]
        ends = [lo, hi, datum.sub.b, *[a - shift for a in picks]]
        # clamped by comparisons, not `min`/`max` calls and a generator,
        # which cost about a sixth of an R verdict at small coefficients
        checked = sorted({lo if d < lo else hi if d > hi else d for d in ends})
    certified = all(_exclusion(datum, (first(delta), delta)) is not None for delta in checked)
    return StabilityReport(
        polarization=pol, certified=certified, warnings=tuple(warnings), datum=datum
    )


# ---------------------------------------------------------------------------
# region classifier


class RegionLabel(str, enum.Enum):
    NONEXISTENT = "Nonexistent"
    EXISTENT = "Existent"


class RegionCell(Record):
    """One (u, v) cell: the label and, when existent, the c2 values
    realized by the construction as merged inclusive intervals."""

    __slots__ = ("u", "v", "label", "witness")

    def __init__(
        self, u: int, v: int, label: RegionLabel, witness: tuple[tuple[int, int], ...] = ()
    ) -> None:
        put_u, put_v, put_label, put_witness = self._put
        put_u(self, u)
        put_v(self, v)
        put_label(self, label)
        put_witness(self, witness)


def _merge_intervals(intervals: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    # merge overlapping or adjacent inclusive integer intervals
    merged: list[list[int]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def _c2_witness(e: int, u: int, v: int, m_max: int) -> tuple[tuple[int, int], ...]:
    # c2 = s + c2_0 over a_lo <= s <= b_hi, for each m
    intervals = []
    for m in range(m_max + 1):
        _, _, _, _, a_lo, b_hi = _construction(e, u, v, m)
        base = _c2_offset(e, u, v, m)
        intervals.append((base + a_lo, base + b_hi))
    return _merge_intervals(intervals)


def classify_region(
    surface: Surface,
    rank: int,
    u_range: tuple[int, int],
    v_range: tuple[int, int],
    m_max: int = 0,
) -> tuple[RegionCell, ...]:
    """Label each (u, v) cell of the grid for rank 1 or 2.

    Nonexistent when `c1_obstructed`; Existent when the construction (rank
    2) or the line-bundle criterion v >= eu-1 (rank 1) applies.  For these
    two ranks the thresholds are adjacent integers, so every cell is
    decided.  Rank-2 witnesses list the c2 values over m = 0..m_max, one
    `_construction` and one `_c2_offset` call per m; rank-1 witnesses are
    the single point 0.
    """
    for bounds in (u_range, v_range):
        if not isinstance(bounds, (tuple, list)) or len(bounds) != 2:
            raise DomainError(f"a range is a pair (lo, hi), got {bounds!r}")
    u_lo, u_hi = u_range
    v_lo, v_hi = v_range
    require_ints(rank, u_lo, u_hi, v_lo, v_hi, m_max)
    if rank not in (1, 2):
        raise DomainError(f"classifier covers ranks 1 and 2, got {rank}")
    if m_max < 0:
        raise DomainError(f"m_max must be >= 0, got {m_max}")
    if u_lo > u_hi or v_lo > v_hi:
        raise DomainError("empty (u, v) range")
    # every input is checked above, so the cells call the unchecked kernels
    e, cells = surface.e, []
    for u in range(u_lo, u_hi + 1):
        for v in range(v_lo, v_hi + 1):
            if _c1_obstructed(e, rank, u, v):
                cells.append(RegionCell(u, v, RegionLabel.NONEXISTENT))
            elif rank == 1:
                # v >= eu - 1: the line bundle (u, v) itself is natural
                cells.append(RegionCell(u, v, RegionLabel.EXISTENT, ((0, 0),)))
            else:
                cells.append(RegionCell(u, v, RegionLabel.EXISTENT, _c2_witness(e, u, v, m_max)))
    return tuple(cells)
