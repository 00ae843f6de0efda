"""Rank-2 bundles as extensions: Chern data, construction, audits, stability.

A rank-2 bundle E on F_e is presented here by an extension

    0 -> O(sub) -> E -> I_Z(quot) -> 0

with Z a length-s general subscheme: s general points, the only locus an
`ExtensionDatum` accepts.  The family of a vanishing class D is written
once, in two plain-int kernels that every construction route reads:
`_family`, the ends and c2 at s = 0, which sums no sections, and
`_range`, the admissible point counts [a_lo, b_hi] of a quotient end.
The standard construction is the family of D = h: integers (u, v, m, s)
with v >= e(u-1)-1, m >= 0 and a_lo <= s <= b_hi.  A datum is built from
m and its two ends, and derives c1, s, its own range and three
certificates from them: the chosen twist is the first with a section
(section_min), the points satisfy the Cayley-Bacharach condition that a
locally free extension needs (cayley_bacharach), and the extension is
forced to split (ext_forced_split).  The ends are typed: `DivisorClass` and `PointConfig`
refuse non-integer coordinates and point counts when they are built, so
only the plain-int parameters (u, v, m, s, t, rank, the classifier's
bounds) are checked here, once, by the public function that takes them.
The construction's entry points test them inline and call `require_ints`
only to refuse one (see its docstring).

E is never materialized.  Its cohomology at a twist is reported as a box
of intervals squeezed out of the long exact sequence, whose lower corner
is the point estimate obtained by giving every connecting map maximal
rank; the box collapses to exact values when the extension is forced to
split (s = 0 and no ext group).  Everything downstream of the intervals
speaks the Holds / Fails / Indeterminate trichotomy rather than
pretending to exact answers it does not have.

The natural-cohomology audit of an extension (w.r.t. M) keeps a window of
twists that grows as m^2, but evaluates boxes only from m - 1 to the
first twist where the sub class is effective, which decides every later
one (`audit_extension_natural` says why, and when the walk goes on):
two boxes for a constructed datum, at any coefficients.  That twist and
the window's end are read in one place, `_audit_twists`, from first
effective twists along M (`cohomology.effective_twist`).  The verdict
reads each box as plain ints from the box kernel `_box`, which
`cohomology_interval` wraps, and builds no box and no row; the audit
rebuilds the rows of the whole window on demand, as a referee.  The audit and construction paths
compare outcomes and loci by identity against members bound once at
import, as `sheaves` does and for the reason its docstring gives.

Slope stability is decided on a few classes of the lower boundary of the
region of destabilizing candidates, whatever the size of the coefficients
(`stability_certificate` says which, and why); the report lists the whole
region on demand and counts it in closed form.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from .cohomology import ConsistencyError, counts, effective_twist, sections
from .natural import HOLDS_VERDICT, INDETERMINATE_VERDICT, Outcome, Verdict
from .picard import DivisorClass, DomainError, Record, Surface, ceil_div, require_ints
from .sheaves import IdealSheafModel, Locus, PointConfig, ideal_counts

# the members the audit and construction paths compare against or store,
# bound once (the `sheaves` docstring says why)
_HOLDS = Outcome.HOLDS
_FAILS = Outcome.FAILS
_INDETERMINATE = Outcome.INDETERMINATE
_GENERAL = Locus.GENERAL


class ConstructionError(DomainError):
    """A construction hypothesis failed; `reason` names which one.

    Raised as ConstructionError(reason, message).  Both values live in
    `args`, and there is no `__init__`: pickle and copy rebuild an
    exception from its `args`, so the error round-trips (a worker process
    can send it back), and building one costs no Python-level call.
    `reason` reads args[0] and `str()` gives the message, args[1].
    """

    @property
    def reason(self) -> str:
        return self.args[0]

    def __str__(self) -> str:
        return self.args[1]


class ChernData(Record):
    __slots__ = ("rank", "c1", "c2")

    def __init__(self, rank: int, c1: DivisorClass, c2: int) -> None:
        if type(rank) is not int or type(c2) is not int:
            require_ints(rank, c2)
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
    the quotient ideal model, whose points must be general, as Serre's
    correspondence takes them (a quotient on a curve locus is a
    DomainError: the range and the certificates below hold for general
    points only).  Everything else is derived from those fields, never
    passed in: a datum built from changed ends derives it afresh, and a
    derived field passed as an argument is a TypeError.  u, v:
    c1 = sub + quot.  s: the quotient's point count.  s_range: `_range` of
    its quotient end at m.  section_min: s >= a_lo, for a family datum
    with D - M not effective exactly "no section at twist m - 1" (`_range`).
    cayley_bacharach: the s general points satisfy the Cayley-Bacharach
    condition for |L + K|, L = quot - sub, that a locally free extension
    needs (Griffiths-Harris, Ann. of Math. 1978; Friedman, *Algebraic
    Surfaces and Holomorphic Vector Bundles*, 1998): h0(L + K) < s,
    vacuous at s = 0.  ext_forced_split: the extension group vanishes and
    s = 0, so the only extension is the direct sum.  The ends' coordinates
    and point count are plain ints already (their types refuse anything
    else); the ends' own types, m and the locus are checked here, once.
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
        if not isinstance(sub, DivisorClass):
            raise DomainError(f"extension sub class must be a DivisorClass, got {sub!r}")
        if not isinstance(quotient, IdealSheafModel):
            raise DomainError(f"extension quotient must be an IdealSheafModel, got {quotient!r}")
        config = quotient.config
        if config.locus is not _GENERAL:
            raise DomainError(f"an extension datum needs general points, got {config.locus.name}")
        e, qcls = surface.e, quotient.cls
        u, v, s = sub.a + qcls.a, sub.b + qcls.b, config.z
        s_range = _range(e, qcls.a, qcls.b, m)
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


def chern_of_extension(
    surface: Surface, vanishing: DivisorClass, m: int, c1: DivisorClass, s: int
) -> ChernData:
    """Chern data of the untwisted E from the minimal-section presentation:
    c2(E) = c2_0 + s, read off `_family`.  The standard construction's c2
    is this c2 at vanishing = h = (1, 0), and the twisted bundle E(mM) has
    c2(E) + m(M.c1) + m^2 e, M.c1 = c1.b."""
    if type(m) is not int or type(s) is not int:
        require_ints(m, s)
    if m < 0:
        _refuse_twist(m)
    if s < 0:
        raise DomainError(f"point count must be >= 0, got {s}")
    c2 = _family(surface.e, vanishing.a, vanishing.b, c1.a, c1.b, m)[4] + s
    return ChernData(2, c1, c2)


def section_count_bounds(surface: Surface, u: int, v: int, m: int) -> tuple[int, int]:
    """(a_lo, b_hi): the standard construction's admissible point counts,
    `_range` of its quotient end."""
    if type(u) is not int or type(v) is not int:
        require_ints(u, v)
    if type(m) is not int or m < 0:
        _refuse_twist(m)
    e = surface.e
    _, _, qa, qb, _ = _family(e, 1, 0, u, v, m)
    return _range(e, qa, qb, m)


def _refuse_twist(m: object) -> None:
    # raises for a twist parameter m that its caller found not an int >= 0
    require_ints(m)
    raise DomainError(f"twist parameter must be >= 0, got {m}")


def _family(e: int, x: int, y: int, u: int, v: int, m: int) -> tuple[int, int, int, int, int]:
    """The family of the vanishing class D = (x, y) at c1 = (u, v) and
    twist m on F_e, unchecked, as plain ints (sub_a, sub_b, quot_a, quot_b,
    c2_0): the ends sub = D - mM and quot = c1 - sub, and c2 at s = 0,
    sub.quot.  The one place that writes them; it sums no sections."""
    sa, sb = x - m, y - e * m
    qa, qb = u - sa, v - sb
    return sa, sb, qa, qb, sa * qb + sb * qa - e * sa * qa


def _range(e: int, qa: int, qb: int, m: int) -> tuple[int, int]:
    """(a_lo, b_hi) of the quotient end quot = (qa, qb) at twist m on F_e,
    unchecked: h0(quot + (m-1)M) <= h0(quot + mM), M = (1, e).  The one
    place that writes the range.

    Why s >= a_lo: the one hypothesis is that D = (x, y), x, y >= 0, has
    D - M = (x - 1, y - e) not effective, that is x = 0 or y <= e - 1.
    Then the sub end D - mM has no section at twist m - 1, where `_box`
    gives h0_max = max(0, a_lo - s) for s general points: s >= a_lo is
    exactly "no section of E at twist m - 1".
    """
    a, b = qa + m, qb + e * m  # quot + mM; quot + (m-1)M is (a - 1, b - e)
    return sections(e, a - 1, b - e), sections(e, a, b)


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
    the kernels before anything is built, so a refusal builds nothing.
    """
    if type(u) is not int or type(v) is not int or type(m) is not int or type(s) is not int:
        require_ints(u, v, m, s)
    e = surface.e
    if v < e * (u - 1) - 1:
        raise ConstructionError(
            "hypothesis_v", f"need v >= e(u-1)-1 = {e * (u - 1) - 1}, got v = {v}"
        )
    if m < 0:
        raise ConstructionError("hypothesis_m", f"need m >= 0, got m = {m}")
    sa, sb, qa, qb, _ = _family(e, 1, 0, u, v, m)
    a_lo, b_hi = _range(e, qa, qb, m)
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
    coordinates (M = (1, e)), and nothing is built.  No input is known to
    fire the chi identity or the inverted-interval check below; they stay as
    guards of this projection algebra until an independent chi oracle exists.
    """
    e, sub, quot = datum.surface.e, datum.sub, datum.quotient
    a0, a1, a2 = counts(e, sub.a + t, sub.b + t * e)
    q0, q1, q2 = ideal_counts(e, quot.config.z, _GENERAL, quot.cls.a + t, quot.cls.b + t * e)
    total_chi = a0 - a1 + a2 + q0 - q1 + q2

    # the caps on r0 and r1, min(q0, a1) and min(q1, a2); a forced split
    # pins both ranks at 0
    if datum.ext_forced_split:
        cap0 = cap1 = 0
    else:
        cap0 = q0 if q0 < a1 else a1
        cap1 = q1 if q1 < a2 else a2
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
    if type(t) is not int:
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
    """The verdict of an audit of `datum`, read off the twists m - 1 ..
    stop of `_audit_twists`, and the window scan_start..scan_stop over
    whose `rows` a referee checks it."""

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


def _audit_twists(datum: ExtensionDatum) -> tuple[int, int]:
    """(stop, end): the last twist the audit verdict reads, and the end of
    its window.  stop is T, the first twist where the sub class is
    effective, or max(T, -quot.a) at quotient slack <= -2
    (`audit_extension_natural` says why).  Past end the h1 upper bound
    a1 + q1 is monotone nonincreasing: from the settle twist max(T,
    1 - sub.a, the first effective twist of quot - h) on, both end classes
    have a >= 1 and b >= 0, so their h1 is constant under M, and the
    capacity of the quotient's general points, h0 of its class,
    nondecreasing; from reach on, quot - (s-1)*f is effective and the
    capacity (h0 >= b + 1) is at least s (a datum with s <= b_hi has
    capacity b_hi >= s at m already).  end = max(m, settle, reach) + 1,
    and only a referee reads it.
    """
    e, sub, qcls, m = datum.surface.e, datum.sub, datum.quotient.cls, datum.m
    effective = effective_twist(sub.a, sub.b, 1, e)
    stop = -qcls.a if qcls.b - e * qcls.a <= -2 and -qcls.a > effective else effective
    settle = effective_twist(qcls.a - 1, qcls.b, 1, e)
    if settle < 1 - sub.a:
        settle = 1 - sub.a
    end = settle if settle > effective else effective
    end = m if m > end else end
    reach = effective_twist(qcls.a, qcls.b - (datum.s - 1), 1, e)
    return stop, (end if end > reach else reach) + 1


def audit_extension_natural(datum: ExtensionDatum) -> ExtensionAudit:
    """Decide the natural-cohomology property of the extension's twists by M.

    The window runs from m - 1 to the end `_audit_twists` gives, and the
    `_outcome` of each twist's box says whether it Fails, Holds or is Indeterminate.
    Aggregate verdict: Fails at the first failing twist; Holds when every
    twist holds and both tails are pinned (left: h0_max = 0 at the window
    start, and h0_max is monotone under twisting by the spanned class M,
    so every earlier twist has no sections; right: h1_max = 0 at the
    window end, which lies past the monotone threshold of `_audit_twists`);
    otherwise Indeterminate.

    The verdict calls the box kernel `_box` only at the twists m - 1 ..
    max(m - 1, stop), and stops at a failure.  Let T be the first twist
    where the sub class is effective, and a_i, q_i the h^i of the sub
    class and the quotient ideal.  From T on, a0 >= 1, a2 = 0, a1 is
    constant (a twist adds to the sub's pushforward a summand O(b + e),
    b >= 0) and q0 is nondecreasing: so h0_min >= 1, a twist fails exactly
    when h1_min > 0, and h1_min >= q1, as r1 <= a2 = 0.  Along M the
    quotient (qa, qb) keeps its slack qb - e*qa.  At slack >= -1 its line
    bundle's h1 is positive only while its h-coordinate is <= -2, and
    nonincreasing there (the trichotomy of `cohomology`), as is the
    points' shortfall max(0, s - h0); so from T on q1, h1_min and h1_max
    are nonincreasing, split or not, and T decides every later twist, the
    window end (the right tail) included: stop = T.  At slack <= -2 that h1 is positive
    from the twist -qa on, so every twist from max(T, -qa) on fails:
    stop = max(T, -qa).  A datum of `construct_extension` has sub + mM =
    h, so T = m, and slack v - eu + e >= -1 (hypothesis_v): its verdict
    reads the boxes m - 1 and m, at any (u, v, m, s).  The verdict builds
    no box and no row; the audit rebuilds every row of the window on
    demand, as a referee.
    """
    start, (stop, end) = datum.m - 1, _audit_twists(datum)
    verdict = HOLDS_VERDICT
    for t in range(start, (stop if stop > start else start) + 1):
        lo0, hi0, lo1, hi1, _, _, _ = _box(datum, t)
        outcome = _outcome(lo0, hi0, lo1, hi1)
        if outcome is _FAILS:
            verdict = Verdict(_FAILS, t, lo0, lo1)
            break
        if outcome is not _HOLDS or (t == start and hi0 > 0):
            verdict = INDETERMINATE_VERDICT
    return ExtensionAudit(verdict, start, end, datum)


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

    `certified` is decided on the classes of the slope region's boundary
    that `stability_certificate` names; `candidates` lists the whole
    region and `candidate_count` counts it in closed form.
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
    of the ideal model twisted to class quot - N; for the s general points
    that is h0(quot - N) >= s + 1).  h0(quot - N) is read once.
    """
    (gamma, delta), sub, qcls = n, datum.sub, datum.quotient.cls
    if sub.a >= gamma and sub.b >= delta:
        return None
    h = sections(datum.surface.e, qcls.a - gamma, qcls.b - delta)
    if h > datum.s:
        return None
    if h > 0:
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
    deltas start at ceil(v/2) and gamma is unbounded below.  Neither range
    of deltas is empty: u = sub.a + quot.a <= 2 gamma_max and v <= 2
    delta_max, so each starts at most at delta_max.  The freeze point: for
    gamma below low = min(0, sub.a) and below qa - floor(max(0, qb -
    delta)/e), (qa, qb) = quot, the residual class quot - N keeps a
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
    some of these first classes (`stability_certificate` says which), and
    `candidate_count` sums the columns in closed form.
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


# each polarization by member and by value: a dict lookup costs a fraction
# of an enum call, and a stability verdict makes one
_POLARIZATIONS = {key: pol for pol in Polarization for key in (pol, pol.value)}


def _polarization(value: Polarization | str) -> Polarization:
    """The polarization named by value; DomainError unless it is R or M."""
    try:
        return _POLARIZATIONS[value]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        raise DomainError(f"polarization must be R or M, got {value!r}") from None


def stability_certificate(datum: ExtensionDatum, polarization: Polarization | str) -> StabilityReport:
    """Try to certify slope stability of the extension for one polarization.

    The candidates are the classes N whose slope meets or exceeds half of
    c1's and which could inject into the extension; certified means every
    one is excluded.  Any rank-1 subsheaf saturates to such an O(N), so a
    fully excluded candidate region is a genuine stability proof given
    general points; a surviving candidate is reported, not judged.

    The verdict is read off the region's boundary; this is the one place
    that says which of its classes are checked.  The classes `_exclusion`
    does not exclude form a down-set in (gamma, delta): lowering either
    coordinate of N raises both coordinates of sub - N and of quot - N,
    and effectivity and h0 are nondecreasing in each.  So a survivor
    exists iff a column's first class survives (`_region`): under M the
    first column's tail, one `_exclusion` call; under R a class of the
    segment gamma + delta = ceil((u+v)/2), delta in [lo, hi], along which
    quot - N = (A, S - A) with S fixed and A = delta + shift.  There a
    class survives when
      - sub - N is effective: on a delta interval that ends at sub.b <= hi,
        so it meets the segment iff it holds clamp(sub.b);
      - or h0(A, S - A) >= s + 1.  That h0 is 0 if S < 0.  If S >= 0 it is
        0 for A < 0, the concave quadratic (A + 1)(S + 1 - A - eA/2) on
        [0, turn], turn = S // (e + 1), and nonincreasing past the turn.
        The real vertex (2S - e)/(2e + 4) lies in (-1/2, S/(e + 1)), so
        h0 peaks at its floor `vertex` or at vertex + 1 (at 0 = vertex + 1
        when vertex = -1, at the turn when vertex is the turn), and its
        maximum on the segment is at one of the two, clamped.
    So, at any size of the coefficients, the verdict checks at most three
    classes, clamp(sub.b), clamp(vertex - shift) and clamp(vertex + 1 -
    shift), each clamped to [lo, hi] and taken once, and stops at the
    first survivor.  `StabilityReport.candidates` lists the whole region,
    as a referee.

    Only twist parameter m = 0 is supported; the slope bookkeeping above
    assumes the untwisted presentation.
    """
    pol = _polarization(polarization)
    if datum.m != 0:
        raise DomainError(f"stability certification needs m = 0, got m = {datum.m}")
    e, u, v = datum.surface.e, datum.u, datum.v

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
    # under M the first column's tail stands below every other class
    checked = deltas[:1]
    if pol is Polarization.R:
        # on the segment first(delta) = threshold - delta, so A = quot.a -
        # first(delta) = delta + shift, and S = A + B = shift + quot.b
        qcls, threshold = datum.quotient.cls, first(0)
        shift = qcls.a - threshold
        peak = (2 * (shift + qcls.b) - e) // (2 * e + 4) - shift  # the delta of A = vertex
        lo, hi = deltas[0], deltas[-1]
        # clamped by comparisons, not `min`/`max` calls and a generator,
        # which cost about a sixth of an R verdict at small coefficients
        checked = {lo if d < lo else hi if d > hi else d for d in (datum.sub.b, peak, peak + 1)}
    certified = all(_exclusion(datum, (first(delta), delta)) is not None for delta in checked)
    return StabilityReport(pol, certified, tuple(warnings), datum)


# ---------------------------------------------------------------------------
# region classifier


class RegionLabel(str, enum.Enum):
    NONEXISTENT = "Nonexistent"
    EXISTENT = "Existent"


# the labels `classify_region` stores, bound once, like the members above
_NONEXISTENT = RegionLabel.NONEXISTENT
_EXISTENT = RegionLabel.EXISTENT


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
    """Merge nonempty inclusive integer intervals that overlap or touch, in
    one pass over the list sorted in place (the caller's fresh list).  It
    is sorted because the witness intervals are not ordered in m: at
    e = 1, (u, v) = (-5, -4) gives (2,2), (5,5), (6,6), (5,8) for m = 0..3.
    A single interval, the m_max = 0 case, is returned as it is."""
    if len(intervals) == 1:
        return tuple(intervals)
    intervals.sort()
    merged = []
    lo, hi = intervals[0]
    for start, stop in intervals:
        if start > hi + 1:
            merged.append((lo, hi))
            lo = start
        # sorted by start, so a new run's stop passes the old hi too
        if stop > hi:
            hi = stop
    merged.append((lo, hi))
    return tuple(merged)


def _c2_witness(e: int, u: int, v: int, m_max: int) -> tuple[tuple[int, int], ...]:
    # c2 = s + c2_0 over a_lo <= s <= b_hi, for each m
    intervals = []
    for m in range(m_max + 1):
        _, _, qa, qb, c2_0 = _family(e, 1, 0, u, v, m)
        a_lo, b_hi = _range(e, qa, qb, m)
        intervals.append((c2_0 + a_lo, c2_0 + b_hi))
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
    `_family` and one `_range` call per m; rank-1 witnesses are the single
    point 0.
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
                cells.append(RegionCell(u, v, _NONEXISTENT))
            elif rank == 1:
                # v >= eu - 1: the line bundle (u, v) itself is natural
                cells.append(RegionCell(u, v, _EXISTENT, ((0, 0),)))
            else:
                cells.append(RegionCell(u, v, _EXISTENT, _c2_witness(e, u, v, m_max)))
    return tuple(cells)
