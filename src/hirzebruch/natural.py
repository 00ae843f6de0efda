"""Natural cohomology under repeated twisting: finite decision procedures.

A sheaf model E here is a line bundle, a direct sum of line bundles, or a
twisted ideal sheaf of generic points.  Fix a spanned nonzero class T.

    natural (w.r.t. T):        h^1(E + t*T) = 0 for every t with h^0 > 0
    unconditional (w.r.t. T):  h^1(E + t*T) = 0 for every integer t

Every checker decides from the *runs* of the model (`_runs`): the maximal
twist intervals on which a component has h^1 > 0.  By the trichotomy of
:mod:`hirzebruch.cohomology`, a component class has h^1 > 0 exactly when
its h-coordinate a is >= 0 and its slack b - e*a is <= -2, or a <= -2 and
slack >= e.  Along a spanned twist both a and the slack are
nondecreasing in t, so each of these sets is one interval: it starts
where one form reaches its threshold (a reaches 0, or the slack reaches
e) and stops where the other passes its own.  For ideal models
h1_ideal = h1 + max(0, z - rho), and the capacity rho is nondecreasing
along a spanned twist, so the shortfall is positive only on a prefix of
the twist line.  Hence the first failing twist of a window is its first
twist or a run start, and a verdict evaluates cohomology there only:
O(#components) evaluations whatever the coefficients.  The window runs
from its first twist to the failure witness, or to the last run start
when nothing fails; past that no run begins, so no first failure can
appear.  The scan evidence rebuilds the (t, h0, h1) rows of the whole
window on demand, as a referee.

Closed-form criteria exist for lines and sums when T is M = h + e*f or
R = h + (e+1)*f and are checked against the scans by the test suite; the
scans are the referees, the closed forms are the fast paths.  Ideal
models have none: `ideal_natural_wrt_m` is the M scan's boolean form.

All verdicts carry a witness twist and the (h0, h1) evidence so a failed
check is reproducible by a single cohomology evaluation.

The scans check the model's shape and the twisting class once, on entry;
coordinates and point counts are plain ints already, since `DivisorClass`
and `PointConfig` refuse anything else when they are built.  Each twist is
then evaluated on plain coordinates through the integer kernels
``cohomology.counts`` and ``sheaves.ideal_counts`` (``ideal_sections`` for
the min-twist probe), so no class, model or triple is built per twist; the
`Verdict` and the `ScanEvidence` are built once per answer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .cohomology import ConsistencyError, counts
from .picard import DivisorClass, DomainError, Surface, ceil_div
from .sheaves import IdealSheafModel, ideal_counts, ideal_sections


@dataclass(frozen=True)
class Line:
    cls: DivisorClass


@dataclass(frozen=True)
class DirectSum:
    classes: tuple[DivisorClass, ...]

    def __post_init__(self) -> None:
        if len(self.classes) == 0:
            raise DomainError("direct sum needs at least one summand")


SheafModel = Union[Line, DirectSum, IdealSheafModel]


class Outcome(str, enum.Enum):
    HOLDS = "HOLDS"
    FAILS = "FAILS"
    INDETERMINATE = "INDET"


@dataclass(frozen=True)
class Verdict:
    """An outcome plus, for FAILS, the twist and cohomology that witness it."""

    outcome: Outcome
    witness_t: Optional[int] = None
    witness_h0: Optional[int] = None
    witness_h1: Optional[int] = None

    def holds(self) -> bool:
        return self.outcome is Outcome.HOLDS


@dataclass(frozen=True)
class ScanEvidence:
    """The verdict of a scan over the twists scan_start..scan_stop of model + t*by.

    A FAILS window ends at its witness.  Otherwise it ends at the last run
    start above its first twist, or at its first twist when no run starts
    above it; no run starts after scan_stop then.
    """

    verdict: Verdict
    scan_start: int
    scan_stop: int
    surface: Surface
    model: SheafModel
    by: DivisorClass

    @property
    def rows(self) -> tuple[tuple[int, int, int], ...]:
        """The (t, h0, h1) row of every twist in the window, computed on each access.

        The verdict does not read them; they let a caller or a test check it.
        """
        return tuple(
            (t, *_values_at(self.surface, self.model, t, self.by))
            for t in range(self.scan_start, self.scan_stop + 1)
        )


def _require_inputs(surface: Surface, model: SheafModel, by: DivisorClass) -> None:
    """Reject a non-model and a twisting class that is not spanned and
    nonzero.  Coordinates and point counts need no check: the types refuse
    non-integers when they are built."""
    _components(model)  # DomainError for a non-model
    # spanned: a >= 0 and b >= e*a
    if by.is_zero() or by.a < 0 or by.b < surface.e * by.a:
        raise DomainError(f"twisting class must be spanned and nonzero, got {by}")


def _components(model: SheafModel) -> tuple[DivisorClass, ...]:
    if isinstance(model, Line):
        return (model.cls,)
    if isinstance(model, DirectSum):
        return model.classes
    if isinstance(model, IdealSheafModel):
        return (model.cls,)
    raise DomainError(f"not a sheaf model: {model!r}")


def _values_at(surface: Surface, model: SheafModel, t: int, by: DivisorClass) -> tuple[int, int]:
    """(h0, h1) of the model twisted by t*by.  Exact for all three shapes."""
    e, da, db = surface.e, t * by.a, t * by.b
    if isinstance(model, IdealSheafModel):
        config, cls = model.config, model.cls
        v0, v1, _ = ideal_counts(e, config.z, config.locus, cls.a + da, cls.b + db)
        return v0, v1
    total0 = total1 = 0
    for cls in _components(model):
        v0, v1, _ = counts(e, cls.a + da, cls.b + db)
        total0 += v0
        total1 += v1
    return total0, total1


# ---------------------------------------------------------------------------
# minimal twist with sections


def _line_min_twist(cls: DivisorClass, by: DivisorClass) -> Optional[int]:
    """Least t with h0(cls + t*by) > 0, or None if no twist has sections.

    h0 > 0 exactly when both coordinates are >= 0.  With by = (c, d),
    spanned nonzero: if c >= 1 then d >= e*c >= 1 and both coordinates
    grow, so the answer is max(ceil(-u/c), ceil(-v/d)); if c = 0 the
    h-coordinate is frozen at u, so u < 0 means no twist ever works.
    """
    u, v = cls.a, cls.b
    c, d = by.a, by.b
    if c >= 1:
        return max(ceil_div(-u, c), ceil_div(-v, d))
    if u < 0:
        return None
    return ceil_div(-v, d)


def min_twist_with_sections(surface: Surface, model: SheafModel, by: DivisorClass) -> int:
    """Minimal t with h^0(model + t*by) > 0.

    h^0 along spanned twists is monotone (a spanned class is effective, and
    multiplying by its section is injective on sections), so the set of
    twists with sections is the ray [m0, infinity).  Raises DomainError if
    the ray is empty, which happens only for fiber-type twisting classes
    (0, d) against models whose h-coordinates are all negative.
    """
    _require_inputs(surface, model, by)
    if isinstance(model, Line):
        t = _line_min_twist(model.cls, by)
        if t is None:
            raise DomainError(f"no twist of {model.cls} by {by} has sections")
        return t
    if isinstance(model, DirectSum):
        # a direct sum has sections exactly when some summand does
        candidates = [_line_min_twist(cls, by) for cls in model.classes]
        finite = [t for t in candidates if t is not None]
        if not finite:
            summands = " + ".join(str(cls) for cls in model.classes)
            raise DomainError(f"no twist of {summands} by {by} has sections")
        return min(finite)

    # Ideal sheaf: h0_ideal <= h0 of the underlying line bundle, so start at
    # the line bundle's minimal twist and search upward.  h0_ideal is
    # monotone (both h0(c) and h0(c - C) are), and it is positive as soon as
    # h0(line) >= z + 1, which the i = 0 pushforward term alone guarantees
    # once v + t*d >= z (and the h-coordinate is nonnegative).  The answer
    # is often `start` itself, which `first_true` probes first.
    z, locus, u, v = model.config.z, model.config.locus, model.cls.a, model.cls.b
    start = _line_min_twist(model.cls, by)
    if start is None:
        raise DomainError(f"no twist of the ideal model class {model.cls} by {by} has sections")
    e, c, d = surface.e, by.a, by.b
    stop = max(start, ceil_div(z - v, d))
    if c >= 1:
        stop = max(stop, ceil_div(-u, c))

    t = first_true(lambda t: ideal_sections(e, z, locus, u + t * c, v + t * d) > 0, start, stop)
    if t is None:
        raise ConsistencyError(
            f"section bound violated: h0_ideal of {model} twisted by {stop}*{by} is 0"
        )
    return t


def first_true(pred: Callable[[int], bool], lo: int, hi: int) -> Optional[int]:
    """Least t in [lo, hi] (lo <= hi) with pred(t), for a pred that turns true once
    and stays true; None when pred(hi) is false.

    Gallops (lo, lo+1, lo+3, lo+7, ...) before bisecting, so an answer d
    steps past lo costs O(log d) calls of pred.
    """
    below, probe = lo - 1, lo  # pred is false at every t <= below
    while not pred(probe):
        if probe == hi:
            return None
        below, probe = probe, min(hi, 2 * probe - lo + 1)
    while probe - below > 1:
        mid = (below + probe) // 2
        if pred(mid):
            probe = mid
        else:
            below = mid
    return probe


# ---------------------------------------------------------------------------
# runs of h^1 > 0 and the scans


def _runs(
    surface: Surface, model: SheafModel, by: DivisorClass
) -> list[tuple[Optional[int], Optional[int]]]:
    """Each component's runs: maximal twist intervals [start, stop) with h^1 > 0.

    None marks an unbounded end.  Per twist the h-coordinate a of a
    component moves by by.a and its slack b - e*a by by.b - e*by.a, both
    >= 0.  h^1 > 0 while a >= 0 and slack < -1, and while slack >= e and
    a < -1 (the trichotomy), so each run starts where one form reaches its
    threshold and stops where the other reaches -1.  A form that does not
    move either always or never meets its threshold.
    """
    e = surface.e
    c, step = by.a, by.b - e * by.a
    runs = []
    for k in _components(model):
        a, slack = k.a, k.b - e * k.a
        # on while x >= on and y < -1: x moves by dx, y by dy per twist
        for x, dx, on, y, dy in ((a, c, 0, slack, step), (slack, step, e, a, c)):
            if dx:
                start = ceil_div(on - x, dx)
            elif x >= on:
                start = None
            else:
                continue
            if dy:
                stop = ceil_div(-1 - y, dy)
            elif y < -1:
                stop = None
            else:
                continue
            if start is None or stop is None or start < stop:
                runs.append((start, stop))
    return runs


def _decide(
    surface: Surface,
    model: SheafModel,
    by: DivisorClass,
    runs: list[tuple[Optional[int], Optional[int]]],
    lo: int,
) -> ScanEvidence:
    """The scan of the window from lo to the witness, the first twist
    with h^1 > 0, or else to the last run start above lo (lo itself when
    there is none).

    Only lo and those run starts are evaluated.
    """
    starts = sorted({start for start, _ in runs if start is not None and start > lo})
    twists = (lo, *starts)
    for t in twists:
        v0, v1 = _values_at(surface, model, t, by)
        if v1 > 0:
            verdict = Verdict(Outcome.FAILS, witness_t=t, witness_h0=v0, witness_h1=v1)
            return ScanEvidence(verdict, lo, t, surface, model, by)
    return ScanEvidence(Verdict(Outcome.HOLDS), lo, twists[-1], surface, model, by)


def scan_verdict(surface: Surface, model: SheafModel, by: DivisorClass) -> ScanEvidence:
    """Decide the natural-cohomology property over a finite twist window.

    The window runs from the first twist with sections, m0, to the witness
    of a failure, or else to the last run start above m0.  Since h^0 is
    monotone along a spanned twist, h^0 > 0 from m0 on, so the property
    fails exactly at the twists from m0 on with h^1 > 0.  Every run that
    meets [m0, infinity) either contains m0 or starts above it, and for
    ideal models the capacity shortfall max(0, z - rho) is positive only on
    a prefix of the twist line, which contains m0 if it reaches it; so m0
    and the run starts above it are the only twists evaluated.

    A model with no twist that has sections (possible only for a fiber-type
    `by` against negative h-coordinates) raises DomainError from
    `min_twist_with_sections`, although the property holds vacuously
    there; the CLI reports it as exit 3.  `unconditional_scan` decides
    such a model like any other.
    """
    m0 = min_twist_with_sections(surface, model, by)  # checks the inputs
    return _decide(surface, model, by, _runs(surface, model, by), m0)


def unconditional_scan(surface: Surface, model: SheafModel, by: DivisorClass) -> ScanEvidence:
    """Decide h^1 = 0 at *every* twist over a two-sided finite window.

    The window starts one twist below every finite run edge (at 0 when
    there is none), so each run either contains the window start or starts
    above it.  It ends at the witness of a failure, or else at the last
    run start.
    For ideal models with z > 0 the window also starts below the line
    bundle's first twist with sections, where rho = 0 < z, so a capacity
    shortfall shows at the window start.  When a failing run is unbounded
    below, the witness is the window start.
    """
    _require_inputs(surface, model, by)
    runs = _runs(surface, model, by)
    edges = [t for run in runs for t in run if t is not None]
    if isinstance(model, IdealSheafModel) and model.config.z > 0:
        first = _line_min_twist(model.cls, by)
        if first is not None:
            edges.append(first)
    lo = min(edges) - 1 if edges else 0
    # below lo no run edge is crossed and an ideal's shortfall is z (or 0),
    # so every twist there has the verdict of lo
    return _decide(surface, model, by, runs, lo)


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


# ---------------------------------------------------------------------------
# the M scan's boolean form (no closed form)


def ideal_natural_wrt_m(surface: Surface, model: IdealSheafModel) -> bool:
    """Natural cohomology for a twisted ideal of generic points w.r.t. M:
    `scan_verdict(...).verdict.holds()`, the scan itself, not a closed form."""
    return scan_verdict(surface, model, surface.m_class()).verdict.holds()
