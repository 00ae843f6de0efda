"""Natural cohomology under repeated twisting: finite decision procedures.

A sheaf model E here is a line bundle, a direct sum of line bundles, or a
twisted ideal sheaf of generic points.  Fix a spanned nonzero class T.

    natural (w.r.t. T):        h^1(E + t*T) = 0 for every t with h^0 > 0
    unconditional (w.r.t. T):  h^1(E + t*T) = 0 for every integer t

Every checker decides an explicit finite twist window together with a tail
argument proving the verdict constant outside the window; the window edges
come from `_upper_stabilization_bound` and `_lower_stabilization_bound`,
whose docstrings carry the case analysis.

Inside the window cohomology is evaluated only at a few twists.  By the
trichotomy of :mod:`hirzebruch.cohomology`, a component class has h^1 > 0
exactly when its h-coordinate a is >= 0 and its slack b - e*a is <= -2,
or a <= -2 and slack >= e.  Along a spanned twist both a and the slack
are nondecreasing in t, so each of these regions is an interval of
twists that begins where a reaches 0 or where the slack reaches e.  For
ideal models h1_ideal = h1 + max(0, z - rho), and the capacity rho is
nondecreasing along a spanned twist, so rho < z holds on a prefix of the
window.  Hence the first twist of the window with h^1 > 0 is the window
start or one of those interval beginnings, the *piece starts*
(`_piece_starts`), and a verdict costs O(#components) evaluations
whatever the window's length.  The scan evidence rebuilds the (t, h0, h1)
rows of the whole window on demand, as a referee.

Closed-form criteria exist when T is M = h + e*f or R = h + (e+1)*f and
are checked against the scans by the test suite; the scans are the
referees, the closed forms are the fast paths.

All verdicts carry a witness twist and the (h0, h1) evidence so a failed
check is reproducible by a single cohomology evaluation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .cohomology import ConsistencyError, h0, h1
from .picard import DivisorClass, DomainError, Surface, ceil_div, twist
from .sheaves import IdealSheafModel, Locus, h0_ideal, h1_ideal


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

    stabilization_bound is the upper window edge the tail argument needs;
    scan_stop exceeds it by the caller's extra window.
    """

    verdict: Verdict
    stabilization_bound: int
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


def _require_twisting_class(surface: Surface, by: DivisorClass) -> None:
    pos = surface.positivity(by)
    if by.is_zero() or not pos.spanned:
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
    if isinstance(model, Line):
        c = twist(model.cls, t, by)
        return h0(surface, c), h1(surface, c)
    if isinstance(model, DirectSum):
        total0 = total1 = 0
        for cls in model.classes:
            c = twist(cls, t, by)
            total0 += h0(surface, c)
            total1 += h1(surface, c)
        return total0, total1
    shifted = model.twisted(t, by)
    return h0_ideal(surface, shifted), h1_ideal(surface, shifted)


# ---------------------------------------------------------------------------
# minimal twist with sections


def _line_min_twist(surface: Surface, cls: DivisorClass, by: DivisorClass) -> Optional[int]:
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
    _require_twisting_class(surface, by)
    if isinstance(model, Line):
        t = _line_min_twist(surface, model.cls, by)
        if t is None:
            raise DomainError(f"no twist of {model.cls} by {by} has sections")
        return t
    if isinstance(model, DirectSum):
        # a direct sum has sections exactly when some summand does
        candidates = [_line_min_twist(surface, cls, by) for cls in model.classes]
        finite = [t for t in candidates if t is not None]
        if not finite:
            raise DomainError(f"no twist of {model} by {by} has sections")
        return min(finite)

    # Ideal sheaf: h0_ideal <= h0 of the underlying line bundle, so start at
    # the line bundle's minimal twist and search upward.  h0_ideal is
    # monotone (both h0(c) and h0(c - C) are), and it is positive as soon as
    # h0(line) >= z + 1, which the i = 0 pushforward term alone guarantees
    # once v + t*d >= z (and the h-coordinate is nonnegative).  The answer
    # is often `start` itself, which `first_true` probes first.
    z = model.config.z
    start = _line_min_twist(surface, model.cls, by)
    if start is None:
        raise DomainError(f"no twist of the ideal model class {model.cls} by {by} has sections")
    c, d = by.a, by.b
    stop = max(start, ceil_div(z - model.cls.b, d))
    if c >= 1:
        stop = max(stop, ceil_div(-model.cls.a, c))

    t = first_true(lambda t: h0_ideal(surface, model.twisted(t, by)) > 0, start, stop)
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
# scan windows


def _upper_stabilization_bound(
    surface: Surface, model: SheafModel, by: DivisorClass, floor: int
) -> int:
    """A twist T such that for t > T the per-twist h^1 verdict is frozen.

    Write by = (c, d) and slack(c) = b - e*a for a component class; one
    twist step changes a component's slack by d - e*c >= 0 and its
    h-coordinate by c.

    c >= 1: past t >= ceil((1 - u_i)/c) every h-coordinate stays >= 1, so
    only the first trichotomy branch applies and h^1 = 0 iff slack >= -1.
    Slack is constant (d = e*c, the M-like case) or strictly increasing
    (ample case); either way, once a row beyond this bound has h^1 = 0 it
    stays 0, and a row with h^1 > 0 is itself a witness.

    c = 0 (fiber-type): h-coordinates are frozen.  For u_i >= 0 the
    condition slack >= -1 becomes true at a computable threshold and stays
    true; for u_i <= -2 the condition slack <= e - 1 becomes false at a
    computable threshold and stays false; u_i = -1 never contributes.

    For ideal models there is one more moving part, the capacity rho of
    ``max_conditions``: h1_ideal = h1(line) + max(0, z - rho).  GENERAL:
    rho = h0 >= v + t*d + 1 once the h-coordinate is nonnegative, so rho
    >= z from a computable twist on.  ON_SECTION: rho = max(0, slack + 1),
    constant in the M-like case (the shift z - rho is then constant too)
    and otherwise >= z once slack >= z - 1.  ON_FIBER: rho =
    min(a, floor(b/e)) + 1 on the effective quadrant, which either reaches
    z at a computable twist or, when c = 0 caps it at u + 1 < z, pins the
    shift at the constant z - u - 1 from the cap twist on.
    """
    e = surface.e
    c, d = by.a, by.b
    comps = _components(model)
    if c >= 1:
        bound = max([floor] + [ceil_div(1 - k.a, c) for k in comps]) + 1
    else:
        cuts = [floor]
        for k in comps:
            if k.a >= 0:
                cuts.append(ceil_div(e * k.a - 1 - k.b, d))
            elif k.a <= -2:
                cuts.append(ceil_div(e * k.a + e - k.b, d))
        bound = max(cuts) + 1

    if isinstance(model, IdealSheafModel) and model.config.z > 0:
        z = model.config.z
        u, v = model.cls.a, model.cls.b
        locus = model.config.locus
        if locus is Locus.GENERAL:
            bound = max(bound, ceil_div(z - 1 - v, d))
        elif locus is Locus.ON_SECTION:
            step = d - e * c
            if step >= 1:
                bound = max(bound, ceil_div(z - 1 - (v - e * u), step))
            # step == 0: rho constant, nothing extra needed
        else:  # ON_FIBER
            if c >= 1:
                bound = max(bound, ceil_div(z - 1 - u, c), ceil_div(e * (z - 1) - v, d))
            elif z <= u + 1:
                bound = max(bound, ceil_div(e * (z - 1) - v, d))
            else:
                bound = max(bound, ceil_div(e * u - v, d))
    return bound


def _lower_stabilization_bound(surface: Surface, model: SheafModel, by: DivisorClass) -> int:
    """A twist T such that for t < T the per-twist h^1 verdict is frozen.

    Mirror image of the upper bound.  For c >= 1 push every h-coordinate
    to <= -2; slack is constant (M-like) or falls without bound (ample),
    and in the third trichotomy branch h^1 = 0 iff slack <= e - 1.  For
    c = 0 the slack of every component falls, so each component's verdict
    freezes below a computable threshold (for u_i >= 0 it freezes at
    "fails", which the edge row then witnesses).  For ideal models descend
    further until the underlying line bundle has no sections at all; below
    that point h1_ideal = h1(line) + z, which for z >= 1 freezes the row
    verdict at "fails" and the edge row witnesses it.
    """
    e = surface.e
    c, d = by.a, by.b
    cuts = [0]
    for k in _components(model):
        slack0 = k.b - e * k.a
        if c >= 1:
            cuts.append((-2 - k.a) // c)
            step = d - e * c
            if step >= 1:
                cuts.append((e - 1 - slack0) // step)
        else:
            if k.a >= 0:
                cuts.append((-2 - slack0) // d)
            elif k.a <= -2:
                cuts.append((e - 1 - slack0) // d)
    if isinstance(model, IdealSheafModel) and model.config.z > 0:
        if c >= 1:
            cuts.append((-1 - model.cls.a) // c)
        else:
            cuts.append((-1 - model.cls.b) // d)
    return min(cuts) - 1


# ---------------------------------------------------------------------------
# scans


def _piece_starts(
    surface: Surface, model: SheafModel, by: DivisorClass, lo: int, hi: int
) -> list[int]:
    """lo and, sorted, every twist in (lo, hi] where a run of h^1 > 0 can begin.

    These are, for each component class, the first twists at which the
    h-coordinate reaches 0 and the slack reaches e (see the module
    docstring); a form with step 0 never moves.
    """
    e = surface.e
    c, step = by.a, by.b - e * by.a
    starts = {lo}
    for k in _components(model):
        if c:
            starts.add(ceil_div(-k.a, c))
        if step:
            starts.add(ceil_div(e - (k.b - e * k.a), step))
    return sorted(t for t in starts if lo <= t <= hi)


def _first_failure(
    surface: Surface, model: SheafModel, by: DivisorClass, lo: int, hi: int
) -> Verdict:
    """The verdict of the window [lo, hi]: FAILS at its first twist with h^1 > 0.

    Only the piece starts are evaluated; the first bad twist is one of them.
    """
    for t in _piece_starts(surface, model, by, lo, hi):
        v0, v1 = _values_at(surface, model, t, by)
        if v1 > 0:
            return Verdict(Outcome.FAILS, witness_t=t, witness_h0=v0, witness_h1=v1)
    return Verdict(Outcome.HOLDS)


def scan_verdict(
    surface: Surface, model: SheafModel, by: DivisorClass, extra_window: int = 0
) -> ScanEvidence:
    """Decide the natural-cohomology property over a finite twist window.

    The window runs from the first twist with sections up to the
    stabilization bound (plus any extra window).  Since h^0 is monotone
    along a spanned twist, h^0 > 0 on the whole window, so the property
    fails exactly at twists with h^1 > 0, and the bound's tail argument
    shows no failure can first appear beyond it.

    A model with no twist that has sections (possible only for a fiber-type
    `by` against negative h-coordinates) raises DomainError from
    `min_twist_with_sections`, although the property holds vacuously
    there; the CLI reports it as exit 3.  `unconditional_scan` decides
    such a model like any other.
    """
    _require_twisting_class(surface, by)
    if extra_window < 0:
        raise DomainError(f"extra_window must be >= 0, got {extra_window}")
    m0 = min_twist_with_sections(surface, model, by)
    bound = _upper_stabilization_bound(surface, model, by, m0)
    stop = bound + extra_window
    verdict = _first_failure(surface, model, by, m0, stop)
    return ScanEvidence(verdict, bound, m0, stop, surface, model, by)


def unconditional_scan(
    surface: Surface, model: SheafModel, by: DivisorClass, extra_window: int = 0
) -> ScanEvidence:
    """Decide h^1 = 0 at *every* twist over a two-sided finite window."""
    _require_twisting_class(surface, by)
    if extra_window < 0:
        raise DomainError(f"extra_window must be >= 0, got {extra_window}")
    lo = _lower_stabilization_bound(surface, model, by) - extra_window
    bound = _upper_stabilization_bound(surface, model, by, 0)
    hi = bound + extra_window
    verdict = _first_failure(surface, model, by, lo, hi)
    return ScanEvidence(verdict, bound, lo, hi, surface, model, by)


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


def ideal_natural_wrt_m(surface: Surface, model: IdealSheafModel) -> bool:
    """Natural cohomology for a twisted ideal of generic points, by scan."""
    return scan_verdict(surface, model, surface.m_class()).verdict.holds()


__all__ = [
    "DirectSum",
    "Line",
    "Outcome",
    "ScanEvidence",
    "SheafModel",
    "Verdict",
    "direct_sum_natural_wrt_m",
    "ideal_natural_wrt_m",
    "line_natural_wrt_m",
    "line_natural_wrt_r",
    "line_unconditional_wrt_m",
    "min_twist_with_sections",
    "scan_verdict",
    "unconditional_scan",
]
