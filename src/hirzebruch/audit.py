"""Desk-scale verification of the library's closed-form claims.

Every fast path in this package (twist criteria, direct-sum criterion,
construction bounds, stability exclusions, extension audits) rests on a
closed-form claim.  Each claim here re-derives its statement against the
exact scan oracles on a small grid and records the result as findings:

    agrees         the statement matched the computation on every instance
    discrepancy    a concrete witness contradicts the statement (or a
                   commonly transcribed variant of it); the finding carries
                   the witness so it can be rechecked by hand
    indeterminate  the instance is only known within intervals, so the
                   statement is neither confirmed nor refuted at desk scale

Findings are deterministic: fixed grids, seeded sampling, stable order.
Discrepancy findings are expected output for the known defective variants
(an e-scaled correction term, a sign in the direct-sum twist bound, bare
arithmetic sums in place of section counts, and the extension claim at
e >= 2); they are reported, never patched over.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Optional, Sequence

from .bundles import (
    audit_extension_natural,
    c1_obstructed,
    chern_of_extension,
    cohomology_interval,
    construct_extension,
    construction_c2,
    ConstructionError,
    section_count_bounds,
    stability_certificate,
)
from .natural import (
    DirectSum,
    Line,
    Outcome,
    direct_sum_natural_wrt_m,
    line_natural_wrt_m,
    line_natural_wrt_r,
    line_unconditional_wrt_m,
    scan_verdict,
    unconditional_scan,
)
from .picard import DivisorClass, DomainError, Record, Surface, ceil_div
from .sheaves import IdealSheafModel, Locus, PointConfig

AGREES = "agrees"
DISCREPANCY = "discrepancy"
INDETERMINATE = "indeterminate"


class Finding(Record):
    __slots__ = ("claim", "e", "status", "subject", "detail")

    def __init__(self, claim: str, e: int, status: str, subject: str, detail: str) -> None:
        put_claim, put_e, put_status, put_subject, put_detail = self._put
        put_claim(self, claim)
        put_e(self, e)
        put_status(self, status)
        put_subject(self, subject)
        put_detail(self, detail)


def _settle(
    claim: str, surface: Surface, problems: Sequence[tuple[str, str]], agrees: tuple[str, str]
) -> list[Finding]:
    """One DISCREPANCY finding per (subject, detail) problem or, when there
    are none, the single AGREES finding with (subject, detail) `agrees`."""
    if problems:
        return [
            Finding(claim, surface.e, DISCREPANCY, subject, detail)
            for subject, detail in problems
        ]
    return [Finding(claim, surface.e, AGREES, *agrees)]


# ---------------------------------------------------------------------------
# individual claims


def _claim_ample_self_twists(surface: Surface) -> list[Finding]:
    """Powers of an ample class keep unconditional vanishing w.r.t. that
    class, and lose it w.r.t. the class fattened by two fibers."""
    e = surface.e
    name = "ample-self-twists"
    samples = [DivisorClass(1, e + 1), DivisorClass(1, e + 2), DivisorClass(2, 2 * e + 1)]
    powers = range(1, 4)
    problems = []
    for ample in samples:
        fat = ample + DivisorClass(0, 2)
        for t in powers:
            line = Line(t * ample)
            good = unconditional_scan(surface, line, ample).verdict
            bad = unconditional_scan(surface, line, fat).verdict
            if not good.holds() or bad.holds():
                problems.append((
                    f"H={ample}, t={t}",
                    f"expected vanishing w.r.t. {ample} and failure w.r.t. {fat}; "
                    f"got {good.outcome.value} and {bad.outcome.value}",
                ))
    out = _settle(name, surface, problems, (
        f"{len(samples) * len(powers)} powers of {len(samples)} ample classes",
        "every power keeps unconditional vanishing w.r.t. its own class "
        "and loses it w.r.t. the class plus two fibers",
    ))
    if e >= 2:
        # unconditional vanishing is not exclusive to ample twisting classes
        first = DivisorClass(1, e + 1)
        mm = surface.m_class()
        if unconditional_scan(surface, Line(first), mm).verdict.holds():
            out.append(Finding(
                name, e, DISCREPANCY, f"H={first}, t=1 w.r.t. {mm}",
                "the power also has unconditional vanishing w.r.t. the spanned "
                "non-ample class, so ample twisting classes are not the only ones",
            ))
    return out


def _claim_line_twist_criterion(surface: Surface) -> list[Finding]:
    """v >= eu-1 decides the natural property of a line bundle w.r.t. M,
    and eu-1 <= v <= eu+e-1 the unconditional one."""
    mm = surface.m_class()
    problems = []
    for u in range(-5, 6):
        for v in range(-5, 6):
            cls = DivisorClass(u, v)
            line = Line(cls)
            by_scan = scan_verdict(surface, line, mm).verdict.holds()
            if line_natural_wrt_m(surface, cls) != by_scan:
                problems.append(
                    (f"(u,v)=({u},{v})", f"closed form says {not by_scan}, scan says {by_scan}")
                )
            two_sided = unconditional_scan(surface, line, mm).verdict.holds()
            if line_unconditional_wrt_m(surface, cls) != two_sided:
                problems.append((
                    f"(u,v)=({u},{v}) two-sided",
                    f"band form says {not two_sided}, scan says {two_sided}",
                ))
    return _settle("line-twist-criterion", surface, problems, (
        "121 classes, both directions",
        "slack criterion and slack band agree with the scans everywhere",
    ))


def _claim_line_ample_r_criterion(surface: Surface) -> list[Finding]:
    """First-section slack criterion w.r.t. the minimal ample class R.

    Also re-derives the defective variant that scales the twist count by e
    in the slack budget; for e >= 2 that variant overcounts and the finding
    records a witness.
    """
    name = "line-ample-r-criterion"
    e = surface.e
    rr = surface.r_class()
    problems = []
    variant_bad = []
    for u in range(-6, 7):
        for v in range(-6, 7):
            cls = DivisorClass(u, v)
            truth = scan_verdict(surface, Line(cls), rr).verdict.holds()
            if line_natural_wrt_r(surface, cls) != truth:
                problems.append(
                    (f"(u,v)=({u},{v})", f"closed form says {not truth}, scan says {truth}")
                )
            y = ceil_div(-v, e + 1)
            if (v >= (e + 1) * u or v + e * y >= e * u - 1) != truth:
                variant_bad.append((u, v))
    out = _settle(name, surface, problems, (
        "169 classes", "the first-section slack criterion matches the scan everywhere"
    ))
    if variant_bad:
        u, v = variant_bad[0]
        out.append(Finding(
            name, e, DISCREPANCY,
            f"variant with e-scaled budget, first witness (u,v)=({u},{v})",
            f"scaling the twist budget by e mislabels {len(variant_bad)} of 169 classes; "
            "each ample twist buys one unit of slack, not e",
        ))
    return out


def _claim_direct_sum_splitting(surface: Surface) -> list[Finding]:
    """Two individually natural line bundles whose direct sum is not."""
    e = surface.e
    parts = [DivisorClass(0, 0), DivisorClass(-2, 4 - e)]
    v = scan_verdict(surface, DirectSum(tuple(parts)), surface.m_class()).verdict
    subject = f"{parts[0]} + {parts[1]}"
    problems = []
    if v.outcome is not Outcome.FAILS or v.witness_t != 0:
        problems.append((subject, f"expected failure at t=0, scan verdict is {v.outcome.value}"))
    return _settle("direct-sum-splitting", surface, problems, (
        subject,
        f"both summands are natural but the sum fails at t=0 with "
        f"(h0,h1)=({v.witness_h0},{v.witness_h1}); the property is not "
        "closed under direct sums",
    ))


def _claim_rank1_points(surface: Surface) -> list[Finding]:
    """Point schemes in general position never break the natural property
    of an effective-range line bundle, while points confined to a section
    or fiber curve do at small counts."""
    e, mm = surface.e, surface.m_class()

    def family(
        locus: Locus, cases: list[tuple[int, int, int]], expect_holds: bool, tag: str
    ) -> list[Finding]:
        bad = []
        for u, v, z in cases:
            model = IdealSheafModel(PointConfig(z=z, locus=locus), DivisorClass(u, v))
            if scan_verdict(surface, model, mm).verdict.holds() != expect_holds:
                bad.append((u, v, z))
        problems = []
        if bad:
            problems.append((f"{tag}: {bad}", f"expected holds={expect_holds} for the whole family"))
        return _settle("rank1-points", surface, problems, (
            f"{tag}: {len(cases)} instances", f"family behaves as claimed (holds={expect_holds})"
        ))

    general = [(u, e * u - 1 + k, z) for u in range(0, 4) for k in (0, 1) for z in (1, 3)]
    on_section = [(u, e * u - 1, z) for u in range(1, 4) for z in (1, 2)]
    on_fiber_hi = [(u, e * u + 1, z) for u in range(1, 4) for z in (2, 3)]
    on_fiber_eq = [(u, e * u, 3) for u in range(1, 4)]
    return (
        family(Locus.GENERAL, general, True, "general position, v >= eu-1")
        + family(Locus.ON_SECTION, on_section, False, "points on a section curve, v = eu-1")
        + family(Locus.ON_FIBER, on_fiber_hi, False, "points on a fiber, v = eu+1, z >= 2")
        + family(Locus.ON_FIBER, on_fiber_eq, False, "points on a fiber, v = eu, z = 3")
    )


def _random_sum(rng: random.Random) -> list[DivisorClass]:
    """randint(1, 4) summands of coordinates randint(-8, 8), drawn inline as
    `randint` draws (a test compares them): n.bit_length() bits until < n."""
    bits, coords = rng.getrandbits, []
    count = bits(3)
    while count >= 4:
        count = bits(3)
    while len(coords) < 2 * count + 2:
        r = bits(5)
        if r < 17:
            coords.append(r - 8)
    return [DivisorClass(coords[i], coords[i + 1]) for i in range(0, len(coords), 2)]


def _variant_sum_criterion(surface: Surface, classes: Sequence[DivisorClass]) -> bool:
    # same shape as the closed form, except the per-summand twist bound
    # reads u_i - m >= -1 instead of u_i + m >= -1
    e = surface.e
    ordered = sorted(classes, key=lambda c: (-c.a, -c.b))
    if any(c.b < e * c.a - 1 for c in ordered):
        return False
    top = ordered[0]
    m = -top.a if top.b >= e * top.a else -top.a + 1
    for c in ordered[1:]:
        if c.a - m >= -1:
            continue
        if -1 <= c.b - e * c.a <= e - 1:
            continue
        return False
    return True


def _claim_sum_criterion(surface: Surface) -> list[Finding]:
    """Sorted-summand criterion for direct sums w.r.t. M, against scans."""
    name = "sum-criterion"
    e, mm = surface.e, surface.m_class()
    rng = random.Random(1000 * e + 17)
    samples = [_random_sum(rng) for _ in range(120)]
    # known witness for the sign variant: second summand needs the band
    samples.append([DivisorClass(3, 3 * e + 1), DivisorClass(1, 2 * e)])
    problems = []
    variant_bad = []
    for classes in samples:
        truth = scan_verdict(surface, DirectSum(tuple(classes)), mm).verdict.holds()
        if direct_sum_natural_wrt_m(surface, classes) != truth:
            problems.append(
                (f"{[str(c) for c in classes]}", f"closed form says {not truth}, scan says {truth}")
            )
        if _variant_sum_criterion(surface, classes) != truth:
            variant_bad.append(classes)
    out = _settle(name, surface, problems, (
        f"{len(samples)} random sums", "sorted-summand criterion matches the scan on every sample"
    ))
    if variant_bad:
        out.append(Finding(
            name, e, DISCREPANCY,
            f"sign variant, first witness {[str(c) for c in variant_bad[0]]}",
            f"reading the twist bound as u_i - m mislabels {len(variant_bad)} of "
            f"{len(samples)} samples; the scanned ray starts at t = m, so the "
            "bound must read u_i + m >= -1",
        ))
    return out


def _claim_nonexistence_region(surface: Surface) -> list[Finding]:
    """The nonexistence threshold v = e(u-r+1)-2 is tight against both the
    rank-1 criterion and the rank-2 construction."""
    e = surface.e
    failures = []
    for u in range(-2, 5):
        for rank in (1, 2):
            thr = e * (u - rank + 1) - 2
            if not c1_obstructed(surface, rank, u, thr) or c1_obstructed(surface, rank, u, thr + 1):
                failures.append(f"rank {rank}, u={u}: threshold not sharp")
        # rank 1: the complementary side is exactly the natural range
        thr1 = e * u - 2
        if line_natural_wrt_m(surface, DivisorClass(u, thr1)):
            failures.append(f"rank 1, u={u}: obstructed class is natural")
        if not line_natural_wrt_m(surface, DivisorClass(u, thr1 + 1)):
            failures.append(f"rank 1, u={u}: unobstructed class is not natural")
        # rank 2: the construction accepts exactly the complementary side
        thr2 = e * (u - 1) - 2
        try:
            a_lo, _ = section_count_bounds(surface, u, thr2 + 1, 0)
            construct_extension(surface, u, thr2 + 1, 0, a_lo)
        except ConstructionError as err:
            failures.append(f"rank 2, u={u}: construction rejected ({err.reason})")
        try:
            construct_extension(surface, u, thr2, 0, 0)
            failures.append(f"rank 2, u={u}: construction accepted an obstructed class")
        except ConstructionError as err:
            if err.reason != "hypothesis_v":
                failures.append(f"rank 2, u={u}: wrong rejection {err.reason}")
    problems = [("; ".join(failures), "threshold checks failed")] if failures else []
    return _settle("nonexistence-region", surface, problems, (
        "u in [-2,4], ranks 1 and 2",
        "obstruction and existence meet at adjacent v on the whole sample",
    ))


def _stated_section_sums(e: int, u: int, v: int, m: int) -> tuple[int, int]:
    # bare arithmetic sums sometimes quoted for the construction bounds;
    # they lack the +1 per section-count term and the e-offset in the first
    a_sum = sum(v + 2 * m - 1 - i * e for i in range(u + 2 * m - 1))
    b_sum = sum(v + 2 * m - i * e for i in range(u + 2 * m))
    return a_sum, b_sum


def _claim_construction_bounds(surface: Surface) -> list[Finding]:
    """Section-count bounds, certificates, and Chern bookkeeping of the
    rank-2 construction."""
    name = "construction-bounds"
    e = surface.e
    vanishing = DivisorClass(1, 0)
    failures = []
    sum_mismatches = []
    checked = 0
    for u in range(0, 4):
        for dv in range(0, 4):
            v = e * (u - 1) - 1 + dv
            c1 = DivisorClass(u, v)
            for m in range(0, 3):
                a_lo, b_hi = section_count_bounds(surface, u, v, m)
                if a_lo > b_hi:
                    failures.append(f"(u,v,m)=({u},{v},{m}): bounds inverted")
                for s in {a_lo, b_hi}:
                    datum = construct_extension(surface, u, v, m, s)
                    # at t = m-1 the sub is (0,-e) and q0 = max(0, a_lo - s), so the
                    # box has no sections exactly when s >= a_lo
                    if datum.section_min != (cohomology_interval(datum, m - 1).h0_max == 0):
                        failures.append(f"(u,v,m,s)=({u},{v},{m},{s}): certificate false")
                    c2 = construction_c2(surface, u, v, m, s)
                    if datum.chern().c2 != c2:
                        failures.append(f"(u,v,m,s)=({u},{v},{m},{s}): c2 disagrees")
                    # the same bundle via its minimal-section presentation
                    if chern_of_extension(surface, vanishing, m, c1, s).c2 != c2:
                        failures.append(f"(u,v,m,s)=({u},{v},{m},{s}): presentation c2 disagrees")
                    checked += 1
                stated = _stated_section_sums(e, u, v, m)
                if stated != (a_lo, b_hi):
                    sum_mismatches.append((u, v, m, stated, a_lo, b_hi))
    problems = [(instance, "construction invariant failed") for instance in failures]
    out = _settle(name, surface, problems, (
        f"{checked} constructions",
        "bounds ordered, first-section certificate equivalent to s >= a_lo, "
        "and both Chern routes agree",
    ))
    if sum_mismatches:
        u, v, m, stated, a_lo, b_hi = sum_mismatches[0]
        out.append(Finding(
            name, e, DISCREPANCY,
            f"bare-sum variant, first witness (u,v,m)=({u},{v},{m})",
            f"bare arithmetic sums give {stated} but the section counts are "
            f"({a_lo},{b_hi}); {len(sum_mismatches)} grid points disagree because the "
            "sums drop the +1 per term and the e-offset",
        ))
    return out


def _claim_stability_exclusion(surface: Surface) -> list[Finding]:
    """Both polarizations certify the sample family, and the hypothesis
    warnings fire outside the certified range."""
    e = surface.e
    u, v = 3, 2 * e
    a_lo, b_hi = section_count_bounds(surface, u, v, 0)
    failures = []
    for s in {a_lo, b_hi}:
        datum = construct_extension(surface, u, v, 0, s)
        for pol in ("R", "M"):
            report = stability_certificate(datum, pol)
            if not report.certified:
                survivors = [str(c.cls) for c in report.candidates if c.reason is None]
                failures.append(f"s={s}, {pol}: survivors {survivors}")
            if report.warnings:
                failures.append(f"s={s}, {pol}: unexpected warnings {report.warnings}")
    warn_datum = construct_extension(
        surface, u, 2 * e * u, 0, section_count_bounds(surface, u, 2 * e * u, 0)[0]
    )
    if not stability_certificate(warn_datum, "R").warnings:
        failures.append(f"v=2eu={2 * e * u}: hypothesis warning did not fire")
    problems = [("; ".join(failures), "stability sample failed")] if failures else []
    return _settle("stability-exclusion", surface, problems, (
        f"(u,v)=({u},{v}), s in [{a_lo},{b_hi}] endpoints",
        "both polarizations certified by exclusion; warnings fire at v = 2eu",
    ))


def _claim_extension_natural(surface: Surface) -> list[Finding]:
    """The constructed extensions keep natural cohomology w.r.t. M.

    Fully checkable only at e = 1, where the long-exact-sequence boxes are
    exact.  At e >= 2 the sub side carries a constant h1 = e-1 > 0, so
    generic instances are indeterminate, and at e = 2 the boundary instance
    (u,v,m,s) = (2,1,0,0) is a forced split that genuinely fails.
    """
    name = "extension-natural"
    e = surface.e
    if e == 1:
        bad = []
        count = 0
        for u in range(1, 4):
            for v in range(e * (u - 1) - 1, 2 * u + 1):
                for m in range(0, 2):
                    a_lo, b_hi = section_count_bounds(surface, u, v, m)
                    for s in sorted({a_lo, (a_lo + b_hi) // 2, b_hi}):
                        datum = construct_extension(surface, u, v, m, s)
                        verdict = audit_extension_natural(datum).verdict
                        count += 1
                        if verdict.outcome is not Outcome.HOLDS:
                            bad.append((u, v, m, s, verdict.outcome.value))
        problems = [(f"{bad}", "expected Holds throughout")] if bad else []
        return _settle(name, surface, problems, (
            f"{count} constructions",
            "every audit returns Holds; at e=1 the boxes are exact, so "
            "this is a genuine verification",
        ))

    # e >= 2: the sub side obstructs a determinate verdict
    out = []
    if e == 2:
        verdict = audit_extension_natural(construct_extension(surface, 2, 1, 0, 0)).verdict
        if (
            verdict.outcome is Outcome.FAILS
            and verdict.witness_t == 0
            and (verdict.witness_h0, verdict.witness_h1) == (3, 1)
        ):
            detail = (
                "the boundary instance forces the split bundle, which has "
                "(h0,h1)=(3,1) at t=0; the blanket claim fails at e=2"
            )
        else:
            detail = f"expected a forced-split failure at t=0, got {verdict}"
        out.append(Finding(name, e, DISCREPANCY, "(u,v,m,s)=(2,1,0,0)", detail))
    probe = construct_extension(surface, 3, 3 * e - 3, 0, section_count_bounds(surface, 3, 3 * e - 3, 0)[0])
    probe_verdict = audit_extension_natural(probe).verdict
    out.append(Finding(
        name,
        e,
        INDETERMINATE if probe_verdict.outcome is Outcome.INDETERMINATE else DISCREPANCY,
        f"(u,v,m,s)=(3,{3 * e - 3},0,{probe.s})",
        f"the sub side keeps h1 = e-1 = {e - 1} > 0 at every twist past the "
        f"first section, so the audit returns {probe_verdict.outcome.value}; "
        "the claim is not desk-checkable at this e",
    ))
    return out


# ---------------------------------------------------------------------------
# registry and driver

CLAIMS: dict[str, Callable[[Surface], list[Finding]]] = {
    "ample-self-twists": _claim_ample_self_twists,
    "line-twist-criterion": _claim_line_twist_criterion,
    "line-ample-r-criterion": _claim_line_ample_r_criterion,
    "direct-sum-splitting": _claim_direct_sum_splitting,
    "rank1-points": _claim_rank1_points,
    "sum-criterion": _claim_sum_criterion,
    "nonexistence-region": _claim_nonexistence_region,
    "construction-bounds": _claim_construction_bounds,
    "stability-exclusion": _claim_stability_exclusion,
    "extension-natural": _claim_extension_natural,
}


def run_audit(
    e_values: Iterable[int] = (1, 2, 3, 4),
    claims: Optional[Iterable[str]] = None,
) -> tuple[Finding, ...]:
    """Run the selected claims over the selected surfaces, in stable order.

    Both arguments are collections; a bare string is refused, since it
    would be read one character at a time.
    """
    for name, value in (("e_values", e_values), ("claims", claims)):
        if isinstance(value, str):
            raise DomainError(f"{name} must be a collection, not the string {value!r}")
    if claims is None:
        selected = list(CLAIMS)
    else:
        selected = list(claims)
        unknown = [c for c in selected if c not in CLAIMS]
        if unknown:
            raise DomainError(
                f"unknown claim(s) {unknown}; valid: {', '.join(CLAIMS)}"
            )
    surfaces = [Surface(e) for e in e_values]
    findings = []
    for claim in selected:
        for surface in surfaces:
            findings.extend(CLAIMS[claim](surface))
    return tuple(findings)
