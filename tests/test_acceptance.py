"""End-to-end acceptance checks.

One test per criterion; `pytest -v` prints one pass/fail line for each.
Every numeric expectation here is exact (integer arithmetic throughout);
the two timed checks carry explicit wall-clock budgets.
"""

import random
import time

import pytest

from hirzebruch import (
    DirectSum,
    DivisorClass,
    IdealSheafModel,
    Line,
    Locus,
    Outcome,
    PointConfig,
    RegionLabel,
    Surface,
    audit_extension_natural,
    chi,
    classify_region,
    construct_extension,
    direct_sum_natural_wrt_m,
    h0,
    h1,
    h1_vanishes,
    h2,
    line_natural_wrt_m,
    line_natural_wrt_r,
    line_unconditional_wrt_m,
    oracle_h0,
    run_audit,
    scan_verdict,
    section_count_bounds,
    stability_certificate,
    unconditional_scan,
)


def test_c01_oracle_grid_exact_under_5s():
    # closed forms against the lattice count on the full grid
    started = time.monotonic()
    checked = 0
    for e in range(1, 6):
        surface = Surface(e)
        k = surface.canonical_class()
        for a in range(-8, 11):
            for b in range(-15, 21):
                c = DivisorClass(a, b)
                v0, v1, v2 = h0(surface, c), h1(surface, c), h2(surface, c)
                assert v0 == oracle_h0(surface, c)
                assert v2 == oracle_h0(surface, k - c)
                assert v0 - v1 + v2 == chi(surface, c)
                assert h1_vanishes(surface, c) == (v1 == 0)
                checked += 1
    elapsed = time.monotonic() - started
    assert checked == 5 * 19 * 36
    assert elapsed < 5.0, f"oracle grid took {elapsed:.2f}s"


def test_c02_line_criteria_match_scans_under_10s():
    started = time.monotonic()
    for e in range(1, 5):
        surface = Surface(e)
        m = surface.m_class()
        for u in range(-12, 13):
            for v in range(-12, 13):
                cls = DivisorClass(u, v)
                one_sided = scan_verdict(surface, Line(cls), m).verdict.holds()
                assert line_natural_wrt_m(surface, cls) == one_sided, (e, u, v)
                two_sided = unconditional_scan(surface, Line(cls), m).verdict.holds()
                assert line_unconditional_wrt_m(surface, cls) == two_sided, (e, u, v)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"line criterion grid took {elapsed:.2f}s"


def test_c03_ample_twist_criterion_matches_scans():
    for e in range(1, 5):
        surface = Surface(e)
        r = surface.r_class()
        for u in range(-12, 13):
            for v in range(-12, 13):
                cls = DivisorClass(u, v)
                scanned = scan_verdict(surface, Line(cls), r).verdict.holds()
                assert line_natural_wrt_r(surface, cls) == scanned, (e, u, v)


def test_c04_ample_powers_keep_two_sided_vanishing():
    rng = random.Random(20260818)
    seen = 0
    while seen < 20:
        e = rng.randint(1, 4)
        surface = Surface(e)
        a = rng.randint(1, 3)
        ample = DivisorClass(a, a * e + rng.randint(1, 5))
        assert surface.positivity(ample).ample
        fat = ample + DivisorClass(0, 2)
        for t in range(1, 6):
            power = Line(t * ample)
            assert unconditional_scan(surface, power, ample).verdict.holds()
            assert not unconditional_scan(surface, power, fat).verdict.holds()
        seen += 1
    # the auditor notices that ampleness is not needed for the twisting
    # class: a spanned non-ample class passes the same two-sided check
    findings = run_audit(e_values=(2,), claims=["ample-self-twists"])
    flagged = [f for f in findings if f.status == "discrepancy"]
    assert flagged and "(1,3)" in flagged[0].subject


def test_c05_sum_criterion_on_random_sums():
    rng = random.Random(97)
    for _ in range(1000):
        e = rng.randint(1, 4)
        surface = Surface(e)
        classes = [
            DivisorClass(rng.randint(-12, 12), rng.randint(-12, 12))
            for _ in range(rng.randint(1, 5))
        ]
        closed = direct_sum_natural_wrt_m(surface, classes)
        scanned = scan_verdict(
            surface, DirectSum(tuple(classes)), surface.m_class()
        ).verdict.holds()
        assert closed == scanned, (e, classes)
    # trivial-plus-deficient counterexample family: both summands pass
    # individually, the sum fails at t=0 on every surface
    for e in range(1, 5):
        surface = Surface(e)
        pair = [DivisorClass(0, 0), DivisorClass(-2, 4 - e)]
        assert all(line_natural_wrt_m(surface, c) for c in pair)
        evidence = scan_verdict(surface, DirectSum(tuple(pair)), surface.m_class())
        assert evidence.verdict.witness_t == 0
        assert (evidence.verdict.witness_h0, evidence.verdict.witness_h1) == (1, 5)


def test_c06_point_position_families():
    def verdict(surface, locus, z, u, v):
        model = IdealSheafModel(PointConfig(z=z, locus=locus), DivisorClass(u, v))
        return scan_verdict(surface, model, surface.m_class()).verdict.holds()

    for e in range(1, 5):
        surface = Surface(e)
        for u in range(0, 5):
            for z in range(1, 6):
                # general position is natural on the whole slack range
                for v in (e * u - 1, e * u, e * u + 3):
                    assert verdict(surface, Locus.GENERAL, z, u, v), (e, u, z, v)
                # points on the negative section: every section of the
                # boundary-slack class vanishes on the curve, so any
                # point there is wasted
                assert not verdict(surface, Locus.ON_SECTION, z, u, e * u - 1), (e, u, z)
                # points on one fiber: the restriction saturates
                if z >= 2:
                    assert not verdict(surface, Locus.ON_FIBER, z, u, e * u + 1), (e, u, z)
                if z >= 3:
                    assert not verdict(surface, Locus.ON_FIBER, z, u, e * u), (e, u, z)


def test_c07_region_partition_and_certificates():
    for e in range(1, 5):
        surface = Surface(e)
        cells = classify_region(surface, 2, (-3, 6), (-10, 14))
        assert len(cells) == 10 * 25
        for cell in cells:
            assert cell.label in {RegionLabel.NONEXISTENT, RegionLabel.EXISTENT}
            boundary = e * (cell.u - 1) - 1
            if cell.v <= boundary - 1:
                assert cell.label is RegionLabel.NONEXISTENT
            else:
                assert cell.label is RegionLabel.EXISTENT
                lo, hi = section_count_bounds(surface, cell.u, cell.v, 0)
                assert 0 <= lo <= hi
                # first-section certificate is equivalent to s >= lo
                datum = construct_extension(surface, cell.u, cell.v, 0, lo)
                assert datum.section_min
                before = h0(
                    surface, DivisorClass(cell.u - 2, cell.v - e)
                )
                assert before == lo
                if lo > 0:
                    assert not before <= lo - 1


def test_c08_extension_audit_determinate_part():
    surface = Surface(1)
    audited = 0
    for u in range(1, 6):
        for v in range(u - 2, 2 * u + 1):
            for m in range(0, 3):
                lo, hi = section_count_bounds(surface, u, v, m)
                for s in range(lo, hi + 1):
                    datum = construct_extension(surface, u, v, m, s)
                    outcome = audit_extension_natural(datum).verdict.outcome
                    assert outcome is Outcome.HOLDS, (u, v, m, s)
                    audited += 1
    assert audited > 500

    # the e=2 boundary instance is forced split and genuinely fails;
    # the auditor records it as an expected finding
    boundary = construct_extension(Surface(2), 2, 1, 0, 0)
    verdict = audit_extension_natural(boundary).verdict
    assert verdict.outcome is Outcome.FAILS
    assert verdict.witness_t == 0
    assert (verdict.witness_h0, verdict.witness_h1) == (3, 1)
    findings = run_audit(e_values=(2,), claims=["extension-natural"])
    assert any(f.status == "discrepancy" for f in findings)


def test_c09_stability_certificates():
    surface = Surface(1)
    for s in range(3, 7):
        datum = construct_extension(surface, 3, 2, 0, s)
        r_report = stability_certificate(datum, "R")
        m_report = stability_certificate(datum, "M")
        assert r_report.certified and m_report.certified
        assert r_report.warnings == () and m_report.warnings == ()
        assert [(c.cls.a, c.cls.b) for c in r_report.candidates] == [
            (1, 2), (2, 1), (2, 2),
        ]
        for cand in r_report.candidates:
            assert cand.reason == "genericity"
            # excluded because the residual system has fewer than s+1
            # sections, so s general points absorb it
            residual = datum.quotient.cls - cand.cls
            assert 0 < h0(surface, residual) < s + 1
    # hypothesis warning fires on the slope boundary v = 2eu
    lo, _ = section_count_bounds(surface, 3, 6, 0)
    loud = stability_certificate(construct_extension(surface, 3, 6, 0, lo), "R")
    assert any("2eu" in w for w in loud.warnings)


def test_c10_c2_coverage_witness():
    cells = classify_region(Surface(1), 2, (2, 2), (1, 1), m_max=3)
    assert len(cells) == 1
    assert cells[0].label is RegionLabel.EXISTENT
    assert cells[0].witness == ((1, 24),)
