"""Rank-2 construction, cohomology boxes, stability, and the region map."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hirzebruch import (
    ChernData,
    ConstructionError,
    DivisorClass,
    DomainError,
    ExtensionDatum,
    Locus,
    Outcome,
    RegionLabel,
    Surface,
    Verdict,
    allowed_min_section_divisors,
    audit_extension_natural,
    c1_obstructed,
    chern_of_extension,
    chi,
    classify_region,
    cohomology_interval,
    construct_extension,
    construction_c2,
    extension_c2_twisted,
    h0,
    section_count_bounds,
    stability_certificate,
)
from hirzebruch.bundles import _c2_offset, _construction
from hirzebruch.cohomology import oracle_h0
from hirzebruch.picard import ceil_div
from hirzebruch.sheaves import IdealSheafModel, PointConfig, h0_ideal

surfaces = st.integers(min_value=1, max_value=4).map(Surface)


def build(e, u, v, m, s):
    return construct_extension(Surface(e), u, v, m, s)


# --- Chern bookkeeping


def test_allowed_min_section_divisors():
    assert allowed_min_section_divisors(Surface(1)) == [
        DivisorClass(0, 0),
        DivisorClass(1, 0),
        DivisorClass(0, 1),
    ]
    e3 = allowed_min_section_divisors(Surface(3))
    assert len(e3) == 7
    assert e3 == [
        DivisorClass(0, 0),
        DivisorClass(1, 0),
        DivisorClass(0, 1),
        DivisorClass(0, 2),
        DivisorClass(0, 3),
        DivisorClass(1, 1),
        DivisorClass(1, 2),
    ]


def test_chern_data_validation():
    with pytest.raises(DomainError):
        ChernData(rank=0, c1=DivisorClass(0, 0), c2=0)
    with pytest.raises(DomainError):
        ChernData(rank=1, c1=DivisorClass(0, 0), c2=-1)  # rank 1 has c2 = 0
    assert ChernData(rank=2, c1=DivisorClass(1, 1), c2=-3).c2 == -3


def test_twisted_c2_frozen():
    # e=2, vanishing class (1,0), c1=(2,3), m=1: D.c1 = -1, M.D = 0,
    # D^2 = -2, so c2 of the twisted bundle is s + 1
    surface = Surface(2)
    d = DivisorClass(1, 0)
    c1 = DivisorClass(2, 3)
    for s in (0, 1, 5):
        assert extension_c2_twisted(surface, d, 1, c1, s) == s + 1
    with pytest.raises(DomainError):
        extension_c2_twisted(surface, d, 1, c1, -1)


@pytest.mark.parametrize("bad", [1.5, 2.0, True])
def test_chern_formulas_take_integers_only(bad):
    # each integer argument, and each coordinate of a class argument, in
    # turn; a class argument is built inside the check, where its type
    # refuses the bad coordinate
    surface = Surface(1)
    calls = [
        (construction_c2, (2, 1, 0, 1)),
        (c1_obstructed, (2, 3, 2)),
        (extension_c2_twisted, ((1, 0), 1, (2, 3), 0)),
        (chern_of_extension, ((1, 0), 1, (2, 3), 0)),
    ]

    def call(fn, args):
        return fn(surface, *(DivisorClass(*a) if isinstance(a, tuple) else a for a in args))

    for fn, args in calls:
        call(fn, args)
        for i, arg in enumerate(args):
            swaps = [(bad, arg[1]), (arg[0], bad)] if isinstance(arg, tuple) else [bad]
            for swap in swaps:
                with pytest.raises(DomainError):
                    call(fn, (*args[:i], swap, *args[i + 1:]))


def test_untwisting_undoes_the_shift():
    # untwisted c2 = twisted c2 - m(M.c1) - m^2 e
    surface = Surface(2)
    d = DivisorClass(1, 0)
    c1 = DivisorClass(2, 3)
    data = chern_of_extension(surface, d, 1, c1, 4)
    assert data.c1 == c1
    assert data.c2 == (4 + 1) - 1 * 3 - 1 * 2


@settings(max_examples=200)
@given(
    surfaces,
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=-4, max_value=8),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=6),
)
def test_presentation_and_construction_c2_agree(surface, u, dv, m, s):
    # the twisted bundle's sub-line is always (1,0), so the minimal-section
    # route with that vanishing divisor must land on the construction's c2
    v = surface.e * (u - 1) - 1 + dv
    d = DivisorClass(1, 0)
    via_presentation = chern_of_extension(surface, d, m, DivisorClass(u, v), s).c2
    assert via_presentation == construction_c2(surface, u, v, m, s)


@settings(max_examples=300)
@given(
    surfaces,
    st.data(),
    st.integers(min_value=0, max_value=6),
    st.tuples(st.integers(min_value=-8, max_value=8), st.integers(min_value=-20, max_value=20)),
    st.integers(min_value=0, max_value=9),
)
def test_chern_formulas_match_their_intersection_forms(surface, data, m, c1, s):
    # the definitions, through the intersection form and M: the twisted c2
    # is D.c1 + 2m(M.D) - D^2 + s, and untwisting subtracts m(M.c1) + m^2 e
    vanishing = data.draw(st.sampled_from(allowed_min_section_divisors(surface)))
    c1, mm, meet = DivisorClass(*c1), surface.m_class(), surface.intersect
    twisted = meet(vanishing, c1) + 2 * m * meet(mm, vanishing) - meet(vanishing, vanishing) + s
    assert extension_c2_twisted(surface, vanishing, m, c1, s) == twisted
    chern = chern_of_extension(surface, vanishing, m, c1, s)
    assert (chern.rank, chern.c1) == (2, c1)
    assert chern.c2 == twisted - m * meet(mm, c1) - m * m * surface.e


def test_construction_c2_sums_no_sections(monkeypatch):
    # c2 needs the ends alone, so it evaluates no h0; the range, which
    # does, is `section_count_bounds`'s
    import hirzebruch.bundles as bundles

    summed = []
    real = bundles.sections

    def counting(*args):
        summed.append(args)
        return real(*args)

    monkeypatch.setattr(bundles, "sections", counting)
    surface = Surface(3)
    for u, v, m, s in [(2, 4, 1, 15), (3, 2, 0, 0), (0, -4, 2, 9)]:
        assert construction_c2(surface, u, v, m, s) == s + _c2_offset(3, u, v, m)
    assert summed == []
    section_count_bounds(surface, 2, 4, 1)
    assert len(summed) == 2


# --- admissible point counts


FROZEN_BOUNDS = [
    # (e, u, v, m, a_lo, b_hi)
    (1, 3, 2, 0, 3, 6),
    (1, 2, 1, 0, 1, 3),
    (1, 2, 1, 1, 6, 10),
    (1, 2, 1, 2, 15, 21),
    (1, 2, 1, 3, 28, 36),
    (2, 1, 0, 0, 0, 1),
    (2, 2, 1, 0, 0, 2),
    (3, 3, 6, 0, 5, 12),
]


@pytest.mark.parametrize("e,u,v,m,lo,hi", FROZEN_BOUNDS)
def test_frozen_section_bounds(e, u, v, m, lo, hi):
    assert section_count_bounds(Surface(e), u, v, m) == (lo, hi)


def test_section_bounds_reject_negative_m():
    with pytest.raises(DomainError):
        section_count_bounds(Surface(1), 2, 1, -1)


@settings(max_examples=200)
@given(
    surfaces,
    st.integers(min_value=-3, max_value=6),
    st.integers(min_value=-3, max_value=8),
    st.integers(min_value=0, max_value=3),
)
def test_the_construction_kernel_agrees_with_its_referees(surface, u, dv, m):
    # referees that share no formula with `_construction` and `_c2_offset`:
    # the sub line is O(h - mM), the ends add up to c1, the lattice-point
    # oracle counts the sections of the quotient class at twists m - 1 and
    # m, and c2 at s = 0 is the intersection of the ends
    e, mm = surface.e, surface.m_class()
    v = e * (u - 1) - 1 + dv
    sa, sb, qa, qb, a_lo, b_hi = _construction(e, u, v, m)
    c2_0 = _c2_offset(e, u, v, m)
    sub, quot = DivisorClass(sa, sb), DivisorClass(qa, qb)
    assert sub == DivisorClass(1, 0) - m * mm
    assert sub + quot == DivisorClass(u, v)
    assert a_lo == oracle_h0(surface, quot + (m - 1) * mm)
    assert b_hi == oracle_h0(surface, quot + m * mm)
    assert c2_0 == surface.intersect(sub, quot)


@settings(max_examples=200)
@given(
    surfaces,
    st.integers(min_value=-2, max_value=5),
    st.integers(min_value=-8, max_value=10),
    st.integers(min_value=0, max_value=3),
)
def test_bounds_are_ordered_and_h0_valued(surface, u, v, m):
    lo, hi = section_count_bounds(surface, u, v, m)
    e = surface.e
    assert 0 <= lo <= hi
    assert lo == h0(surface, DivisorClass(u + 2 * m - 2, v + 2 * m * e - e))
    assert hi == h0(surface, DivisorClass(u + 2 * m - 1, v + 2 * m * e))


# --- construction hypotheses


def test_construction_rejections_are_named():
    surface = Surface(2)
    with pytest.raises(ConstructionError) as info:
        construct_extension(surface, 3, 1, 0, 0)  # needs v >= 2*2-1 = 3
    assert info.value.reason == "hypothesis_v"
    with pytest.raises(ConstructionError) as info:
        construct_extension(surface, 2, 3, -1, 0)
    assert info.value.reason == "hypothesis_m"
    with pytest.raises(ConstructionError) as info:
        construct_extension(surface, 2, 3, 0, 99)
    assert info.value.reason == "s_out_of_range"
    with pytest.raises(ConstructionError) as info:
        construct_extension(surface, 2, 3, 0, -1)
    assert info.value.reason == "s_out_of_range"


def test_an_s_out_of_range_names_the_datum_range():
    # the range is the one a datum would hold as its s_range, and a
    # negative s, which no datum can hold, gets the same message
    surface = Surface(2)
    lo, hi = section_count_bounds(surface, 2, 3, 1)
    for s in (-1, lo - 1, hi + 1):
        with pytest.raises(ConstructionError) as info:
            construct_extension(surface, 2, 3, 1, s)
        assert info.value.reason == "s_out_of_range"
        assert str(info.value) == f"need {lo} <= s <= {hi}, got s = {s}"
    assert build(2, 2, 3, 1, lo).s_range == (lo, hi)


def test_a_refused_s_builds_no_datum(monkeypatch):
    built = Counter()
    for cls in (IdealSheafModel, ExtensionDatum):

        def counting(obj, *args, _init=cls.__init__, _name=cls.__name__):
            built[_name] += 1
            _init(obj, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    surface = Surface(2)
    lo, hi = section_count_bounds(surface, 2, 3, 1)
    assert lo >= 1
    for s in (-1, lo - 1, hi + 1):
        with pytest.raises(ConstructionError):
            construct_extension(surface, 2, 3, 1, s)
    assert built == Counter()
    construct_extension(surface, 2, 3, 1, lo)
    assert built == Counter(IdealSheafModel=1, ExtensionDatum=1)


def test_datum_shape():
    datum = build(1, 3, 2, 0, 3)
    assert datum.sub == DivisorClass(1, 0)
    assert datum.quotient.cls == DivisorClass(2, 2)
    assert datum.quotient.config == PointConfig(3, Locus.GENERAL)
    assert datum.c1() == DivisorClass(3, 2)
    chern = datum.chern()
    assert (chern.rank, chern.c1, chern.c2) == (2, DivisorClass(3, 2), 3)
    assert datum.section_min and datum.cayley_bacharach
    assert not datum.ext_forced_split


@settings(max_examples=200)
@given(
    surfaces,
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=2),
    st.data(),
)
def test_constructible_data_invariants(surface, u, dv, m, data):
    v = surface.e * (u - 1) - 1 + dv
    lo, hi = section_count_bounds(surface, u, v, m)
    s = data.draw(st.integers(min_value=lo, max_value=hi))
    datum = construct_extension(surface, u, v, m, s)
    assert datum.s_range == (lo, hi)
    # ends add up to c1, the twist only moves the splitting
    assert datum.sub + datum.quotient.cls == DivisorClass(u, v)
    assert datum.chern().c2 == construction_c2(surface, u, v, m, s)
    # an in-range point count always leaves the minimal-section and
    # point-condition certificates satisfied
    assert datum.section_min
    assert datum.cayley_bacharach
    if datum.ext_forced_split:
        assert s == 0


def test_hand_built_datum_derives_its_certificates():
    # the ends of the e = 2 forced split, but with a point: no split is forced
    surface = Surface(2)
    quotient = IdealSheafModel(PointConfig(1, Locus.GENERAL), DivisorClass(1, 1))
    datum = ExtensionDatum(surface, 0, DivisorClass(1, 0), quotient)
    assert (datum.u, datum.v, datum.s) == (2, 1, 1)
    assert not datum.ext_forced_split
    assert datum.section_min and datum.cayley_bacharach
    box = cohomology_interval(datum, 0)
    assert (box.h0_min, box.h1_min, box.h2_min) != (box.h0_max, box.h1_max, box.h2_max)
    # c1 and s come from the ends, and the certificates from all of them
    with pytest.raises(TypeError):
        ExtensionDatum(surface, 2, 1, 0, 1, DivisorClass(1, 0), quotient)
    with pytest.raises(TypeError):
        ExtensionDatum(surface, 0, DivisorClass(1, 0), quotient, True, True, True)


def test_cayley_bacharach_reads_the_datum_ends():
    # the condition concerns |L + K| with L = quot - sub, K = (-2, -e-2):
    # it holds for s general points iff h0(L + K) < s, whatever m says
    surface = Surface(1)
    for sub, quot, m, s, want in [
        # L + K = (0, 0): the constant section misses the point
        (DivisorClass(0, 0), DivisorClass(2, 3), 0, 1, False),
        # the construction's ends for (3, 2) at m = 0, declared at m = 1:
        # L + K = (-1, -1) has no section, so one point satisfies it
        (DivisorClass(1, 0), DivisorClass(2, 2), 1, 1, True),
    ]:
        datum = ExtensionDatum(surface, m, sub, IdealSheafModel(PointConfig(s, Locus.GENERAL), quot))
        assert datum.cayley_bacharach is want
        assert (h0(surface, quot - sub + surface.canonical_class()) < s) is want


def test_section_min_reads_the_construction_range():
    # s_range is the standard construction's at (u, v, m), whatever the
    # ends, and section_min compares s with it: for hand-built ends that
    # are not the construction's, it says nothing about their sections
    surface = Surface(1)
    quotient = IdealSheafModel(PointConfig(0, Locus.GENERAL), DivisorClass(1, 1))
    datum = ExtensionDatum(surface, 0, DivisorClass(-2, -3), quotient)
    assert datum.s_range == section_count_bounds(surface, -1, -2, 0) == (0, 0)
    assert datum.section_min
    assert cohomology_interval(datum, -1).h0_max == 1
    # constructed data: no section at the twist before m, on a grid
    for e in range(1, 4):
        surface = Surface(e)
        for u in range(0, 4):
            for v in range(e * (u - 1) - 1, e * (u - 1) + 4):
                for m in range(0, 3):
                    lo, hi = section_count_bounds(surface, u, v, m)
                    for s in {lo, (lo + hi) // 2, hi}:
                        datum = construct_extension(surface, u, v, m, s)
                        assert datum.s_range == (lo, hi)
                        assert datum.section_min
                        assert cohomology_interval(datum, m - 1).h0_max == 0, (e, u, v, m, s)


@pytest.mark.parametrize("bad", [1.5, 2.0, True])
def test_hand_built_datum_takes_integers_only(bad):
    # the point count, m and each end coordinate in turn; each end is built
    # inside the check, where its type refuses the bad value
    surface = Surface(1)
    ends = [1, 0, 2, 2]

    def build_datum(m=0, z=2, coords=ends):
        quotient = IdealSheafModel(PointConfig(z, Locus.GENERAL), DivisorClass(*coords[2:]))
        return ExtensionDatum(surface, m, DivisorClass(*coords[:2]), quotient)

    build_datum()
    for kwargs in ({"z": bad}, {"m": bad}):
        with pytest.raises(DomainError):
            build_datum(**kwargs)
    for i in range(4):
        coords = list(ends)
        coords[i] = bad
        with pytest.raises(DomainError):
            build_datum(z=0, coords=coords)


def test_replace_re_derives_the_certificates():
    surface = Surface(2)
    split = construct_extension(surface, 2, 1, 0, 0)
    assert (split.section_min, split.cayley_bacharach, split.ext_forced_split) == (True, True, True)
    # plant wrong derived values: a datum built from the planted one's ends
    # must not carry any of them over
    derived = ("u", "v", "s", "s_range", "section_min", "cayley_bacharach", "ext_forced_split")
    for name in derived:
        object.__setattr__(split, name, None)
    _, hi = section_count_bounds(surface, 2, 1, 0)
    assert hi >= 1
    for s in range(1, hi + 1):
        quotient = IdealSheafModel(PointConfig(s, Locus.GENERAL), split.quotient.cls)
        moved = ExtensionDatum(split.surface, split.m, split.sub, quotient)
        assert moved == construct_extension(surface, 2, 1, 0, s)
        assert (moved.u, moved.v, moved.s, moved.s_range) == (2, 1, s, (0, hi))
        assert (moved.section_min, moved.cayley_bacharach, moved.ext_forced_split) == (
            True, True, False,
        )
    ends = (split.surface, split.m, split.sub, split.quotient)
    for name in derived:
        with pytest.raises(TypeError):
            ExtensionDatum(*ends, **{name: True})


# --- cohomology boxes


def test_exact_box_at_e1():
    # sub (1,0) has no h1 on F_1, so the rows are exact there
    datum = build(1, 2, 1, 0, 2)
    box = cohomology_interval(datum, 0)
    lower, upper = (box.h0_min, box.h1_min, box.h2_min), (box.h0_max, box.h1_max, box.h2_max)
    assert lower == upper == (2, 0, 0)
    assert box.chi == 2


def test_forced_split_box_is_the_sum():
    datum = build(2, 2, 1, 0, 0)
    assert datum.ext_forced_split
    box = cohomology_interval(datum, 0)
    # O(1,0) + O(1,1) on F_2: h0 = 1 + 2, h1 = 1 + 0
    lower, upper = (box.h0_min, box.h1_min, box.h2_min), (box.h0_max, box.h1_max, box.h2_max)
    assert lower == upper == (3, 1, 0)


def test_unforced_box_is_wide_at_higher_e():
    # same boundary shape at e=3 is NOT forced: the connecting map can act
    datum = build(3, 2, 2, 0, 0)
    assert not datum.ext_forced_split
    box = cohomology_interval(datum, 0)
    assert (box.h0_min, box.h0_max) == (2, 4)
    assert box.h1_min == 0 and box.h1_max == 2


@settings(max_examples=150)
@given(
    surfaces,
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=-2, max_value=6),
)
def test_box_consistency(surface, u, dv, m, t):
    v = surface.e * (u - 1) - 1 + dv
    lo, hi = section_count_bounds(surface, u, v, m)
    datum = construct_extension(surface, u, v, m, lo)
    box = cohomology_interval(datum, t)
    assert box.h0_min <= box.h0_max
    assert box.h1_min <= box.h1_max
    assert box.h2_min <= box.h2_max
    # the lower corner, both connecting maps at maximal rank, has the box's chi
    assert box.h0_min - box.h1_min + box.h2_min == box.chi


def _hand_built_data(rng, count):
    """Extension data of every locus from random ends, forced splits among them."""
    data = []
    for _ in range(count):
        surface = Surface(rng.randint(1, 5))
        sub = DivisorClass(rng.randint(-8, 5), rng.randint(-25, 15))
        quot = DivisorClass(rng.randint(-8, 8), rng.randint(-25, 30))
        s = rng.choice([0, rng.randint(0, 4), rng.randint(0, 40)])
        locus = rng.choice(list(Locus))
        data.append(
            ExtensionDatum(surface, rng.randint(0, 8), sub, IdealSheafModel(PointConfig(s, locus), quot))
        )
    return data


def _constructed_data():
    """Standard constructions at both ends of their s range, forced splits among them."""
    data = []
    for e in (1, 2, 3):
        surface = Surface(e)
        for u in range(-2, 5):
            for m in range(0, 4):
                v = e * (u - 1) - 1 + (u + m) % 3
                for s in section_count_bounds(surface, u, v, m):
                    data.append(construct_extension(surface, u, v, m, s))
    return data


def test_box_kernel_is_the_interval():
    from hirzebruch.bundles import _box

    data = _constructed_data() + _hand_built_data(random.Random(15), 200)
    assert {datum.ext_forced_split for datum in data} == {False, True}
    for datum in data:
        for t in range(datum.m - 4, datum.m + 6):
            box = cohomology_interval(datum, t)
            bounds = (box.h0_min, box.h0_max, box.h1_min, box.h1_max, box.h2_min, box.h2_max)
            assert _box(datum, t) == (*bounds, box.chi)


def _hand_derived_window(datum):
    """(settle twist, audit window end) from the hand-derived cuts that
    `bundles` once wrote out per end class and per locus: the referee for
    the kernel-built `_settle_twist` and `_audit_scan_stop`."""
    e, qcls, s = datum.surface.e, datum.quotient.cls, datum.s
    settle = max(max(1 - cls.a, ceil_div(-cls.b, e)) for cls in (datum.sub, qcls))
    cuts = [datum.m, settle]
    if s > 0:
        locus = datum.quotient.config.locus
        if locus is Locus.GENERAL:
            cuts.append(ceil_div(s - 1 - qcls.b, e))
        elif locus is Locus.ON_FIBER:
            cuts.append(s - 1 - qcls.a)
            cuts.append(ceil_div(e * (s - 1) - qcls.b, e))
    return settle, max(cuts) + 1


def test_audit_window_is_the_hand_derived_one():
    import hirzebruch.bundles as bundles

    data = _constructed_data() + _hand_built_data(random.Random(17), 3000)
    assert {datum.quotient.config.locus for datum in data} == set(Locus)
    for datum in data:
        settle, stop = _hand_derived_window(datum)
        assert bundles._settle_twist(datum) == settle
        assert bundles._audit_scan_stop(datum, settle) == stop
        if datum.m < 4:
            audit = audit_extension_natural(datum)
            assert (audit.scan_start, audit.scan_stop) == (datum.m - 1, stop)


def test_the_audit_verdict_builds_no_box_and_no_row(monkeypatch):
    import hirzebruch.bundles as bundles

    built = Counter()
    for cls in (bundles.CohomologyInterval, bundles.ExtensionAuditRow):

        def counting(obj, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(obj, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    real = bundles._box
    twists = []
    monkeypatch.setattr(bundles, "_box", lambda datum, t: twists.append(t) or real(datum, t))
    data = _constructed_data() + _hand_built_data(random.Random(16), 200)
    outcomes = set()
    for datum in data:
        twists.clear()
        audit = audit_extension_natural(datum)
        start, settle = datum.m - 1, bundles._settle_twist(datum)
        # the settle prefix and the tail's first twist, in order, stopping
        # at a failure
        assert twists == list(range(start, start + len(twists)))
        if audit.verdict.outcome is Outcome.FAILS:
            assert twists[-1] == audit.verdict.witness_t
        else:
            assert len(twists) == max(1, settle - datum.m + 2)
        # the count the CLI budgets, read without evaluating a box
        assert len(twists) <= bundles.audit_boxes(datum) == max(1, settle - datum.m + 2)
        outcomes.add(audit.verdict.outcome)
    assert built == {}
    assert outcomes == set(Outcome)
    # the referee rows still build their boxes
    assert len(audit.rows) == built["ExtensionAuditRow"] == built["CohomologyInterval"]


def test_box_builds_one_record_and_no_triple(built, monkeypatch):
    # the two end classes are evaluated on coordinates, and the box is the
    # one record built: no class and no triple
    import hirzebruch.bundles as bundles

    init = bundles.CohomologyInterval.__init__

    def counting(box, *args):
        built["CohomologyInterval"] += 1
        init(box, *args)

    monkeypatch.setattr(bundles.CohomologyInterval, "__init__", counting)
    surface = Surface(2)
    u, v, m = 10_000, 30_000, 3
    far = construct_extension(surface, u, v, m, section_count_bounds(surface, u, v, m)[0])
    split = build(2, 2, 1, 0, 0)
    assert split.ext_forced_split
    for datum in (far, split):
        for t in range(-5, 25):
            built.clear()
            cohomology_interval(datum, t)
            assert built == {"CohomologyInterval": 1}


# --- the natural-cohomology audit


def test_audit_holds_on_the_first_surface():
    audit = audit_extension_natural(build(1, 3, 2, 0, 3))
    assert audit.verdict.outcome is Outcome.HOLDS
    assert audit.rows[0].t == audit.scan_start == -1
    assert all(row.outcome is Outcome.HOLDS for row in audit.rows)


def test_audit_catches_the_forced_split():
    audit = audit_extension_natural(build(2, 2, 1, 0, 0))
    assert audit.verdict.outcome is Outcome.FAILS
    assert audit.verdict.witness_t == 0
    assert (audit.verdict.witness_h0, audit.verdict.witness_h1) == (3, 1)


def test_audit_indeterminate_at_higher_e():
    surface = Surface(2)
    lo, _ = section_count_bounds(surface, 3, 3, 0)
    audit = audit_extension_natural(construct_extension(surface, 3, 3, 0, lo))
    assert audit.verdict.outcome is Outcome.INDETERMINATE


@settings(max_examples=100)
@given(
    st.integers(min_value=1, max_value=2).map(Surface),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=2),
    st.data(),
)
def test_audit_window_is_stable(surface, u, dv, m, data):
    v = surface.e * (u - 1) - 1 + dv
    lo, hi = section_count_bounds(surface, u, v, m)
    s = data.draw(st.integers(min_value=lo, max_value=hi))
    datum = construct_extension(surface, u, v, m, s)
    base = audit_extension_natural(datum)
    assert base.verdict == _walked_audit_verdict(datum, base.scan_start, base.scan_stop + 10)


def test_audit_rows_cover_the_window():
    datum = build(1, 2, 1, 1, 6)
    audit = audit_extension_natural(datum)
    ts = [row.t for row in audit.rows]
    assert ts[0] == datum.m - 1
    assert ts == list(range(audit.scan_start, audit.scan_stop + 1))


def _walked_audit_verdict(datum, lo, hi):
    """The aggregate rule applied to the LES boxes of the twists lo..hi,
    walked one by one: FAILS at the first box that forces h0 > 0 and
    h1 > 0; HOLDS when every box forces h1 = 0 or h0 = 0, the first has
    no sections and the last no h1; INDETERMINATE otherwise."""
    boxes = [(t, cohomology_interval(datum, t)) for t in range(lo, hi + 1)]
    for t, box in boxes:
        if box.h0_min > 0 and box.h1_min > 0:
            return Verdict(Outcome.FAILS, witness_t=t, witness_h0=box.h0_min, witness_h1=box.h1_min)
    if (
        all(box.h1_max == 0 or box.h0_max == 0 for _, box in boxes)
        and boxes[0][1].h0_max == 0
        and boxes[-1][1].h1_max == 0
    ):
        return Verdict(Outcome.HOLDS)
    return Verdict(Outcome.INDETERMINATE)


def _verdict_of_rows(audit):
    # the aggregate rule read off the materialized rows of the whole window
    rows = audit.rows
    assert [row.t for row in rows] == list(range(audit.scan_start, audit.scan_stop + 1))
    failing = next((row for row in rows if row.outcome is Outcome.FAILS), None)
    if failing is not None:
        box = failing.interval
        return Verdict(
            Outcome.FAILS, witness_t=failing.t, witness_h0=box.h0_min, witness_h1=box.h1_min
        )
    if (
        all(row.outcome is Outcome.HOLDS for row in rows)
        and rows[0].interval.h0_max == 0
        and rows[-1].interval.h1_max == 0
    ):
        return Verdict(Outcome.HOLDS)
    return Verdict(Outcome.INDETERMINATE)


def test_audit_verdict_is_the_verdict_of_its_rows():
    rng = random.Random(4)
    seen = set()
    for _ in range(150):
        surface = Surface(rng.randint(1, 4))
        e = surface.e
        u, m = rng.randint(-6, 6), rng.randint(0, 8)
        v = e * (u - 1) - 1 + rng.randint(0, 6)
        lo, hi = section_count_bounds(surface, u, v, m)
        datum = construct_extension(surface, u, v, m, rng.choice([lo, hi, rng.randint(lo, hi)]))
        audit = audit_extension_natural(datum)
        assert audit.verdict == _verdict_of_rows(audit)
        walked = _walked_audit_verdict(datum, audit.scan_start, audit.scan_stop + 5)
        assert audit.verdict == walked
        seen.add((datum.ext_forced_split, audit.verdict.outcome))
    assert {split for split, _ in seen} == {False, True}
    assert {outcome for _, outcome in seen} == set(Outcome)


@pytest.mark.parametrize("locus", list(Locus))
def test_hand_built_audit_verdict_is_the_verdict_of_its_rows(locus):
    rng = random.Random(locus.value)
    seen = set()
    # a forced split needs s = 0 and h1(sub - quot) = 0; one that holds
    # turns up only 3 to 9 times in 600 draws, by locus
    for _ in range(600):
        surface = Surface(rng.randint(1, 5))
        sub = DivisorClass(rng.randint(-8, 5), rng.randint(-25, 15))
        quot = DivisorClass(rng.randint(-8, 8), rng.randint(-25, 30))
        s = rng.choice([0, rng.randint(0, 4), rng.randint(0, 40)])
        datum = ExtensionDatum(
            surface, rng.randint(0, 8), sub, IdealSheafModel(PointConfig(s, locus), quot)
        )
        audit = audit_extension_natural(datum)
        assert audit.verdict == _verdict_of_rows(audit)
        walked = _walked_audit_verdict(datum, audit.scan_start, audit.scan_stop + 5)
        assert audit.verdict == walked
        seen.add((datum.ext_forced_split, audit.verdict.outcome))
    assert seen == {(split, outcome) for split in (False, True) for outcome in Outcome}


def test_audit_cost_does_not_grow_with_the_window(monkeypatch):
    import hirzebruch.bundles as bundles

    real = bundles._box
    twists = []
    monkeypatch.setattr(bundles, "_box", lambda datum, t: twists.append(t) or real(datum, t))
    outcomes = set()
    for e, u, v in [(1, 3, 2), (2, 3, 3)]:
        surface = Surface(e)
        for s in section_count_bounds(surface, u, v, 30):
            twists.clear()
            audit = audit_extension_natural(construct_extension(surface, u, v, 30, s))
            assert audit.scan_stop - audit.scan_start + 1 > 1000
            assert len(twists) < 100
            outcomes.add(audit.verdict.outcome)
    assert outcomes == set(Outcome)


# --- stability certificates


@pytest.mark.parametrize("bad", ["X", "r", "", None, 1])
def test_an_unknown_polarization_is_a_domain_error(bad):
    datum = build(1, 3, 2, 0, 3)
    with pytest.raises(DomainError, match=r"^polarization must be R or M, got "):
        stability_certificate(datum, bad)


def test_stability_certificate_frozen_instance():
    # the flagship instance: both polarizations certify, and the
    # half-slope box is exactly three classes
    for s in (3, 4, 5, 6):
        datum = build(1, 3, 2, 0, s)
        r_report = stability_certificate(datum, "R")
        assert r_report.certified
        assert [c.cls for c in r_report.candidates] == [
            DivisorClass(1, 2),
            DivisorClass(2, 1),
            DivisorClass(2, 2),
        ]
        assert all(c.reason == "genericity" for c in r_report.candidates)
        assert r_report.warnings == ()
        m_report = stability_certificate(datum, "M")
        assert m_report.certified
        assert all(c.reason is not None for c in m_report.candidates)
        assert any(c.tail for c in m_report.candidates)


def _maps_into(datum, n):
    # O(N) maps into the extension iff it maps into the sub (sub - N
    # effective) or into the quotient's ideal piece (a section of I_Z(quot - N))
    surface, n_cls = datum.surface, DivisorClass(*n)
    if surface.positivity(datum.sub - n_cls).effective:
        return True
    residual = IdealSheafModel(datum.quotient.config, datum.quotient.cls - n_cls)
    return h0_ideal(surface, residual) > 0


def _region_referee_data():
    rng = random.Random(10)
    for e in range(1, 4):
        surface = Surface(e)
        for u in range(-1, 7):
            for v in rng.sample(range(e * (u - 1) - 1, 2 * e * u + 4), 2):
                s = rng.randint(*section_count_bounds(surface, u, v, 0))
                yield construct_extension(surface, u, v, 0, s)
    # hand-built: two in three with arbitrary ends, the rest shaped like
    # a construction (a small sub class)
    for locus in Locus:
        for i in range(60):
            surface = Surface(rng.randint(1, 4))
            if i % 3:
                sub = DivisorClass(rng.randint(-4, 4), rng.randint(-6, 6))
                quot = DivisorClass(rng.randint(-4, 5), rng.randint(-6, 8))
            else:
                u = rng.randint(2, 5)
                sub = DivisorClass(rng.randint(-1, 1), rng.randint(-2, 0))
                quot = DivisorClass(u - sub.a, rng.randint(surface.e * (u - 1), 2 * surface.e * u))
            s = rng.choice([0, rng.randint(0, 3), rng.randint(0, 15)])
            yield ExtensionDatum(surface, 0, sub, IdealSheafModel(PointConfig(s, locus), quot))


def test_stability_region_is_complete():
    # a brute referee of the slope region: every class of a window derived
    # from the datum's coefficients is judged with the public h0, h0_ideal
    # and positivity.  The window reaches past the candidate box above and
    # below every M tail; inside it, the certificate holds exactly when no
    # slope-qualifying class maps into E, every listed class qualifies and
    # carries the right reason, and every other qualifying class lies below
    # the tail entry of its delta and maps exactly when that tail does.
    seen = set()
    for datum in _region_referee_data():
        surface, sub, quot = datum.surface, datum.sub, datum.quotient.cls
        span = abs(sub.a) + abs(sub.b) + abs(quot.a) + abs(quot.b) + 2
        window = range(-2 * span, span + 3)
        maps = {}
        for pol in ("R", "M"):
            if pol == "R":
                qualifying = [
                    (g, d) for g in window for d in window if 2 * (g + d) >= datum.u + datum.v
                ]
            else:
                qualifying = [(g, d) for g in window for d in window if 2 * d >= datum.v]
            for n in qualifying:
                if n not in maps:
                    maps[n] = _maps_into(datum, n)
            report = stability_certificate(datum, pol)
            listed = {(c.cls.a, c.cls.b): c for c in report.candidates}
            tails = {c.cls.b: c for c in report.candidates if c.tail}
            where = (surface.e, sub, datum.quotient, pol)
            assert set(listed) <= set(qualifying), where
            assert all(tail.cls.a > window[0] for tail in tails.values()), where
            assert report.certified == (not any(maps[n] for n in qualifying)), where
            for n in qualifying:
                if n in listed:
                    reason = listed[n].reason
                    residual = quot - DivisorClass(*n)
                    if maps[n]:
                        assert reason is None, (where, n)
                    elif h0(surface, residual) > 0:
                        assert reason == "genericity", (where, n)
                    else:
                        assert reason == "no_map", (where, n)
                elif n[1] in tails and n[0] < tails[n[1]].cls.a:
                    assert maps[n] == (tails[n[1]].reason is None), (where, n)
                else:
                    assert not maps[n], (where, n)
            seen.add((pol, report.certified, datum.quotient.config.locus))
    assert {(pol, certified) for pol, certified, _ in seen} == {
        (pol, certified) for pol in ("R", "M") for certified in (False, True)
    }
    # every locus certifies somewhere, though points confined to a section
    # never do under M: down the first column the residual's h0 grows
    # without bound and their capacity does not
    assert {locus for _, certified, locus in seen if certified} == set(Locus)


def test_m_tail_entries_are_really_frozen():
    # walking gamma further down past a tail marker never changes the
    # exclusion ingredients
    datum = build(1, 3, 2, 0, 3)
    surface = datum.surface
    report = stability_certificate(datum, "M")
    for cand in report.candidates:
        if not cand.tail:
            continue
        delta = cand.cls.b
        probes = [cand.cls.a, cand.cls.a - 1, cand.cls.a - 7]
        states = set()
        for gamma in probes:
            n_cls = DivisorClass(gamma, delta)
            residual = datum.quotient.cls - n_cls
            shifted = IdealSheafModel(datum.quotient.config, residual)
            states.add(
                (
                    surface.positivity(datum.sub - n_cls).effective,
                    h0_ideal(surface, shifted) > 0,
                    h0(surface, residual) > 0,
                )
            )
        assert len(states) == 1


def test_stability_requires_untwisted_presentation():
    datum = build(1, 2, 1, 1, 6)
    with pytest.raises(DomainError):
        stability_certificate(datum, "R")


def test_stability_warnings():
    surface = Surface(1)
    # v = 2eu violates the strict slope hypothesis
    lo, _ = section_count_bounds(surface, 3, 6, 0)
    loud = stability_certificate(construct_extension(surface, 3, 6, 0, lo), "R")
    assert loud.warnings
    # u below 3 is outside the certified range
    lo, _ = section_count_bounds(surface, 2, 3, 0)
    small = stability_certificate(construct_extension(surface, 2, 3, 0, lo), "M")
    assert any("u = 2" in w for w in small.warnings)
    with pytest.raises(ValueError):
        stability_certificate(build(1, 3, 2, 0, 3), "Q")


@pytest.mark.parametrize("e", [2, 3, 4])
def test_stability_certifies_across_surfaces(e):
    surface = Surface(e)
    u, v = 3, 2 * e
    lo, hi = section_count_bounds(surface, u, v, 0)
    for s in (lo, hi):
        datum = construct_extension(surface, u, v, 0, s)
        assert stability_certificate(datum, "R").certified
        assert stability_certificate(datum, "M").certified


def test_stability_verdict_agrees_with_the_full_enumeration(exclusion_calls):
    # the verdict is read off the boundary of the slope region and the
    # candidate list enumerates the whole region, so each referees the
    # other.  Every c1 with u <= 3 (all uncertified data seen lie there)
    # and three seeded v per (e, u) above, each with a seeded s.  The
    # classes the verdict checks are pinned as well: under M the tail of
    # the first column alone; under R at most 11 classes, each on the
    # segment gamma + delta = ceil((u+v)/2) of the region, ending at the
    # first survivor when there is one
    rng = random.Random(8)
    uncertified = 0
    for e in range(1, 6):
        surface = Surface(e)
        for u in range(-2, 15):
            vs = range(e * (u - 1) - 3, 2 * e * u + 4)
            for v in vs if u <= 3 else rng.sample(vs, 3):
                if v < e * (u - 1) - 1:
                    with pytest.raises(ConstructionError):
                        construct_extension(surface, u, v, 0, 0)
                    continue
                s = rng.randint(*section_count_bounds(surface, u, v, 0))
                datum = construct_extension(surface, u, v, 0, s)
                for pol in ("R", "M"):
                    exclusion_calls.clear()
                    report = stability_certificate(datum, pol)
                    checked = list(exclusion_calls)
                    candidates = report.candidates
                    survivors = [c.cls for c in candidates if c.reason is None]
                    where = (e, u, v, s, pol)
                    least = {}
                    for cand in candidates:  # sorted by (a, b)
                        least.setdefault(cand.cls.b, cand)
                    boundary = {(c.cls.a, c.cls.b): c for c in least.values()}
                    if pol == "M":
                        first = least[min(least)] if least else None
                        assert first is None or first.tail, where
                        want = [] if first is None else [(first.cls.a, first.cls.b)]
                        assert checked == want, where
                    else:
                        threshold = ceil_div(u + v, 2)
                        assert len(checked) <= 11, where
                        for n in checked:
                            assert sum(n) == threshold and n in boundary, (where, n)
                        reasons = [boundary[n].reason for n in checked]
                        assert None not in reasons[:-1], where
                        assert report.certified == (None not in reasons), where
                    assert report.candidate_count == len(candidates), where
                    # a certified report has no survivor at all, so none
                    # with both coordinates positive either
                    assert report.certified == (not survivors), where
                    uncertified += not report.certified
    assert uncertified >= 100


def _wide_referee_data():
    # hand-built data of every locus, far from the construction's shape,
    # with coordinates up to 60 in size and up to 40 points.  Every other
    # datum has quot.a + quot.b a little above sub.a + sub.b, so that the
    # R segment is short in A + B and a survivor on it, if any, is rare
    rng = random.Random(25)
    for locus in Locus:
        for i in range(40):
            surface = Surface(rng.randint(1, 6))
            sub = DivisorClass(rng.randint(-60, 60), rng.randint(-60, 60))
            qa = rng.randint(-60, 60)
            if i % 2:
                qb = rng.randint(-60, 60)
            else:
                qb = max(-60, min(60, sub.a + sub.b - qa + rng.randint(0, 10)))
            z = rng.choice([0, rng.randint(0, 40)])
            quot = IdealSheafModel(PointConfig(z, locus), DivisorClass(qa, qb))
            yield ExtensionDatum(surface, 0, sub, quot)


def test_stability_closed_forms_agree_with_the_column_walk():
    # the verdict's bounded boundary and the closed-form counts against
    # the full listing of the region, which walks every column
    outcomes = set()
    for datum in (*_region_referee_data(), *_wide_referee_data()):
        for pol in ("R", "M"):
            report = stability_certificate(datum, pol)
            candidates = report.candidates
            where = (datum.surface.e, datum.sub, datum.quotient, pol)
            assert report.certified == all(c.reason is not None for c in candidates), where
            assert report.candidate_count == len(candidates), where
            outcomes.add((pol, report.certified, datum.quotient.config.locus))
    assert {(pol, certified) for pol, certified, _ in outcomes} == {
        (pol, certified) for pol in "RM" for certified in (False, True)
    }
    for certified in (False, True):
        assert {locus for _, c, locus in outcomes if c == certified} == set(Locus)


@pytest.mark.parametrize("u", [3, 100])
def test_stability_verdict_cost_does_not_grow_with_the_region(exclusion_calls, u):
    surface = Surface(1)
    datum = construct_extension(surface, u, u, 0, section_count_bounds(surface, u, u, 0)[0])
    # one class under M, at most 11 under R, whatever the size of the region
    cases = [("M", 1, {3: 8, 100: 5151}), ("R", 11, {3: 6, 100: 5050})]
    for pol, most, listed in cases:
        exclusion_calls.clear()
        report = stability_certificate(datum, pol)
        assert report.certified
        assert 1 <= len(exclusion_calls) <= most
        # the list still pays one call per candidate; the count pays none
        exclusion_calls.clear()
        assert report.candidate_count == listed[u]
        assert exclusion_calls == []
        assert len(report.candidates) == len(exclusion_calls) == listed[u]


def test_stability_answers_do_not_grow_with_the_coefficients(exclusion_calls, monkeypatch):
    # e = 1, u = v, s = a_lo: the R verdict makes the same number of
    # `_exclusion` calls, at most 11, at every size, and both counts read
    # no column (`first`, the region's per-column rule, is never called);
    # u = 100 ties the counts' pattern to the listing above
    import hirzebruch.bundles as bundles

    real, columns = bundles._region, []

    def region(datum, pol):
        deltas, gamma_max, first, freeze = real(datum, pol)
        return deltas, gamma_max, lambda delta: columns.append(delta) or first(delta), freeze

    monkeypatch.setattr(bundles, "_region", region)
    surface, calls = Surface(1), set()
    for u in (100, 10**3, 10**6, 10**12):
        datum = construct_extension(surface, u, u, 0, section_count_bounds(surface, u, u, 0)[0])
        exclusion_calls.clear()
        r_report = stability_certificate(datum, "R")
        calls.add(len(exclusion_calls))
        m_report = stability_certificate(datum, "M")
        assert r_report.certified and m_report.certified
        columns.clear()
        assert r_report.candidate_count == u * (u + 1) // 2
        assert m_report.candidate_count == (u + 1) * (u + 2) // 2
        assert columns == []
    assert len(calls) == 1 and 1 <= min(calls) <= 11


def test_stability_audit_cost_grows_linearly_in_e(exclusion_calls):
    from hirzebruch.audit import run_audit

    e = 400
    (finding,) = run_audit([e], ["stability-exclusion"])
    assert finding.status == "agrees"
    assert len(exclusion_calls) <= 20 * e

# --- region classifier


def test_region_thresholds():
    surface = Surface(2)
    # rank 2: boundary between v = e(u-1)-2 and e(u-1)-1
    assert c1_obstructed(surface, 2, 3, 2)
    assert not c1_obstructed(surface, 2, 3, 3)
    # rank 1: boundary shifts by e
    assert c1_obstructed(surface, 1, 3, 4)
    assert not c1_obstructed(surface, 1, 3, 5)
    with pytest.raises(DomainError):
        c1_obstructed(surface, 0, 1, 1)


def test_classifier_rejects_bad_inputs():
    surface = Surface(1)
    with pytest.raises(DomainError):
        classify_region(surface, 3, (0, 1), (0, 1))
    with pytest.raises(DomainError):
        classify_region(surface, 2, (1, 0), (0, 1))
    with pytest.raises(DomainError):
        classify_region(surface, 2, (0, 1), (0, 1), m_max=-1)


@pytest.mark.parametrize("bad", [(0, 1, 2), (0,), 5, None, "01"])
def test_classifier_ranges_are_pairs(bad):
    surface = Surface(1)
    for ranges in [(bad, (0, 1)), ((0, 1), bad)]:
        with pytest.raises(DomainError):
            classify_region(surface, 2, *ranges)
    assert classify_region(surface, 2, [0, 1], [0, 1]) == classify_region(surface, 2, (0, 1), (0, 1))


@pytest.mark.parametrize("bad", [1.5, 2.0, True])
def test_classifier_takes_integers_only(bad):
    surface = Surface(1)
    with pytest.raises(DomainError):
        classify_region(surface, bad, (0, 1), (0, 1))
    for ranges in [((bad, 1), (0, 1)), ((0, bad), (0, 1)), ((0, 1), (bad, 1)), ((0, 1), (0, bad))]:
        with pytest.raises(DomainError):
            classify_region(surface, 2, *ranges)
    with pytest.raises(DomainError):
        classify_region(surface, 2, (0, 1), (0, 1), m_max=bad)


def test_flagship_c2_witness():
    cells = classify_region(Surface(1), 2, (2, 2), (1, 1), m_max=3)
    assert len(cells) == 1
    assert cells[0].label is RegionLabel.EXISTENT
    assert cells[0].witness == ((1, 24),)


def test_witness_intervals_before_merging():
    # the same instance at m_max=0..2 shows the merging is doing real work
    assert classify_region(Surface(1), 2, (2, 2), (1, 1), 0)[0].witness == ((1, 3),)
    assert classify_region(Surface(1), 2, (2, 2), (1, 1), 1)[0].witness == ((1, 8),)
    assert classify_region(Surface(1), 2, (2, 2), (1, 1), 2)[0].witness == ((1, 15),)


def test_adjacent_intervals_merge():
    # consecutive twists always touch when v + e(2m+1) + 1 >= 0: the next
    # lower bound exceeds the previous upper bound by exactly that amount
    assert classify_region(Surface(2), 2, (3, 3), (3, 3), 1)[0].witness == ((1, 14),)
    assert classify_region(Surface(3), 2, (3, 3), (5, 5), 1)[0].witness == ((2, 21),)


def test_interval_merging_handles_gaps():
    # deep negative v does produce disjoint c2 intervals: s = 0 is the
    # only admissible count, so each twist contributes a single point
    cells = classify_region(Surface(1), 2, (-3, -3), (-5, -5), 2)
    assert cells[0].witness == ((-1, -1), (3, 3), (5, 5))


@settings(max_examples=120)
@given(
    surfaces,
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=-3, max_value=5),
    st.integers(min_value=-8, max_value=10),
)
def test_partition_is_exact(surface, rank, u, v):
    cells = classify_region(surface, rank, (u, u), (v, v))
    cell = cells[0]
    assert cell.label in {RegionLabel.NONEXISTENT, RegionLabel.EXISTENT}
    threshold = surface.e * (u - rank + 1) - 1
    if v <= threshold - 1:
        assert cell.label is RegionLabel.NONEXISTENT
        assert cell.witness == ()
    else:
        assert cell.label is RegionLabel.EXISTENT
        assert cell.witness != ()
