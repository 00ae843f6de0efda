"""Ideal sheaf models: section counts with point conditions."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hirzebruch import (
    DivisorClass,
    DomainError,
    IdealSheafModel,
    Locus,
    PointConfig,
    Surface,
    chi,
    h0,
    h1,
    h2,
)
from hirzebruch.cohomology import counts
from hirzebruch.sheaves import (
    h0_ideal,
    h1_ideal,
    h2_ideal,
    ideal_counts,
    ideal_sections,
    ideal_sections_twist,
    max_conditions,
    restriction_degree,
)

surfaces = st.integers(min_value=1, max_value=4).map(Surface)
small = st.integers(min_value=-6, max_value=8)
classes = st.builds(DivisorClass, small, small)
loci = st.sampled_from(list(Locus))
zs = st.integers(min_value=0, max_value=9)


def model(locus, z, a, b):
    return IdealSheafModel(PointConfig(z=z, locus=locus), DivisorClass(a, b))


def test_point_config_rejects_negative_count():
    with pytest.raises(DomainError):
        PointConfig(z=-1, locus=Locus.GENERAL)


@pytest.mark.parametrize("bad", ["general", None, 0])
def test_point_config_rejects_a_locus_that_is_not_a_locus(bad):
    # refused where it is stored, with the value named, not as a KeyError
    # from a lookup deep in the ideal count
    match = rf"^point locus must be a Locus, got {bad!r}$"
    with pytest.raises(DomainError, match=match):
        h0_ideal(Surface(1), IdealSheafModel(PointConfig(2, bad), DivisorClass(1, 1)))


def test_restriction_degrees():
    surface = Surface(2)
    cls = DivisorClass(3, 4)
    # degree on the negative section is b - e*a, on a fiber it is a
    assert restriction_degree(surface, cls, Locus.ON_SECTION) == -2
    assert restriction_degree(surface, cls, Locus.ON_FIBER) == 3
    with pytest.raises(DomainError):
        restriction_degree(surface, cls, Locus.GENERAL)


@pytest.mark.parametrize("bad", ["fiber", "section", "general", None, 0])
def test_restriction_degree_rejects_a_locus_that_is_not_a_locus(bad):
    # worded like `PointConfig`'s refusal, not a KeyError from the curve lookup
    match = rf"^point locus must be a Locus, got {bad!r}$"
    with pytest.raises(DomainError, match=match):
        restriction_degree(Surface(1), DivisorClass(1, 1), bad)


# frozen (e, locus, z, a, b, h0_ideal, h1_ideal), hand-computed:
# for a curve locus, sections not vanishing on the whole curve see the
# points through the restricted system of rank r = h0(c) - h0(c - C)
FROZEN = [
    (1, Locus.GENERAL, 1, 1, 1, 2, 0),
    (1, Locus.GENERAL, 3, 1, 1, 0, 0),
    (1, Locus.GENERAL, 5, 1, 1, 0, 2),   # 5 points overload h0 = 3
    (1, Locus.ON_SECTION, 2, 2, 2, 5, 1),  # restriction degree 0: r = 1
    (1, Locus.ON_FIBER, 2, 2, 2, 4, 0),    # r = 3 covers both points
    (1, Locus.ON_FIBER, 4, 2, 2, 3, 1),    # fourth point exceeds r = 3
    (2, Locus.ON_SECTION, 1, 1, 2, 3, 0),
    (2, Locus.GENERAL, 2, 1, 2, 2, 0),
    (3, Locus.ON_FIBER, 2, 1, 3, 3, 0),   # r = 5 - 3 = 2, both points count
]


@pytest.mark.parametrize("e,locus,z,a,b,v0,v1", FROZEN)
def test_frozen_ideal_values(e, locus, z, a, b, v0, v1):
    surface = Surface(e)
    sheaf = model(locus, z, a, b)
    assert h0_ideal(surface, sheaf) == v0
    assert h1_ideal(surface, sheaf) == v1


def test_max_conditions():
    surface = Surface(1)
    cls = DivisorClass(2, 2)
    assert max_conditions(surface, model(Locus.GENERAL, 2, 2, 2)) == h0(surface, cls) == 6
    assert max_conditions(surface, model(Locus.ON_SECTION, 2, 2, 2)) == 1
    assert max_conditions(surface, model(Locus.ON_FIBER, 2, 2, 2)) == 3


@given(surfaces, classes, loci)
def test_zero_points_is_the_line_bundle(surface, cls, locus):
    sheaf = IdealSheafModel(PointConfig(z=0, locus=locus), cls)
    assert h0_ideal(surface, sheaf) == h0(surface, cls)
    assert h1_ideal(surface, sheaf) == h1(surface, cls)
    assert h2_ideal(surface, sheaf) == h2(surface, cls)


@given(surfaces, classes, loci, zs)
def test_chi_drops_by_point_count(surface, cls, locus, z):
    sheaf = IdealSheafModel(PointConfig(z=z, locus=locus), cls)
    total = h0_ideal(surface, sheaf) - h1_ideal(surface, sheaf) + h2_ideal(surface, sheaf)
    assert total == chi(surface, cls) - z


@given(surfaces, classes, loci, zs)
def test_monotone_in_point_count(surface, cls, locus, z):
    fewer = IdealSheafModel(PointConfig(z=z, locus=locus), cls)
    more = IdealSheafModel(PointConfig(z=z + 1, locus=locus), cls)
    assert h0_ideal(surface, more) <= h0_ideal(surface, fewer)
    assert h1_ideal(surface, more) >= h1_ideal(surface, fewer)
    assert h2_ideal(surface, more) == h2_ideal(surface, fewer)


@given(surfaces, classes, zs)
def test_general_points_are_independent(surface, cls, z):
    sheaf = IdealSheafModel(PointConfig(z=z, locus=Locus.GENERAL), cls)
    assert h0_ideal(surface, sheaf) == max(0, h0(surface, cls) - z)
    assert h1_ideal(surface, sheaf) == h1(surface, cls) + max(0, z - h0(surface, cls))


@given(surfaces, classes, loci, zs, st.integers(min_value=-3, max_value=5))
def test_twisted_moves_the_class(surface, cls, locus, z, t):
    # I_Z(c) twisted by t*M is I_Z(c + t*M): the kernels on the moved
    # coordinates, as the scans and boxes call them
    config = PointConfig(z=z, locus=locus)
    shifted = IdealSheafModel(config, cls + t * surface.m_class())
    moved = (cls.a + t, cls.b + t * surface.e)
    assert ideal_counts(surface.e, z, locus, *moved) == (
        h0_ideal(surface, shifted), h1_ideal(surface, shifted), h2_ideal(surface, shifted)
    )


@given(surfaces, classes, loci, zs)
def test_curve_points_never_beat_general_ones(surface, cls, locus, z):
    # points confined to a curve impose at most as many conditions
    sheaf = IdealSheafModel(PointConfig(z=z, locus=locus), cls)
    general = IdealSheafModel(PointConfig(z=z, locus=Locus.GENERAL), cls)
    assert h0_ideal(surface, sheaf) >= h0_ideal(surface, general)


@given(surfaces, classes, loci, st.integers(min_value=0, max_value=40))
def test_h1_ideal_is_line_h1_plus_capacity_shortfall(surface, cls, locus, z):
    # the shape the twist-scan bounds and piece starts in `natural` rely on
    sheaf = IdealSheafModel(PointConfig(z=z, locus=locus), cls)
    shortfall = max(0, z - max_conditions(surface, sheaf))
    assert h1_ideal(surface, sheaf) == h1(surface, cls) + shortfall


def test_ideal_counts_agree_with_the_two_evaluation_formula():
    # h0 from `ideal_sections` and h1 forced by chi(I_Z(c)) = chi(c) - z
    # from the line bundle's own counts, which sum h0(c) a second time
    for e in range(1, 5):
        for locus in Locus:
            for z in range(0, 8):
                for a in range(-3, 7):
                    for b in range(-5, 14):
                        v0 = ideal_sections(e, z, locus, a, b)
                        full, line1, v2 = counts(e, a, b)
                        want = (v0, v0 + v2 - (full - line1 + v2 - z), v2)
                        assert ideal_counts(e, z, locus, a, b) == want, (e, locus, z, a, b)


@pytest.mark.parametrize("locus", list(Locus))
def test_ideal_counts_sums_the_sections_of_c_once(locus, monkeypatch):
    import hirzebruch.cohomology as cohomology
    import hirzebruch.sheaves as sheaves

    asked = []
    real = cohomology.sections

    def counting(e, a, b):
        asked.append((a, b))
        return real(e, a, b)

    monkeypatch.setattr(cohomology, "sections", counting)
    monkeypatch.setattr(sheaves, "sections", counting)
    ideal_counts(2, 3, locus, 4, 9)
    assert asked.count((4, 9)) == 1


@pytest.mark.parametrize("locus", list(Locus))
def test_the_ideal_inverse_makes_one_section_inverse_call(monkeypatch, locus):
    # O(c) needs z + 1 sections: one call of the k-section inverse; c - C
    # needs only to be effective, which `effective_twist` reads off the
    # coordinates without a section count
    import hirzebruch.sheaves as sheaves

    real = sheaves.sections_twist
    calls = []
    monkeypatch.setattr(
        sheaves, "sections_twist", lambda *args: calls.append(args[1]) or real(*args)
    )
    rng = random.Random(18)
    for _ in range(300):
        e = rng.randint(1, 5)
        c = rng.randint(0, 3)
        d = e * c + rng.randint(0 if c else 1, 5)
        z = rng.choice([0, rng.randint(1, 40), rng.randint(41, 10**12)])
        u, v, start = rng.randint(-20, 20), rng.randint(-60, 60), rng.randint(-30, 30)
        calls.clear()
        ideal_sections_twist(e, z, locus, u, v, c, d, start)
        assert calls == [z + 1], (e, z, u, v, c, d, start)
