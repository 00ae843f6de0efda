"""Ideal sheaf models: section counts with point conditions."""

import random
import re

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
    scan_verdict,
)
from hirzebruch.cohomology import counts
from hirzebruch.sheaves import (
    h0_ideal,
    h1_ideal,
    ideal_counts,
    ideal_sections,
    ideal_sections_twist,
)

surfaces = st.integers(min_value=1, max_value=4).map(Surface)
small = st.integers(min_value=-6, max_value=8)
classes = st.builds(DivisorClass, small, small)
loci = st.sampled_from(list(Locus))
zs = st.integers(min_value=0, max_value=9)


def model(locus, z, a, b):
    return IdealSheafModel(PointConfig(z=z, locus=locus), DivisorClass(a, b))


def sheaf_counts(surface, sheaf):
    """(h0, h1, h2) of the model, from the kernel on its fields."""
    cls = sheaf.cls
    return ideal_counts(surface.e, sheaf.config.z, sheaf.config.locus, cls.a, cls.b)


# the supporting curves of the curve loci: h and f
CURVES = {Locus.ON_SECTION: DivisorClass(1, 0), Locus.ON_FIBER: DivisorClass(0, 1)}


def capacity(surface, sheaf):
    """The most conditions the points can impose, from the line bundle's
    h0 alone: all of h0(c) in general position, else what the supporting
    curve C sees, h0(c) - h0(c - C)."""
    locus, cls = sheaf.config.locus, sheaf.cls
    unseen = h0(surface, cls - CURVES[locus]) if locus in CURVES else 0
    return h0(surface, cls) - unseen


def test_point_config_rejects_negative_count():
    with pytest.raises(DomainError):
        PointConfig(z=-1, locus=Locus.GENERAL)


@pytest.mark.parametrize("bad", ["general", "section", "fiber", None, 0])
def test_point_config_rejects_a_locus_that_is_not_a_locus(bad):
    # refused where it is stored, with the value named, not as a KeyError
    # from a lookup deep in the ideal count
    match = rf"^point locus must be a Locus, got {bad!r}$"
    with pytest.raises(DomainError, match=match):
        h0_ideal(Surface(1), IdealSheafModel(PointConfig(2, bad), DivisorClass(1, 1)))


@pytest.mark.parametrize(
    "config, cls",
    [
        (None, DivisorClass(1, 1)),
        (2, DivisorClass(1, 1)),
        (PointConfig(2, Locus.GENERAL), (1, 1)),
        (PointConfig(2, Locus.GENERAL), None),
    ],
    ids=["none-config", "int-config", "tuple-class", "none-class"],
)
def test_an_ideal_sheaf_model_rejects_fields_of_the_wrong_type(config, cls):
    # refused where they are stored, with the value named: the scans read a
    # None config as "no points", so IdealSheafModel(None, (1, 1)) would
    # pass for the line bundle O(1, 1) and scan as HOLDS
    if isinstance(config, PointConfig):
        message = f"ideal sheaf class must be a DivisorClass, got {cls!r}"
    else:
        message = f"point configuration must be a PointConfig, got {config!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        scan_verdict(Surface(1), IdealSheafModel(config, cls), DivisorClass(1, 1))


def test_restriction_degrees():
    surface = Surface(2)
    cls = DivisorClass(3, 4)
    # degree on the negative section is b - e*a, on a fiber it is a
    assert surface.intersect(cls, CURVES[Locus.ON_SECTION]) == -2
    assert surface.intersect(cls, CURVES[Locus.ON_FIBER]) == 3


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
    # as many points as h0(c) impose every condition they can, so the
    # sections left over are h0(c) less the capacity
    surface = Surface(1)
    full = h0(surface, DivisorClass(2, 2))
    assert full == 6
    for locus, rho in [(Locus.GENERAL, 6), (Locus.ON_SECTION, 1), (Locus.ON_FIBER, 3)]:
        assert capacity(surface, model(locus, 2, 2, 2)) == rho
        assert full - ideal_sections(1, full, locus, 2, 2) == rho


@given(surfaces, classes, loci)
def test_zero_points_is_the_line_bundle(surface, cls, locus):
    sheaf = IdealSheafModel(PointConfig(z=0, locus=locus), cls)
    assert h0_ideal(surface, sheaf) == h0(surface, cls)
    assert h1_ideal(surface, sheaf) == h1(surface, cls)
    assert sheaf_counts(surface, sheaf)[2] == h2(surface, cls)


@given(surfaces, classes, loci, zs)
def test_chi_drops_by_point_count(surface, cls, locus, z):
    sheaf = IdealSheafModel(PointConfig(z=z, locus=locus), cls)
    total = h0_ideal(surface, sheaf) - h1_ideal(surface, sheaf) + sheaf_counts(surface, sheaf)[2]
    assert total == chi(surface, cls) - z


@given(surfaces, classes, loci, zs)
def test_monotone_in_point_count(surface, cls, locus, z):
    fewer = IdealSheafModel(PointConfig(z=z, locus=locus), cls)
    more = IdealSheafModel(PointConfig(z=z + 1, locus=locus), cls)
    assert h0_ideal(surface, more) <= h0_ideal(surface, fewer)
    assert h1_ideal(surface, more) >= h1_ideal(surface, fewer)
    assert sheaf_counts(surface, more)[2] == sheaf_counts(surface, fewer)[2]


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
        h0_ideal(surface, shifted), h1_ideal(surface, shifted), h2(surface, shifted.cls)
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
    shortfall = max(0, z - capacity(surface, sheaf))
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
