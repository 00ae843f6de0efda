"""Intersection theory and positivity on the base surface."""

from fractions import Fraction
import inspect
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hirzebruch
from hirzebruch import (
    DivisorClass,
    DomainError,
    IdealSheafModel,
    Line,
    Locus,
    PointConfig,
    Surface,
    cohomology_profile,
    direct_sum_natural_wrt_m,
    h0,
    h0_ideal,
    h1_ideal,
    line_natural_wrt_r,
    scan_verdict,
    triple,
)
from hirzebruch.picard import ceil_div

ints = st.integers(min_value=-50, max_value=50)
classes = st.builds(DivisorClass, ints, ints)
surfaces = st.integers(min_value=1, max_value=6).map(Surface)


@pytest.mark.parametrize("e", [0, -1, -7])
def test_rejects_nonpositive_e(e):
    with pytest.raises(DomainError):
        Surface(e)


def test_rejects_non_integer_e():
    with pytest.raises(DomainError):
        Surface(1.5)


@pytest.mark.parametrize("bad", [1.5, 2.0, True])
def test_types_refuse_non_integers(bad):
    # checked once, where the value is stored, so no function that takes
    # these types sees a float or a bool
    makers = [
        lambda: DivisorClass(bad, 0),
        lambda: DivisorClass(0, bad),
        lambda: PointConfig(bad, Locus.GENERAL),
        lambda: Surface(bad),
    ]
    for make in makers:
        with pytest.raises(DomainError):
            make()
    # the range messages are unchanged
    with pytest.raises(DomainError, match=r"^surface parameter e must be an integer >= 1, got 0$"):
        Surface(0)
    with pytest.raises(DomainError, match=r"^point count must be >= 0, got -1$"):
        PointConfig(-1, Locus.GENERAL)


@pytest.mark.parametrize("bad", [True, 2.0, 0.5])
def test_twist_counts_are_integers(bad):
    # a twist c + t*by takes its count t through `k * c`, which refuses
    # anything but a plain int itself: True would pass as 1, and 2.0 or
    # 0.5 would be named only through the coordinates they produced
    c, by = DivisorClass(1, 1), DivisorClass(1, 2)
    with pytest.raises(TypeError):
        c + bad * by


# frozen pairings, each checked by hand against the form
# (a1,b1).(a2,b2) = -e a1 a2 + a1 b2 + a2 b1
FROZEN_PAIRINGS = [
    # (e, first, second, value)
    (1, (1, 0), (1, 0), -1),   # section with negative self-intersection
    (3, (1, 0), (1, 0), -3),
    (2, (0, 1), (0, 1), 0),    # fiber squares to zero
    (2, (1, 0), (0, 1), 1),    # section meets fiber once
    (1, (1, 1), (1, 1), 1),
    (2, (1, 2), (1, 2), 2),    # M^2 = e
    (5, (1, 5), (1, 5), 5),
    (2, (1, 3), (1, 3), 4),    # R^2 = e + 2
    (1, (2, 3), (1, 1), 3),
    (4, (-2, -6), (-2, -6), 8),  # K^2 = 8 on every ruled surface over P1
]


@pytest.mark.parametrize("e,first,second,value", FROZEN_PAIRINGS)
def test_frozen_pairings(e, first, second, value):
    surface = Surface(e)
    assert surface.intersect(DivisorClass(*first), DivisorClass(*second)) == value


@given(st.integers(min_value=1, max_value=6))
def test_canonical_square_is_eight(e):
    surface = Surface(e)
    k = surface.canonical_class()
    assert surface.intersect(k, k) == 8


@given(surfaces, classes, classes)
def test_intersection_symmetric(surface, c1, c2):
    assert surface.intersect(c1, c2) == surface.intersect(c2, c1)


@given(surfaces, classes, classes, classes, ints)
def test_intersection_bilinear(surface, c1, c2, c3, n):
    lhs = surface.intersect(c1, c2 + n * c3)
    rhs = surface.intersect(c1, c2) + n * surface.intersect(c1, c3)
    assert lhs == rhs


@given(surfaces, classes)
def test_m_and_r_pairings(surface, c):
    # the spanned non-ample class pairs to the fiber coordinate,
    # the minimal ample class to the coordinate sum
    assert surface.intersect(surface.m_class(), c) == c.b
    assert surface.intersect(surface.r_class(), c) == c.a + c.b


def test_positivity_tables():
    surface = Surface(2)
    for coords, eff, spa, amp in [
        ((0, 0), True, True, False),
        ((1, 0), True, False, False),   # the negative section
        ((0, 1), True, True, False),    # a fiber: spanned, not ample
        ((1, 2), True, True, False),    # M: spanned, not ample
        ((1, 3), True, True, True),     # R: minimal ample
        ((2, 5), True, True, True),
        ((2, 4), True, True, False),
        ((-1, 3), False, False, False),
        ((3, -1), False, False, False),
    ]:
        report = surface.positivity(DivisorClass(*coords))
        assert (report.effective, report.spanned, report.ample) == (eff, spa, amp), coords


@given(surfaces, classes)
def test_positivity_chain(surface, c):
    report = surface.positivity(c)
    if report.ample:
        assert report.spanned
    if report.spanned:
        assert report.effective


@given(surfaces)
def test_special_classes(surface):
    e = surface.e
    assert surface.m_class() == DivisorClass(1, e)
    assert surface.r_class() == DivisorClass(1, e + 1)
    assert surface.canonical_class() == DivisorClass(-2, -(e + 2))
    m_report = surface.positivity(surface.m_class())
    assert m_report.spanned and not m_report.ample
    r_report = surface.positivity(surface.r_class())
    assert r_report.ample


@given(classes, ints, classes)
def test_twist_is_affine(c, t, by):
    shifted = c + t * by
    assert shifted == DivisorClass(c.a + t * by.a, c.b + t * by.b)
    assert shifted + (-t) * by == shifted - t * by == c


def test_class_arithmetic():
    x = DivisorClass(2, -3)
    y = DivisorClass(-1, 5)
    assert x + y == DivisorClass(1, 2)
    assert x - y == DivisorClass(3, -8)
    assert -1 * x == DivisorClass(-2, 3)
    assert 3 * x == DivisorClass(6, -9)
    assert str(x) == "(2,-3)"
    assert x - x == 0 * x == DivisorClass(0, 0) != x


@pytest.mark.parametrize("other", [(0, 1), 1, None])
def test_class_arithmetic_refuses_an_operand_that_is_not_a_class(other):
    # NotImplemented, so Python raises its own TypeError, not an AttributeError
    x = DivisorClass(1, 1)
    with pytest.raises(TypeError, match="unsupported operand"):
        x + other
    with pytest.raises(TypeError, match="unsupported operand"):
        x - other


@given(ints, st.integers(min_value=1, max_value=50))
def test_ceil_div_is_exact_ceiling(p, q):
    assert ceil_div(p, q) == math.ceil(Fraction(p, q))


def test_rejects_bool_e():
    # bool is an int subclass; Surface(True) must not pass as e = 1
    with pytest.raises(DomainError):
        Surface(True)


_D = DivisorClass(1, 1)
_M = DivisorClass(1, 1)  # M on F_1
_IDEAL = IdealSheafModel(PointConfig(2, Locus.GENERAL), DivisorClass(2, 2))

# well-typed arguments after the surface, for every public callable whose
# first parameter is the surface
_AFTER_SURFACE = {
    "chi": (_D,),
    "cohomology_profile": (_D, _M, 0, 1),
    "h0": (_D,),
    "h1": (_D,),
    "h1_vanishes": (_D,),
    "h2": (_D,),
    "oracle_h0": (_D,),
    "triple": (_D,),
    "h0_ideal": (_IDEAL,),
    "h1_ideal": (_IDEAL,),
    "direct_sum_natural_wrt_m": ([_D, DivisorClass(0, -1)],),
    "line_natural_wrt_m": (_D,),
    "line_natural_wrt_r": (_D,),
    "line_unconditional_wrt_m": (_D,),
    "min_twist_with_sections": (Line(_D), _M),
    "scan_verdict": (_IDEAL, _M),
    "unconditional_scan": (Line(_D), _M),
    "ExtensionDatum": (0, DivisorClass(1, 0), _IDEAL),
    "chern_of_extension": (DivisorClass(1, 0), 0, DivisorClass(3, 2), 0),
    "classify_region": (2, (0, 1), (0, 1)),
    "construct_extension": (3, 2, 0, 3),
    "c1_obstructed": (2, 1, 1),
    "section_count_bounds": (3, 2, 0),
}


def _first_parameter(obj):
    # None for a constant and for a callable without a signature (an enum)
    try:
        return next(iter(inspect.signature(obj).parameters), None)
    except (TypeError, ValueError):
        return None


def test_every_public_callable_refuses_a_surface_that_is_not_one():
    # each function of `__all__` (and the `ExtensionDatum` constructor)
    # whose first parameter is the surface refuses None there with one
    # DomainError line, not an AttributeError from reading `e` off it;
    # every call is well typed apart from the surface, and answers on F_1
    takers = sorted(
        name for name in hirzebruch.__all__ if _first_parameter(getattr(hirzebruch, name)) == "surface"
    )
    assert takers == sorted(_AFTER_SURFACE)
    assert len(takers) == 23
    for name in takers:
        call, rest = getattr(hirzebruch, name), _AFTER_SURFACE[name]
        call(Surface(1), *rest)
        with pytest.raises(DomainError) as refused:
            call(None, *rest)
        owner = "extension " if name == "ExtensionDatum" else ""
        assert str(refused.value) == f"{owner}surface must be a Surface, got None", name


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: h0(Surface(1), (1, 1)), "class must be a DivisorClass, got (1, 1)"),
        (lambda: triple(Surface(1), None), "class must be a DivisorClass, got None"),
        (
            lambda: cohomology_profile(Surface(1), _D, (1, 1), 0, 1),
            "twisting class must be a DivisorClass, got (1, 1)",
        ),
        (lambda: h0_ideal(Surface(1), None), "model must be an IdealSheafModel, got None"),
        (lambda: h1_ideal(Surface(1), _D), f"model must be an IdealSheafModel, got {_D!r}"),
        (
            lambda: scan_verdict(Surface(1), Line(_D), (1, 1)),
            "twisting class must be a DivisorClass, got (1, 1)",
        ),
        (
            lambda: line_natural_wrt_r(Surface(1), None),
            "class must be a DivisorClass, got None",
        ),
        (
            lambda: direct_sum_natural_wrt_m(Surface(1), [_D, (1, 1)]),
            "direct sum summand must be a DivisorClass, got (1, 1)",
        ),
    ],
    ids=["h0", "triple", "profile", "h0_ideal", "h1_ideal", "scan", "line-r", "sum"],
)
def test_an_argument_after_the_surface_is_typed_too(call, message):
    # a class, model or twisting class of the wrong type is one DomainError
    # line naming that argument, not an AttributeError from reading a field
    with pytest.raises(DomainError) as refused:
        call()
    assert str(refused.value) == message
