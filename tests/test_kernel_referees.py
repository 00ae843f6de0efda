"""The hot integer kernels against the plain forms they replaced.

The kernels take minima and maxima by comparisons, find the greatest
summand in one pass and sum arithmetic series in closed form.  Each
`_by_*` function below is the plain form: builtin `min`, `max`, `divmod`,
`sorted` and `sum`, written as the formulas read.  They share no code with
the kernels they referee but the kernels that did not change, and the
grids run e = 1..8 with coordinates of both signs up to 10^12.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hirzebruch import (
    DirectSum,
    DivisorClass,
    ExtensionDatum,
    IdealSheafModel,
    Locus,
    PointConfig,
    Surface,
    direct_sum_natural_wrt_m,
    scan_verdict,
)
from hirzebruch.audit import _stated_section_sums, _variant_sum_criterion
from hirzebruch.bundles import _audit_scan_stop, _audit_twists, _box
from hirzebruch.cohomology import (
    ConsistencyError,
    counts,
    effective_twist,
    sections,
    sections_twist,
)
from hirzebruch.sheaves import ideal_counts, ideal_sections, ideal_sections_twist

surfaces = st.integers(min_value=1, max_value=8)
big = st.integers(min_value=-10**12, max_value=10**12)
# small coordinates make ties and the boundary cases likely; big ones
# check the arithmetic at size
coords = st.one_of(st.integers(min_value=-12, max_value=12), big)
counts_z = st.one_of(st.integers(min_value=0, max_value=12), st.integers(0, 10**12))
loci = st.sampled_from(list(Locus))
_CURVES = {Locus.ON_SECTION: (1, 0), Locus.ON_FIBER: (0, 1)}


def _spanned(e):
    """A spanned nonzero twist of each kind: M, R, fiber classes and mixed."""
    return [(1, e), (1, e + 1), (0, 1), (0, e + 4), (2, 2 * e), (3, 3 * e + 5)]


# --- the plain forms


def _sections_by_min(e, a, b):
    if a < 0 or b < 0:
        return 0
    n = min(a, b // e)
    return (n + 1) * (b + 1) - e * n * (n + 1) // 2


def _counts_by_divmod(e, a, b):
    if a >= 0:
        v0, v2 = _sections_by_min(e, a, b), 0
    else:
        v0, v2 = 0, _sections_by_min(e, -2 - a, -e - 2 - b)
    q, rem = divmod(e * a * (a + 1), 2)
    assert rem == 0
    return v0, v0 + v2 - (1 + a * b + a + b - q), v2


def _effective_twist_by_max(u, v, c, d):
    if c >= 1:
        return max(-(u // c), -(v // d))
    if u < 0:
        return None
    return -(v // d)


def _ideal_sections_by_min(e, z, locus, a, b):
    # h0(c) - min(z, capacity), the capacity h0(c) - h0(c - C)
    full = _sections_by_min(e, a, b)
    unseen = 0
    if locus in _CURVES:
        ca, cb = _CURVES[locus]
        unseen = _sections_by_min(e, a - ca, b - cb)
    return full - min(z, full - unseen)


def _ideal_counts_by_min(e, z, locus, a, b):
    full, line1, v2 = _counts_by_divmod(e, a, b)
    v0 = _ideal_sections_by_min(e, z, locus, a, b)
    return v0, v0 + v2 - (full - line1 + v2 - z), v2


def _ideal_sections_twist_by_min(e, z, locus, u, v, c, d, start):
    t = sections_twist(e, z + 1, u, v, c, d, start)
    if locus not in _CURVES:
        return t
    ca, cb = _CURVES[locus]
    unseen = _effective_twist_by_max(u - ca, v - cb, c, d)
    return t if unseen is None else min(t, max(start, unseen))


def _box_by_min(datum, t):
    e, sub, quot = datum.surface.e, datum.sub, datum.quotient
    a0, a1, a2 = _counts_by_divmod(e, sub.a + t, sub.b + t * e)
    z, locus = quot.config.z, quot.config.locus
    q0, q1, q2 = _ideal_counts_by_min(e, z, locus, quot.cls.a + t, quot.cls.b + t * e)
    cap0, cap1 = (0, 0) if datum.ext_forced_split else (min(q0, a1), min(q1, a2))
    hi0, hi1, hi2 = a0 + q0, a1 + q1, a2 + q2
    lo0, lo1, lo2 = hi0 - cap0, hi1 - cap0 - cap1, hi2 - cap1
    return lo0, hi0, lo1, hi1, lo2, hi2, a0 - a1 + a2 + q0 - q1 + q2


def _walk_end_by_max(datum):
    e, sub, qcls = datum.surface.e, datum.sub, datum.quotient.cls
    effective = _effective_twist_by_max(sub.a, sub.b, 1, e)
    return max(effective, -qcls.a) if qcls.b - e * qcls.a <= -2 else effective


def _settle_twist_by_max(datum):
    e, sub, qcls = datum.surface.e, datum.sub, datum.quotient.cls
    return max(
        _effective_twist_by_max(sub.a - 1, sub.b, 1, e),
        _effective_twist_by_max(qcls.a - 1, qcls.b, 1, e),
    )


def _audit_scan_stop_by_max(datum, settle):
    e, qcls = datum.surface.e, datum.quotient.cls
    reach = _effective_twist_by_max(qcls.a, qcls.b - (datum.s - 1), 1, e)
    return max(datum.m, settle, reach) + 1


def _key(c):
    return c.a, c.b


def _sum_criterion_by_sort(e, classes, sign):
    # the sorted form; sign +1 is the criterion, -1 the audit's variant,
    # which reads the twist bound as u_i - m and checks all but the head
    ordered = sorted(classes, key=lambda c: (-c.a, -c.b))
    if any(c.b < e * c.a - 1 for c in ordered):
        return False
    top = ordered[0]
    m = -top.a if top.b >= e * top.a else -top.a + 1
    for c in ordered[1:]:
        if c.a + sign * m >= -1:
            continue
        if -1 <= c.b - e * c.a <= e - 1:
            continue
        return False
    return True


def _stated_section_sums_by_sum(e, u, v, m):
    a_sum = sum(v + 2 * m - 1 - i * e for i in range(u + 2 * m - 1))
    b_sum = sum(v + 2 * m - i * e for i in range(u + 2 * m))
    return a_sum, b_sum


def _outcome(kernel, *args):
    # the value, or the type of the consistency error it raised
    try:
        return kernel(*args)
    except ConsistencyError as err:
        return type(err)


# --- line bundle kernels


@settings(max_examples=400)
@given(surfaces, coords, coords)
@example(1, 0, 0)
@example(8, 10**12, -1)
@example(3, -1, 10**12)
def test_sections_and_counts_match_the_plain_forms(e, a, b):
    assert sections(e, a, b) == _sections_by_min(e, a, b)
    assert counts(e, a, b) == _counts_by_divmod(e, a, b)


@settings(max_examples=400)
@given(surfaces, st.integers(min_value=0, max_value=5), coords, coords)
def test_effective_twist_matches_the_plain_form(e, pick, u, v):
    c, d = _spanned(e)[pick]
    assert effective_twist(u, v, c, d) == _effective_twist_by_max(u, v, c, d)


# --- ideal sheaf kernels, on all three loci


@settings(max_examples=400)
@given(surfaces, counts_z, loci, coords, coords)
@example(2, 0, Locus.GENERAL, 0, 0)
@example(2, 7, Locus.ON_SECTION, 3, 6)
@example(2, 7, Locus.ON_FIBER, 3, 6)
def test_ideal_kernels_match_the_plain_forms(e, z, locus, a, b):
    assert ideal_sections(e, z, locus, a, b) == _ideal_sections_by_min(e, z, locus, a, b)
    assert _outcome(ideal_counts, e, z, locus, a, b) == _ideal_counts_by_min(e, z, locus, a, b)


@settings(max_examples=300)
@given(
    surfaces, st.integers(min_value=0, max_value=5), counts_z, loci, coords, coords,
    st.integers(min_value=-50, max_value=50),
)
def test_ideal_sections_twist_matches_the_plain_form(e, pick, z, locus, u, v, offset):
    c, d = _spanned(e)[pick]
    first = effective_twist(u, v, c, d)
    start = offset if first is None else first + offset
    got = ideal_sections_twist(e, z, locus, u, v, c, d, start)
    assert got == _ideal_sections_twist_by_min(e, z, locus, u, v, c, d, start)


# --- the extension box and the audit window, on general points


@settings(max_examples=400)
@given(
    surfaces, coords, coords, coords, coords, counts_z,
    st.integers(min_value=0, max_value=6), st.one_of(st.integers(-12, 12), big),
)
@example(1, 0, 0, 0, 0, 0, 0, 0)  # a forced split
@example(2, 0, -2, 2, 5, 3, 1, 0)
@example(1, 0, 0, -3, -5, 0, 0, 3)  # slack -2: the walk goes on past T = 0 to -qa = 3
def test_box_and_audit_window_match_the_plain_forms(e, sa, sb, qa, qb, z, m, t):
    quotient = IdealSheafModel(PointConfig(z, Locus.GENERAL), DivisorClass(qa, qb))
    datum = ExtensionDatum(Surface(e), m, DivisorClass(sa, sb), quotient)
    assert _outcome(_box, datum, t) == _outcome(_box_by_min, datum, t)
    stop, settle = _audit_twists(datum)
    assert (stop, settle) == (_walk_end_by_max(datum), _settle_twist_by_max(datum))
    assert _audit_scan_stop(datum, settle) == _audit_scan_stop_by_max(datum, settle)


# --- the direct-sum criterion and the audit's variant


summands = st.builds(DivisorClass, coords, coords)


@st.composite
def sums(draw):
    """(e, summands): 1 to 5 drawn summands, then up to two that share
    one of their u with slack -2 .. 2 (either side of the criterion v >=
    e*u - 1 and of its equality case), and up to two repeats, shuffled."""
    e = draw(surfaces)
    classes = draw(st.lists(summands, min_size=1, max_size=5))
    u = draw(st.sampled_from([c.a for c in classes]))
    slacks = draw(st.lists(st.integers(min_value=-2, max_value=2), max_size=2))
    ties = [DivisorClass(u, e * u + slack) for slack in slacks]
    repeats = draw(st.lists(st.sampled_from(classes), max_size=2))
    return e, draw(st.permutations(classes + ties + repeats))


@settings(max_examples=300)
@given(sums())
@example((1, [DivisorClass(3, 4), DivisorClass(1, 2)]))
@example((1, [DivisorClass(2, 1), DivisorClass(2, 2), DivisorClass(0, 2)]))
@example((2, [DivisorClass(-3, -4), DivisorClass(-3, -4)]))
@example((2, [DivisorClass(-3, -4), DivisorClass(-3, -5), DivisorClass(-3, -4)]))
def test_sum_criteria_match_the_sorted_forms(drawn):
    e, classes = drawn
    surface = Surface(e)
    # the summands as drawn (in a drawn order), reversed, rotated and in
    # increasing order: each criterion gives every order one answer
    orders = [classes, classes[::-1], classes[1:] + classes[:1], sorted(classes, key=_key)]
    for sign, criterion in ((1, direct_sum_natural_wrt_m), (-1, _variant_sum_criterion)):
        want = _sum_criterion_by_sort(e, classes, sign)
        assert [criterion(surface, order) for order in orders] == [want] * 4
        assert criterion(surface, tuple(classes)) == want
    # the criterion is the scan's answer, so a repeated summand leaves it alone
    holds = scan_verdict(surface, DirectSum(tuple(classes)), surface.m_class()).verdict.holds()
    assert direct_sum_natural_wrt_m(surface, classes) == holds
    assert direct_sum_natural_wrt_m(surface, classes + classes[:1]) == holds


def test_the_variant_exempts_one_copy_of_the_greatest_summand():
    # at e = 2, (-3, -4) is natural with slack 2, outside the band [-1, 1];
    # as the head it puts the sum's sections at m = 3, so it fails the
    # variant's bound u - m = -6 >= -1.  One copy is exempt as the head; a
    # second copy is checked, as the sorted form checks ordered[1:]
    surface = Surface(2)
    head = DivisorClass(-3, -4)
    assert _variant_sum_criterion(surface, [head])
    assert not _variant_sum_criterion(surface, [head, head])
    assert _sum_criterion_by_sort(2, [head, head], -1) is False
    assert direct_sum_natural_wrt_m(surface, [head, head]) == direct_sum_natural_wrt_m(
        surface, [head]
    )


# --- the construction's stated sums


def test_stated_sums_match_the_bare_sum_loop():
    # every term count u + 2m - 1 from -10 to 16, so counts <= 0 included
    grid = itertools.product(range(1, 9), range(-8, 9), range(-20, 21, 3), range(0, 5))
    seen = set()
    for e, u, v, m in grid:
        seen.add(u + 2 * m - 1 <= 0)
        assert _stated_section_sums(e, u, v, m) == _stated_section_sums_by_sum(e, u, v, m)
    assert seen == {True, False}


@settings(max_examples=300)
@given(surfaces, st.integers(-2000, 2000), big, st.integers(0, 500))
def test_stated_sums_match_the_bare_sum_loop_at_size(e, u, v, m):
    assert _stated_section_sums(e, u, v, m) == _stated_section_sums_by_sum(e, u, v, m)
