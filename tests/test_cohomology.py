"""Closed-form cohomology against the brute-force section counter.

The brute-force counter enumerates lattice points and is the ground truth
here; the frozen literals below were computed by hand from the pushforward
decomposition (a class (a,b) pushes down to the sum of O(b - i*e) for
i = 0..a) and are pinned against BOTH implementations, so neither can
drift to match the other.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hirzebruch import (
    DivisorClass,
    DomainError,
    Surface,
    chi,
    cohomology_profile,
    h0,
    h1,
    h1_vanishes,
    h2,
    oracle_h0,
    triple,
)
from hirzebruch.cohomology import counts, effective_twist, run_edges, sections, sections_twist
from hirzebruch.sheaves import (
    IdealSheafModel,
    Locus,
    PointConfig,
    h0_ideal,
    h1_ideal,
    h2_ideal,
    ideal_counts,
    ideal_sections,
    ideal_sections_twist,
)

surfaces = st.integers(min_value=1, max_value=5).map(Surface)
small = st.integers(min_value=-12, max_value=14)
classes = st.builds(DivisorClass, small, small)


FROZEN_H0 = [
    # (e, a, b, value): value = sum over i = 0..a of max(0, b - i*e + 1)
    (1, 0, 0, 1),
    (1, 1, 0, 1),    # 1 + 0: the i=1 summand has negative degree
    (1, 0, 1, 2),
    (1, 1, 1, 3),    # 2 + 1
    (1, 2, 2, 6),    # 3 + 2 + 1
    (1, 2, 1, 3),    # 2 + 1 + 0
    (1, 1, 5, 11),   # 6 + 5
    (1, 3, 2, 6),    # 3 + 2 + 1 + 0
    (2, 1, 1, 2),    # 2 + 0
    (2, 1, 2, 4),    # 3 + 1
    (2, 1, 3, 6),    # 4 + 2
    (2, 2, 4, 9),    # 5 + 3 + 1
    (2, 2, 5, 12),   # 6 + 4 + 2
    (3, 1, 3, 5),    # 4 + 1
    (3, 2, 6, 12),   # 7 + 4 + 1
    (1, -1, 4, 0),
    (1, 4, -1, 0),
    (4, 3, 2, 3),    # 3 + 0 + 0 + 0
]


@pytest.mark.parametrize("e,a,b,value", FROZEN_H0)
def test_frozen_h0(e, a, b, value):
    surface = Surface(e)
    cls = DivisorClass(a, b)
    assert h0(surface, cls) == value
    assert oracle_h0(surface, cls) == value


def test_oracle_is_a_lattice_count():
    # e=2, (1,3): i=0 gives j in 0..3 (4 points), i=1 gives j in 0..1 (2)
    assert oracle_h0(Surface(2), DivisorClass(1, 3)) == 6
    # large values well past any frozen table
    assert oracle_h0(Surface(3), DivisorClass(7, 30)) == h0(Surface(3), DivisorClass(7, 30))


FROZEN_CHI = [
    # chi((a,b)) = 1 + ab + a + b - e*a(a+1)/2, each recomputed via
    # Riemann-Roch c.(c-K)/2 + 1 as a cross-check
    (1, 1, 1, 3),
    (1, 0, -2, -1),
    (2, -2, 4, -7),
    (2, 1, 0, 0),
    (3, 2, 6, 12),
    (1, -2, 3, -5),
    (2, -2, 2, -5),
    (4, -2, 0, -5),
]


@pytest.mark.parametrize("e,a,b,value", FROZEN_CHI)
def test_frozen_chi(e, a, b, value):
    assert chi(Surface(e), DivisorClass(a, b)) == value


FROZEN_TRIPLES = [
    # (e, a, b, h0, h1, h2); h2 recomputed by hand through the dual class
    (1, 1, 1, 3, 0, 0),
    (2, 1, 0, 1, 1, 0),     # CLI example witness
    (1, 0, -2, 0, 1, 0),
    (1, -2, -3, 0, 0, 1),   # canonical class itself
    (2, -2, -4, 0, 0, 1),
    (1, -3, -4, 0, 0, 3),
    (1, -2, 3, 0, 5, 0),    # counterexample summand, e=1
    (2, -2, 2, 0, 5, 0),    # counterexample summand, e=2
    (3, -2, 1, 0, 5, 0),
    (4, -2, 0, 0, 5, 0),
    (2, 2, 2, 4, 1, 0),     # slack -2 at e=2: one persistent unit of h1
]


@pytest.mark.parametrize("e,a,b,v0,v1,v2", FROZEN_TRIPLES)
def test_frozen_triples(e, a, b, v0, v1, v2):
    surface = Surface(e)
    values = triple(surface, DivisorClass(a, b))
    assert (values.h0, values.h1, values.h2) == (v0, v1, v2)


def test_h1_can_be_large_in_the_mixed_quadrant():
    # positive h-coordinate, negative fiber coordinate: every pushforward
    # summand O(-7-i), i = 0..5, contributes 6+i to h1, total 51
    surface = Surface(1)
    cls = DivisorClass(5, -7)
    values = triple(surface, cls)
    assert values.h0 == 0 and values.h2 == 0
    assert values.h1 == -chi(surface, cls) == 51


@settings(max_examples=300)
@given(surfaces, classes)
def test_closed_form_matches_oracle(surface, c):
    assert h0(surface, c) == oracle_h0(surface, c)


@settings(max_examples=300)
@given(surfaces, classes)
def test_serre_duality_and_chi(surface, c):
    k = surface.canonical_class()
    assert h2(surface, c) == oracle_h0(surface, k - c)
    values = triple(surface, c)
    assert values.chi() == chi(surface, c)
    assert values.h0 >= 0 and values.h1 >= 0 and values.h2 >= 0


@settings(max_examples=300)
@given(surfaces, classes)
def test_vanishing_criterion_is_exact(surface, c):
    assert h1_vanishes(surface, c) == (h1(surface, c) == 0)


@given(surfaces, classes)
def test_chi_is_riemann_roch(surface, c):
    k = surface.canonical_class()
    doubled = surface.intersect(c, c - k)
    assert doubled % 2 == 0
    assert chi(surface, c) == doubled // 2 + 1


def test_profile_rows():
    surface = Surface(2)
    rows = cohomology_profile(surface, DivisorClass(1, 0), surface.m_class(), 0, 2)
    flat = [(t, v.h0, v.h1, v.h2) for t, v in rows]
    # slack stays at -2, so one unit of h1 persists while h0 grows
    assert flat == [(0, 1, 1, 0), (1, 4, 1, 0), (2, 9, 1, 0)]
    with pytest.raises(DomainError):
        cohomology_profile(surface, DivisorClass(1, 0), surface.m_class(), 2, 0)


# --- the integer kernels behind the wrappers

kernel_surfaces = st.integers(min_value=1, max_value=6)
kernel_coords = st.integers(min_value=-40, max_value=40)


@settings(max_examples=300)
@given(kernel_surfaces, kernel_coords, kernel_coords)
def test_kernel_matches_the_oracle_and_the_wrappers(e, a, b):
    surface, c = Surface(e), DivisorClass(a, b)
    v0, v1, v2 = counts(e, a, b)
    # h0 and, through K - c, h2 against the lattice-point count
    assert v0 == oracle_h0(surface, c)
    assert v2 == oracle_h0(surface, surface.canonical_class() - c)
    assert (v0, v1, v2) == (h0(surface, c), h1(surface, c), h2(surface, c))
    full = triple(surface, c)
    assert (full.h0, full.h1, full.h2) == (v0, v1, v2)
    assert v0 - v1 + v2 == chi(surface, c)


def _h1_by_local_cohomology(e, a, b):
    """h1 of a*h + b*f as a lattice count: the monomials of the toric
    local-cohomology description of H^1 (Eisenbud-Mustata-Stillman, J.
    Symbolic Comput. 2000), one by one.  It shares no formula with
    `counts`, which forces h1 through chi."""
    found = 0
    for m2 in range(-a, 1):
        for m1 in range(e * m2 + 1, -b):
            found += 1
    for m2 in range(1, -a):
        for m1 in range(-b, e * m2 + 1):
            found += 1
    return found


def test_h1_matches_a_local_cohomology_count():
    # on a grid that covers every regime of the trichotomy, both signs of
    # a and slacks far past both thresholds
    grid = [(e, a, b) for e in range(1, 7) for a in range(-15, 16) for b in range(-40, 41)]
    assert len(grid) == 15066
    for e, a, b in grid:
        assert counts(e, a, b)[1] == _h1_by_local_cohomology(e, a, b), (e, a, b)


@settings(max_examples=300)
@given(
    kernel_surfaces,
    st.integers(min_value=0, max_value=10),
    st.sampled_from(list(Locus)),
    kernel_coords,
    kernel_coords,
)
def test_ideal_kernel_matches_the_oracle_and_the_wrappers(e, z, locus, a, b):
    surface, c = Surface(e), DivisorClass(a, b)
    model = IdealSheafModel(PointConfig(z, locus), c)
    v0, v1, v2 = ideal_counts(e, z, locus, a, b)
    assert (v0, v1, v2) == tuple(fn(surface, model) for fn in (h0_ideal, h1_ideal, h2_ideal))
    assert ideal_sections(e, z, locus, a, b) == v0 == h0_ideal(surface, model)
    # the capacity from lattice-point counts: all of h0(c) in general
    # position, else what the supporting curve C sees, h0(c) - h0(c - C)
    curve = {Locus.ON_SECTION: DivisorClass(1, 0), Locus.ON_FIBER: DivisorClass(0, 1)}
    full = oracle_h0(surface, c)
    rho = full - (oracle_h0(surface, c - curve[locus]) if locus in curve else 0)
    assert v0 == full - min(z, rho)
    assert v1 == h1(surface, c) + max(0, z - rho)
    assert v2 == h2(surface, c)


# --- the section counts run backwards along a twist


def _spanned_twists(e):
    """One twisting class of each kind: M, R, fiber classes (0, d), a
    multiple of M and mixed spanned classes, some moving the slack by
    more than e per twist."""
    return [
        (1, e), (1, e + 1), (0, 1), (0, 3), (0, e + 4),
        (2, 2 * e), (2, 2 * e + 1), (1, e + 6), (3, 3 * e + 5),
    ]


def _walked_twist(holds, c, u, start):
    """Least t >= start with holds(t), walked one twist at a time; None
    when c = 0 and u < 0, where the h-coordinate never turns nonnegative."""
    if c == 0 and u < 0:
        return None
    t = start
    while not holds(t):
        t += 1
    return t


def _searched_twist(holds, c, u, start):
    """The same least twist, for a predicate that turns true once and stays
    true: gallop up from start (start, start+1, start+3, ...), then
    bisect.  It shares nothing with the closed-form inverses but the
    forward count it is given, and it takes O(log) steps at any size."""
    if c == 0 and u < 0:
        return None
    below, probe = start - 1, start
    while not holds(probe):
        below, probe = probe, 2 * probe - start + 1
    while probe - below > 1:
        mid = (below + probe) // 2
        if holds(mid):
            probe = mid
        else:
            below = mid
    return probe


def test_section_inverses_are_the_walked_least_twists():
    # a seeded grid: every twisting class kind, both slack regimes, both
    # sides of the turn between them, and starts below and past the first
    # twist with a section
    rng = random.Random(15)
    loci = list(Locus)
    for e in range(1, 5):
        for c, d in _spanned_twists(e):
            for _ in range(60):
                u, v = rng.randint(-8, 8), rng.randint(-20, 20)
                start = rng.choice([-40, rng.randint(-10, 10)])
                k = rng.choice([1, 2, rng.randint(3, 12), rng.randint(13, 400)])
                want = _walked_twist(
                    lambda t: sections(e, u + t * c, v + t * d) >= k, c, u, start
                )
                assert sections_twist(e, k, u, v, c, d, start) == want, (e, k, u, v, c, d, start)
                z, locus = k - 1, rng.choice(loci)
                want = _walked_twist(
                    lambda t: ideal_sections(e, z, locus, u + t * c, v + t * d) > 0, c, u, start
                )
                got = ideal_sections_twist(e, z, locus, u, v, c, d, start)
                assert got == want, (e, z, locus, u, v, c, d, start)


@settings(max_examples=400)
@given(
    kernel_surfaces,
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=0, max_value=10**30),
    st.sampled_from(list(Locus)),
    st.integers(min_value=-10**3, max_value=10**3),
)
def test_section_inverses_match_a_search_at_any_size(e, pick, u, v, z, locus, start):
    c, d = _spanned_twists(e)[pick]
    want = _searched_twist(lambda t: sections(e, u + t * c, v + t * d) > z, c, u, start)
    assert sections_twist(e, z + 1, u, v, c, d, start) == want
    want = _searched_twist(
        lambda t: ideal_sections(e, z, locus, u + t * c, v + t * d) > 0, c, u, start
    )
    assert ideal_sections_twist(e, z, locus, u, v, c, d, start) == want


# --- the twist-line kernels


def test_effective_twist_is_the_first_twist_with_sections():
    # every answer on this grid lies in [-8, 8] and twist -9 has no
    # section, so the least twist of the walk is the least of the line;
    # no twist has one exactly when the h-coordinate is frozen below 0
    window = range(-9, 10)
    for e in range(1, 5):
        for c, d in _spanned_twists(e):
            for u in range(-8, 9):
                for v in range(-8, 9):
                    walked = [t for t in window if sections(e, u + t * c, v + t * d) > 0]
                    assert window[0] not in walked
                    got = effective_twist(u, v, c, d)
                    assert got == (walked[0] if walked else None), (e, u, v, c, d)
                    assert (got is None) == (c == 0 and u < 0)


def test_run_edges_are_where_a_walk_sees_h1_turn():
    # each class has at most one run of h1 > 0 along the twist: a walk over
    # `counts` sees h1 turn positive at most once (a start) and back to 0
    # at most once (a stop), after the start; a side left unbounded has no
    # edge.  Every edge on this grid lies well inside the window.
    window = range(-50, 51)
    for e in range(1, 4):
        for c, d in _spanned_twists(e):
            classes = tuple(DivisorClass(a, b) for a in range(-5, 6) for b in range(-12, 13))
            all_starts, all_stops = [], []
            for cls in classes:
                positive = [counts(e, cls.a + t * c, cls.b + t * d)[1] > 0 for t in window]
                turns = list(zip(window[1:], positive, positive[1:]))
                starts = [t for t, before, now in turns if now and not before]
                stops = [t for t, before, now in turns if before and not now]
                assert len(starts) <= 1 and len(stops) <= 1
                assert not (starts and stops) or starts[0] < stops[0]
                assert run_edges(e, (cls,), c, d) == (starts, stops), (e, cls, c, d)
                all_starts += starts
                all_stops += stops
            # one call over all the classes gives every class's edges, in order
            assert run_edges(e, classes, c, d) == (all_starts, all_stops)


far_coords = st.integers(min_value=-10**15, max_value=10**15)


@settings(max_examples=300)
@given(kernel_surfaces, st.integers(min_value=0, max_value=8), far_coords, far_coords)
def test_effective_twist_matches_a_bisection_at_any_size(e, pick, u, v):
    # h0 > 0 is monotone along a spanned twist, so a bisection up from a
    # twist far below every answer (|t| <= 10^15 + 1 here) finds the least
    # effective one; fiber twists (c = 0) freeze a negative u forever
    c, d = _spanned_twists(e)[pick]
    far = -(10**16)
    assert sections(e, u + far * c, v + far * d) == 0
    want = _searched_twist(lambda t: sections(e, u + t * c, v + t * d) > 0, c, u, far)
    assert effective_twist(u, v, c, d) == want


@settings(max_examples=300)
@given(kernel_surfaces, st.integers(min_value=0, max_value=8), far_coords, far_coords)
def test_run_edges_are_h1_turns_at_any_size(e, pick, a, b):
    # h1 turns positive at a start and back to 0 at a stop, read off
    # `counts` on either side of each edge
    c, d = _spanned_twists(e)[pick]

    def positive(t):
        return counts(e, a + t * c, b + t * d)[1] > 0

    starts, stops = run_edges(e, (DivisorClass(a, b),), c, d)
    assert len(starts) <= 1 and len(stops) <= 1
    for t in starts:
        assert positive(t) and not positive(t - 1), (t, starts, stops)
    for t in stops:
        assert not positive(t) and positive(t - 1), (t, starts, stops)


# --- inputs typed at the boundary


@pytest.mark.parametrize("bad", [1.5, 2.0, True])
def test_public_entry_points_reject_non_integer_inputs(bad):
    from hirzebruch import cohomology_interval, construct_extension, section_count_bounds
    from hirzebruch.sheaves import max_conditions

    # a class or model is built inside the check, where its type refuses
    # the bad coordinate or point count
    surface = Surface(1)
    by = DivisorClass(1, 1)
    calls = []
    for ab in ((bad, 2), (1, bad)):
        for fn in (h0, h1, h2, chi, triple, h1_vanishes):
            calls.append(lambda fn=fn, ab=ab: fn(surface, DivisorClass(*ab)))
        calls.append(lambda ab=ab: cohomology_profile(surface, DivisorClass(*ab), by, 0, 1))
        calls.append(lambda ab=ab: cohomology_profile(surface, by, DivisorClass(*ab), 0, 1))
    calls.append(lambda: cohomology_profile(surface, by, by, bad, 3))
    calls.append(lambda: cohomology_profile(surface, by, by, 0, bad))
    models = [
        (2, Locus.GENERAL, (bad, 2)),
        (2, Locus.ON_SECTION, (2, bad)),
        (bad, Locus.ON_FIBER, (2, 2)),
    ]
    for z, locus, ab in models:
        for fn in (h0_ideal, h1_ideal, h2_ideal, max_conditions):
            calls.append(
                lambda fn=fn, z=z, locus=locus, ab=ab: fn(
                    surface, IdealSheafModel(PointConfig(z, locus), DivisorClass(*ab))
                )
            )
    for at in range(3):
        args = [3, 2, 0]
        args[at] = bad
        calls.append(lambda args=args: section_count_bounds(surface, *args))
    for at in range(4):
        args = [3, 2, 0, 3]
        args[at] = bad
        calls.append(lambda args=args: construct_extension(surface, *args))
    calls.append(lambda: cohomology_interval(construct_extension(surface, 3, 2, 0, 3), bad))
    for call in calls:
        with pytest.raises(DomainError):
            call()
