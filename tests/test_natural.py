"""Twist-vanishing classifiers against their own finite scans.

The scans are the referee: they evaluate actual cohomology row by row
inside a window whose sufficiency the window-stability tests probe by
walking a wider window twist by twist.
"""

import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hirzebruch import (
    ConsistencyError,
    DirectSum,
    DivisorClass,
    DomainError,
    IdealSheafModel,
    Line,
    Locus,
    Outcome,
    PointConfig,
    ScanEvidence,
    Surface,
    Verdict,
    direct_sum_natural_wrt_m,
    line_natural_wrt_m,
    line_natural_wrt_r,
    line_unconditional_wrt_m,
    min_twist_with_sections,
    scan_verdict,
    unconditional_scan,
)

surfaces = st.integers(min_value=1, max_value=4).map(Surface)
coords = st.integers(min_value=-10, max_value=10)
classes = st.builds(DivisorClass, coords, coords)
lines = classes.map(Line)
sums = st.lists(classes, min_size=1, max_size=4).map(lambda cs: DirectSum(tuple(cs)))
ideals = st.builds(
    IdealSheafModel,
    st.builds(PointConfig, st.integers(min_value=0, max_value=6), st.sampled_from(list(Locus))),
    classes,
)
models = st.one_of(lines, sums, ideals)


# --- twisting-class validation


def test_rejects_bad_twisting_classes():
    surface = Surface(2)
    line = Line(DivisorClass(1, 1))
    for bad in [(0, 0), (-1, 2), (1, 0), (1, 1), (2, 3)]:
        with pytest.raises(DomainError):
            scan_verdict(surface, line, DivisorClass(*bad))


def test_direct_sum_must_be_nonempty():
    with pytest.raises(DomainError):
        DirectSum(())
    with pytest.raises(DomainError):
        direct_sum_natural_wrt_m(Surface(1), [])
    with pytest.raises(DomainError):
        DirectSum([])


@pytest.mark.parametrize("bad", [None, (1, 1), 1])
def test_a_line_or_a_sum_refuses_a_summand_that_is_not_a_class(bad):
    # refused with one line when built, not as an AttributeError in a scan
    got = re.escape(f", got {bad!r}")
    with pytest.raises(DomainError, match=f"^line bundle class must be a DivisorClass{got}$"):
        Line(bad)
    with pytest.raises(DomainError, match=f"^direct sum summand must be a DivisorClass{got}$"):
        DirectSum([DivisorClass(1, 1), bad])


@pytest.mark.parametrize("scan", [scan_verdict, unconditional_scan, min_twist_with_sections])
@pytest.mark.parametrize("model", [object(), DivisorClass(1, 1), None], ids=["object", "class", "none"])
def test_a_scan_refuses_a_model_that_is_not_a_sheaf_model(scan, model):
    # `_components`' refusal, the one dispatch on the model's shape
    surface = Surface(1)
    with pytest.raises(DomainError) as refused:
        scan(surface, model, surface.m_class())
    assert str(refused.value) == f"not a sheaf model: {model!r}"


def test_a_direct_sum_holds_its_summands_as_a_tuple():
    # built from a list or from a generator, a sum is the one built from
    # the tuple of its summands: equal, hashable, with the same hash
    first, second = DivisorClass(1, 0), DivisorClass(0, -2)
    made = DirectSum((first, second))
    for built in (DirectSum([first, second]), DirectSum(c for c in (first, second))):
        assert type(built.classes) is tuple
        assert built == made and hash(built) == hash(made)
    assert DirectSum([first]) == DirectSum((first,))


# --- first twist with sections


FROZEN_MIN_TWIST = [
    # (e, model, by, m0)
    (1, Line(DivisorClass(-3, 2)), "M", 3),
    (1, Line(DivisorClass(0, 0)), "M", 0),
    (2, Line(DivisorClass(4, -5)), "F", 5),
    (1, DirectSum((DivisorClass(-5, 0), DivisorClass(0, -4))), "M", 4),
    (1, IdealSheafModel(PointConfig(3, Locus.GENERAL), DivisorClass(1, 1)), "M", 1),
    (1, IdealSheafModel(PointConfig(3, Locus.ON_FIBER), DivisorClass(2, 2)), "M", -1),
    (2, IdealSheafModel(PointConfig(2, Locus.ON_SECTION), DivisorClass(1, 1)), "M", 0),
]


@pytest.mark.parametrize("e,model,by_key,expected", FROZEN_MIN_TWIST)
def test_frozen_min_twist(e, model, by_key, expected):
    surface = Surface(e)
    by = surface.m_class() if by_key == "M" else DivisorClass(0, 1)
    assert min_twist_with_sections(surface, model, by) == expected


def test_min_twist_can_be_empty():
    surface = Surface(1)
    fiber = DivisorClass(0, 1)
    with pytest.raises(DomainError):
        min_twist_with_sections(surface, Line(DivisorClass(-2, 5)), fiber)
    with pytest.raises(DomainError):
        scan_verdict(surface, Line(DivisorClass(-2, 5)), fiber)


@settings(max_examples=200)
@given(surfaces, models)
def test_min_twist_is_sharp(surface, model):
    from hirzebruch.natural import _values_at

    by = surface.m_class()
    m0 = min_twist_with_sections(surface, model, by)
    assert _values_at(surface, model, m0, by)[0] > 0
    assert _values_at(surface, model, m0 - 1, by)[0] == 0


# --- frozen verdicts


def test_documented_failure_witness():
    surface = Surface(2)
    evidence = scan_verdict(surface, Line(DivisorClass(1, 0)), surface.m_class())
    assert not evidence.verdict.holds()
    assert evidence.verdict.witness_t == 0
    assert (evidence.verdict.witness_h0, evidence.verdict.witness_h1) == (1, 1)


def test_mixed_quadrant_failure_is_caught():
    # sections first appear at t=7 where the fiber coordinate hits 0 but
    # the slack is -12; h1 there is 66
    surface = Surface(1)
    evidence = scan_verdict(surface, Line(DivisorClass(5, -7)), surface.m_class())
    assert not line_natural_wrt_m(surface, DivisorClass(5, -7))
    assert evidence.verdict.witness_t == 7
    assert (evidence.verdict.witness_h0, evidence.verdict.witness_h1) == (1, 66)


def test_deep_negative_fiber_coordinate():
    surface = Surface(2)
    evidence = scan_verdict(surface, Line(DivisorClass(1, -9)), surface.m_class())
    assert evidence.verdict.witness_t == 5
    assert (evidence.verdict.witness_h0, evidence.verdict.witness_h1) == (2, 30)


def test_boundary_slack_holds():
    # slack exactly -1 is clean at every twist with sections
    surface = Surface(3)
    assert line_natural_wrt_m(surface, DivisorClass(-4, -13))
    evidence = scan_verdict(surface, Line(DivisorClass(-4, -13)), surface.m_class())
    assert evidence.verdict.holds()
    assert evidence.rows[0][0] == 5


def test_unconditional_band():
    surface = Surface(2)
    inside = DivisorClass(1, 1)
    outside = DivisorClass(1, 4)
    assert line_unconditional_wrt_m(surface, inside)
    assert unconditional_scan(surface, Line(inside), surface.m_class()).verdict.holds()
    assert not line_unconditional_wrt_m(surface, outside)
    evidence = unconditional_scan(surface, Line(outside), surface.m_class())
    assert not evidence.verdict.holds()
    # the first scanned row already fails: the left tail is uniformly bad
    assert evidence.verdict.witness_t == evidence.rows[0][0]


def test_ample_twist_rescues_negative_slack():
    # each twist by the minimal ample class buys one unit of slack, so
    # v + ceil(-v/(e+1)) >= eu - 1 decides; (1,-1) at e=2 just misses
    surface = Surface(2)
    assert not line_natural_wrt_r(surface, DivisorClass(1, -1))
    evidence = scan_verdict(surface, Line(DivisorClass(1, -1)), surface.r_class())
    assert evidence.verdict.witness_t == 1
    assert (evidence.verdict.witness_h0, evidence.verdict.witness_h1) == (4, 1)
    # two more units of fiber degree flip it
    assert line_natural_wrt_r(surface, DivisorClass(1, 1))
    assert scan_verdict(surface, Line(DivisorClass(1, 1)), surface.r_class()).verdict.holds()


@pytest.mark.parametrize("e", [1, 2, 3, 4])
def test_counterexample_sum_fails_at_zero(e):
    surface = Surface(e)
    first = DivisorClass(0, 0)
    second = DivisorClass(-2, 4 - e)
    assert line_natural_wrt_m(surface, first)
    assert line_natural_wrt_m(surface, second)
    assert not direct_sum_natural_wrt_m(surface, [first, second])
    evidence = scan_verdict(surface, DirectSum((first, second)), surface.m_class())
    assert evidence.verdict.witness_t == 0
    assert (evidence.verdict.witness_h0, evidence.verdict.witness_h1) == (1, 5)


def test_sum_with_one_bad_summand_fails():
    surface = Surface(1)
    assert not direct_sum_natural_wrt_m(surface, [DivisorClass(5, 5), DivisorClass(0, -2)])


# --- closed forms vs scans


@settings(max_examples=400)
@given(surfaces, classes)
def test_line_closed_forms_match_scans(surface, cls):
    m = surface.m_class()
    assert line_natural_wrt_m(surface, cls) == scan_verdict(surface, Line(cls), m).verdict.holds()
    assert (
        line_unconditional_wrt_m(surface, cls)
        == unconditional_scan(surface, Line(cls), m).verdict.holds()
    )
    assert (
        line_natural_wrt_r(surface, cls)
        == scan_verdict(surface, Line(cls), surface.r_class()).verdict.holds()
    )


@settings(max_examples=300)
@given(surfaces, st.lists(classes, min_size=1, max_size=5))
def test_sum_closed_form_matches_scan(surface, cs):
    closed = direct_sum_natural_wrt_m(surface, cs)
    scanned = scan_verdict(surface, DirectSum(tuple(cs)), surface.m_class()).verdict.holds()
    assert closed == scanned


def test_sum_criterion_against_wide_window():
    # independent referee: fixed generous window instead of the computed
    # stabilization bound
    rng = random.Random(421)
    m_cache = {e: Surface(e) for e in (1, 2, 3, 4)}
    for _ in range(400):
        e = rng.randint(1, 4)
        surface = m_cache[e]
        cs = [
            DivisorClass(rng.randint(-9, 9), rng.randint(-9, 9))
            for _ in range(rng.randint(1, 5))
        ]
        model = DirectSum(tuple(cs))
        by = surface.m_class()
        m0 = min_twist_with_sections(surface, model, by)
        from hirzebruch.natural import _values_at

        wide = all(
            _values_at(surface, model, t, by)[1] == 0 for t in range(m0, m0 + 41)
        )
        assert direct_sum_natural_wrt_m(surface, cs) == wide


# --- window sufficiency


def _components(model):
    if isinstance(model, DirectSum):
        return model.classes
    return (model.cls,)


def _run_start_bound(surface, model):
    """A twist past every start of a run of h1 > 0, for any spanned twisting class.

    A run starts where the h-coordinate a + t*c reaches 0 or the slack
    b - e*a + t*(d - e*c) reaches e; a form that moves gains at least 1
    per twist, so either happens by t = e + |b| + e*|a|.
    """
    e = surface.e
    return max(e + abs(c.b) + e * abs(c.a) for c in _components(model))


def _walked_verdict(surface, model, by, lo, hi, two_sided):
    """The verdict of the twists lo..hi, walked one by one: FAILS at the first
    with h1 > 0 (and h0 > 0 unless two-sided), else HOLDS."""
    from hirzebruch.natural import _values_at

    for t in range(lo, hi + 1):
        v0, v1 = _values_at(surface, model, t, by)
        if v1 > 0 and (two_sided or v0 > 0):
            return Verdict(Outcome.FAILS, witness_t=t, witness_h0=v0, witness_h1=v1)
    return Verdict(Outcome.HOLDS)


def _walk_past(surface, model, by, evidence, extra, two_sided):
    """Walk from `extra` twists below the window start (two-sided only) to
    `extra` twists past both the window end and every run start."""
    lo = evidence.scan_start - (extra if two_sided else 0)
    hi = max(evidence.scan_stop, _run_start_bound(surface, model)) + extra
    return _walked_verdict(surface, model, by, lo, hi, two_sided)


@settings(max_examples=300)
@given(surfaces, models)
def test_scan_window_is_stable(surface, model):
    by = surface.m_class()
    base = scan_verdict(surface, model, by)
    assert base.verdict == _walk_past(surface, model, by, base, 15, False)


@settings(max_examples=200)
@given(surfaces, st.one_of(lines, sums))
def test_unconditional_window_is_stable(surface, model):
    by = surface.m_class()
    base = unconditional_scan(surface, model, by)
    wide = _walk_past(surface, model, by, base, 15, True)
    assert base.verdict.outcome == wide.outcome


@settings(max_examples=150)
@given(surfaces, lines, st.integers(min_value=0, max_value=2))
def test_scan_windows_stable_for_other_spanned_classes(surface, model, pick):
    by = [DivisorClass(0, 1), surface.r_class(), DivisorClass(2, 2 * surface.e + 1)][pick]
    if by.a == 0 and model.cls.a < 0:
        return  # no twist ever has sections
    base = scan_verdict(surface, model, by)
    assert base.verdict == _walk_past(surface, model, by, base, 15, False)


@settings(max_examples=200)
@given(surfaces, ideals)
def test_ideal_scans_are_stable_and_named(surface, model):
    by = surface.m_class()
    base = scan_verdict(surface, model, by)
    assert base.verdict == _walk_past(surface, model, by, base, 15, False)
    # the boolean form: a scan verdict holds exactly when it has no witness
    assert base.verdict.holds() == (base.verdict.witness_t is None)


# --- scan evidence invariants


@settings(max_examples=200)
@given(surfaces, models)
def test_evidence_shape(surface, model):
    evidence = scan_verdict(surface, model, surface.m_class())
    ts = [row[0] for row in evidence.rows]
    assert ts == list(range(ts[0], ts[-1] + 1))
    assert ts[0] == min_twist_with_sections(surface, model, surface.m_class())
    assert all(row[1] > 0 for row in evidence.rows)  # sections persist
    if evidence.verdict.outcome is Outcome.FAILS:
        first_bad = next(row for row in evidence.rows if row[2] > 0)
        assert evidence.verdict.witness_t == first_bad[0]
    else:
        assert all(row[2] == 0 for row in evidence.rows)


# --- piecewise verdicts against the rows they stand for


def _twisting_class(surface, pick):
    e = surface.e
    return [
        surface.m_class(),
        surface.r_class(),
        DivisorClass(0, 1),
        DivisorClass(0, 2),
        DivisorClass(2, 2 * e + 1),
    ][pick]


@settings(max_examples=400)
@given(
    surfaces,
    models,
    st.integers(min_value=0, max_value=4),
    st.sampled_from([0, 7]),
    st.booleans(),
)
def test_piecewise_witness_is_first_bad_row(surface, model, pick, extra, two_sided):
    by = _twisting_class(surface, pick)
    try:
        if two_sided:
            evidence = unconditional_scan(surface, model, by)
        else:
            evidence = scan_verdict(surface, model, by)
    except DomainError:
        # only a fiber-type class against models with no effective twist
        assert by.a == 0
        return
    rows = evidence.rows
    assert (evidence.scan_start, evidence.scan_stop) == (rows[0][0], rows[-1][0])
    bad = [row for row in rows if row[2] > 0 and (two_sided or row[1] > 0)]
    verdict = evidence.verdict
    if bad:
        # a failing window ends at its witness
        assert verdict.outcome is Outcome.FAILS
        assert (verdict.witness_t, verdict.witness_h0, verdict.witness_h1) == bad[0] == rows[-1]
    else:
        assert verdict == Verdict(Outcome.HOLDS)
    walked = _walk_past(surface, model, by, evidence, extra, two_sided)
    if walked.outcome is Outcome.FAILS and walked.witness_t < evidence.scan_start:
        # every twist below a two-sided window has the verdict of its start
        assert two_sided and verdict.witness_t == evidence.scan_start
    else:
        assert walked == verdict


@settings(max_examples=300)
@given(
    surfaces,
    st.builds(
        IdealSheafModel,
        st.builds(
            PointConfig, st.integers(min_value=0, max_value=300), st.sampled_from(list(Locus))
        ),
        st.builds(
            DivisorClass,
            st.integers(min_value=-40, max_value=40),
            st.integers(min_value=-40, max_value=40),
        ),
    ),
    st.integers(min_value=0, max_value=4),
)
def test_ideal_min_twist_is_sharp_for_many_points(surface, model, pick):
    from hirzebruch.sheaves import h0_ideal

    by = _twisting_class(surface, pick)
    try:
        t = min_twist_with_sections(surface, model, by)
    except DomainError:
        assert by.a == 0 and model.cls.a < 0
        return
    assert h0_ideal(surface, IdealSheafModel(model.config, model.cls + t * by)) > 0
    assert h0_ideal(surface, IdealSheafModel(model.config, model.cls + (t - 1) * by)) == 0


def test_broken_section_bound_is_a_consistency_error(monkeypatch):
    import hirzebruch.natural as natural

    # the min-twist probe reads the ideal section kernel
    monkeypatch.setattr(natural, "ideal_sections", lambda e, z, locus, a, b: 0)
    surface = Surface(1)
    model = IdealSheafModel(PointConfig(3, Locus.GENERAL), DivisorClass(1, 1))
    with pytest.raises(ConsistencyError):
        min_twist_with_sections(surface, model, surface.m_class())


def test_a_run_start_with_no_h1_is_a_consistency_error(monkeypatch):
    import hirzebruch.natural as natural

    surface = Surface(1)
    m, fiber = surface.m_class(), DivisorClass(0, 1)
    # the second summand's run starts at t = 5, above the sum's m0 = 0;
    # the line's run starts where its slack reaches e, at t = 9
    late = DirectSum((DivisorClass(0, 0), DivisorClass(-5, -20)))
    left = Line(DivisorClass(-3, -11))
    assert scan_verdict(surface, late, m).verdict.witness_t == 5
    assert unconditional_scan(surface, left, fiber).verdict.witness_t == 9
    # a kernel that never sees h1 contradicts the runs
    monkeypatch.setattr(natural, "counts", lambda e, a, b: (1, 0, 0))
    with pytest.raises(ConsistencyError, match=r"^h1 = 0 at the run start t = 5 of "):
        scan_verdict(surface, late, m)
    with pytest.raises(ConsistencyError, match=r"^h1 = 0 at the run start t = 9 of "):
        unconditional_scan(surface, left, fiber)


@settings(max_examples=300)
@given(surfaces, st.lists(classes, min_size=1, max_size=5))
def test_sum_head_realizes_min_twist(surface, cs):
    # the sum criterion reads the minimal twist off the greatest summand by
    # (u, v), the head of the sorted sum; it is only used once every
    # summand has v_i >= e*u_i - 1
    e = surface.e
    cs = [DivisorClass(c.a, max(c.b, e * c.a - 1)) for c in cs]
    top = sorted(cs, key=lambda c: (-c.a, -c.b))[0]
    m = -top.a if top.b >= e * top.a else -top.a + 1
    assert m == min_twist_with_sections(surface, DirectSum(tuple(cs)), surface.m_class())


@pytest.mark.parametrize("locus", list(Locus))
def test_the_ideal_min_twist_makes_a_fixed_number_of_kernel_calls(monkeypatch, locus):
    import hirzebruch.natural as natural
    import hirzebruch.sheaves as sheaves
    from hirzebruch.sheaves import h0_ideal

    calls = Counter()

    def count(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args: calls.update([name]) or real(*args)
        )

    count(natural, "ideal_sections")
    count(natural, "ideal_sections_twist")
    count(sheaves, "sections_twist")
    surface = Surface(2)
    for by in (surface.m_class(), surface.r_class(), DivisorClass(0, 1), DivisorClass(2, 5)):
        for cls in (DivisorClass(0, -3), DivisorClass(1, -3), DivisorClass(2, 7)):
            seen = set()
            for z in (10, 10**6, 10**12, 10**30):
                calls.clear()
                model = IdealSheafModel(PointConfig(z, locus), cls)
                t = min_twist_with_sections(surface, model, by)
                seen.add(tuple(sorted(calls.items())))
                # a probe at the line bundle's first twist with sections;
                # past it one inverse and two certifying probes
                assert sum(calls.values()) <= 6
                assert h0_ideal(surface, IdealSheafModel(model.config, cls + t * by)) > 0
                assert h0_ideal(surface, IdealSheafModel(model.config, cls + (t - 1) * by)) == 0
            # the same calls at every point count
            assert len(seen) == 1, (by, cls, seen)


# --- inputs typed at the boundary


@pytest.mark.parametrize("bad", [1.5, 2.0, True])
def test_scans_reject_non_integer_inputs(bad):
    # each case builds its model and twisting class inside the check,
    # where their types refuse the bad coordinate or point count
    surface = Surface(1)
    m = surface.m_class()
    general = PointConfig(2, Locus.GENERAL)
    cases = [
        lambda: (Line(DivisorClass(bad, 2)), m),
        lambda: (Line(DivisorClass(1, bad)), m),
        lambda: (DirectSum((DivisorClass(0, 0), DivisorClass(bad, 1))), m),
        lambda: (IdealSheafModel(general, DivisorClass(2, bad)), m),
        lambda: (IdealSheafModel(PointConfig(bad, Locus.ON_FIBER), DivisorClass(2, 2)), m),
        lambda: (Line(DivisorClass(1, 1)), DivisorClass(bad, 3)),
        lambda: (Line(DivisorClass(1, 1)), DivisorClass(0, bad)),
    ]
    for case in cases:
        for call in (scan_verdict, unconditional_scan, min_twist_with_sections):
            with pytest.raises(DomainError):
                call(surface, *case())


# --- windows from the runs of h1 > 0


def test_windows_do_not_grow_with_coefficients():
    surface = Surface(1)
    fiber = DivisorClass(0, 1)
    many = IdealSheafModel(PointConfig(10**5, Locus.GENERAL), DivisorClass(0, 0))
    for evidence in [
        unconditional_scan(surface, Line(DivisorClass(5, -200000)), fiber),
        scan_verdict(surface, Line(DivisorClass(10**5, 0)), fiber),
        scan_verdict(surface, many, surface.m_class()),
    ]:
        assert evidence.scan_stop - evidence.scan_start + 1 <= 3
        v = evidence.verdict
        if v.witness_t is not None:
            from hirzebruch.natural import _values_at

            values = _values_at(surface, evidence.model, v.witness_t, evidence.by)
            assert values == (v.witness_h0, v.witness_h1)


def test_scans_against_independent_wide_window():
    # With |a|, |b| <= K and by = (c, d) spanned, every form a + t*c and
    # b - e*a + t*(d - e*c) that moves crosses 0, -1 and e within
    # |t| <= (e + 1)*K + e + 1, and a model of z points has sections from
    # t = z + K on.  Past |t| = z + (e + 2)*(K + 2) every component sits in
    # one trichotomy branch for good, so the rows out there repeat the
    # verdict of the rows inside.
    rng = random.Random(977)
    K, Z = 6, 8
    for _ in range(120):
        e = rng.randint(1, 4)
        surface = Surface(e)
        cls = lambda: DivisorClass(rng.randint(-K, K), rng.randint(-K, K))
        kind = rng.randrange(3)
        if kind == 0:
            model = Line(cls())
        elif kind == 1:
            model = DirectSum(tuple(cls() for _ in range(rng.randint(1, 5))))
        else:
            config = PointConfig(rng.randint(0, Z), rng.choice(list(Locus)))
            model = IdealSheafModel(config, cls())
        width = Z + (e + 2) * (K + 2)
        for pick in range(5):
            by = _twisting_class(surface, pick)
            two = unconditional_scan(surface, model, by).verdict
            assert two.outcome is _walked_verdict(surface, model, by, -width, width, True).outcome
            walked = _walked_verdict(surface, model, by, -width, width, False)
            try:
                one = scan_verdict(surface, model, by).verdict
            except DomainError:
                from hirzebruch.natural import _values_at

                assert by.a == 0
                assert _values_at(surface, model, width, by)[0] == 0
                continue
            assert one == walked


# --- no object per evaluated twist


def test_scans_build_no_class_or_triple_per_evaluated_twist(built, monkeypatch):
    import hirzebruch.natural as natural

    # count the twists the verdicts evaluate, through the two kernels
    evaluated = []
    for name in ("counts", "ideal_counts"):
        real = getattr(natural, name)
        monkeypatch.setattr(
            natural, name, lambda *args, _real=real: evaluated.append(args) or _real(*args)
        )
    big = 10_000
    decided = 0
    for e in (1, 3):
        surface = Surface(e)
        bys = [surface.m_class(), surface.r_class(), DivisorClass(0, 1), DivisorClass(2, 2 * e + 3)]
        models = [
            Line(DivisorClass(3, -big)),
            Line(DivisorClass(-big, 7)),
            Line(DivisorClass(big, e * big - 2)),
            DirectSum((DivisorClass(big, -big), DivisorClass(-3, e * big), DivisorClass(2, 2))),
            *(IdealSheafModel(PointConfig(big, locus), DivisorClass(5, -big)) for locus in Locus),
        ]
        for by in bys:
            for model in models:
                for scan in (scan_verdict, unconditional_scan):
                    built.clear()
                    try:
                        scan(surface, model, by)
                    except DomainError:
                        pass  # no twist of the model by a fiber class has sections
                    else:
                        decided += 1
                    assert sum(built.values()) == 0, (scan.__name__, model, by, built)
    assert decided >= 50
    assert len(evaluated) >= decided


# --- what a verdict builds


def test_a_scan_builds_one_evidence_and_a_verdict_only_when_it_fails(monkeypatch):
    made = Counter()
    for cls in (Verdict, ScanEvidence):

        def counting(obj, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            made[_name] += 1
            _init(obj, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    rng = random.Random(1414)
    seen = Counter()
    for e in (1, 2, 3):
        surface = Surface(e)
        draw = lambda: DivisorClass(rng.randint(-8, 8), rng.randint(-8, 8))
        models = [
            *(Line(draw()) for _ in range(6)),
            *(DirectSum(tuple(draw() for _ in range(rng.randint(1, 4)))) for _ in range(6)),
            *(
                IdealSheafModel(PointConfig(rng.randint(0, 6), locus), draw())
                for locus in Locus
                for _ in range(4)
            ),
        ]
        for pick in range(5):
            by = _twisting_class(surface, pick)
            for model in models:
                for scan in (scan_verdict, unconditional_scan):
                    made.clear()
                    try:
                        evidence = scan(surface, model, by)
                    except DomainError:
                        assert made == {}
                        continue
                    fails = evidence.verdict.outcome is Outcome.FAILS
                    assert made == Counter(ScanEvidence=1, Verdict=int(fails))
                    if not fails:
                        assert evidence.verdict == Verdict(Outcome.HOLDS)
                    frozen = ((evidence, "scan_stop"), (evidence.verdict, "witness_t"))
                    for obj, field in frozen:
                        with pytest.raises(AttributeError):
                            setattr(obj, field, 0)
                    seen[type(model).__name__, fails] += 1
    assert set(seen) == {(kind, fails) for kind in ("Line", "DirectSum", "IdealSheafModel")
                         for fails in (False, True)}


@pytest.mark.parametrize("e", [1, 2, 3])
def test_a_line_and_its_one_summand_sum_have_one_min_twist(e):
    surface = Surface(e)
    bys = [_twisting_class(surface, pick) for pick in range(5)]
    for a in range(-6, 7):
        for b in range(-9, 10):
            cls = DivisorClass(a, b)
            for by in bys:
                answers = []
                for model in (Line(cls), DirectSum((cls,))):
                    try:
                        answers.append(min_twist_with_sections(surface, model, by))
                    except DomainError as err:
                        answers.append(str(err))
                assert answers[0] == answers[1]
                if by.a == 0 and a < 0:
                    assert answers[0] == f"no twist of {cls} by {by} has sections"
