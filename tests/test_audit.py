"""The claim auditor: agreements and the expected discrepancy findings."""

import random
import re
from types import SimpleNamespace

import pytest

from hirzebruch import (
    CLAIMS,
    ChernData,
    ConstructionError,
    DivisorClass,
    DomainError,
    Line,
    Outcome,
    Surface,
    Verdict,
    construct_extension,
    h1,
    line_natural_wrt_m,
    run_audit,
)

ALL_CLAIMS = [
    "ample-self-twists",
    "line-twist-criterion",
    "line-ample-r-criterion",
    "direct-sum-splitting",
    "rank1-points",
    "sum-criterion",
    "nonexistence-region",
    "construction-bounds",
    "stability-exclusion",
    "extension-natural",
]


def test_the_sum_draw_reads_the_randint_stream():
    # the claim draws its samples with `getrandbits`, as `randint` does on
    # this interpreter; the samples and the state they leave must be
    # those of the plain `randint` draw, seeded per surface as the claim is
    from hirzebruch.audit import _random_sum

    def by_randint(rng):
        count = rng.randint(1, 4)
        return [DivisorClass(rng.randint(-8, 8), rng.randint(-8, 8)) for _ in range(count)]

    for e in range(1, 9):
        fast, plain = random.Random(1000 * e + 17), random.Random(1000 * e + 17)
        assert [_random_sum(fast) for _ in range(120)] == [by_randint(plain) for _ in range(120)]
        assert fast.getstate() == plain.getstate()


def test_registry_is_complete_and_ordered():
    assert list(CLAIMS) == ALL_CLAIMS


def test_audit_is_idempotent():
    first = run_audit()
    second = run_audit()
    assert first == second


def test_statuses_are_legal():
    for finding in run_audit():
        assert finding.status in {"agrees", "discrepancy", "indeterminate"}
        assert finding.claim in CLAIMS
        assert finding.e in (1, 2, 3, 4)
        assert finding.subject and finding.detail


def test_unknown_claim_is_rejected():
    with pytest.raises(DomainError):
        run_audit(claims=["no-such-claim"])


def test_a_bare_string_is_not_a_collection():
    # a string would be read one character at a time
    with pytest.raises(DomainError, match=r"^claims must be a collection"):
        run_audit([1], "direct-sum-splitting")
    with pytest.raises(DomainError, match=r"^e_values must be a collection"):
        run_audit("12", ["rank1-points"])


@pytest.mark.parametrize(
    "args, message",
    [
        ((5,), "e_values must be a collection, got 5"),
        (([1], 5), "claims must be a collection, got 5"),
        ((None,), "e_values must be a collection, got None"),
        (([1], [["x"]]), "unknown claim(s) [['x']]"),
        (([1], [{}, "rank1-points"]), "unknown claim(s) [{}]"),
    ],
    ids=["int-e-values", "int-claims", "none-e-values", "list-claim", "dict-claim"],
)
def test_a_non_collection_or_an_unhashable_claim_is_a_domain_error(args, message):
    # one DomainError line each, not a bare TypeError ("not iterable",
    # "unhashable") from the loops below the checks
    with pytest.raises(DomainError, match=f"^{re.escape(message)}") as raised:
        run_audit(*args)
    assert "\n" not in str(raised.value)


def test_claim_filter():
    findings = run_audit(claims=["rank1-points"])
    assert findings
    assert all(f.claim == "rank1-points" for f in findings)
    assert all(f.status == "agrees" for f in findings)


def test_e_filter():
    findings = run_audit(e_values=(2,))
    assert findings
    assert all(f.e == 2 for f in findings)


def status_pairs(findings, claim):
    return {(f.e, f.status) for f in findings if f.claim == claim}


def test_expected_discrepancy_inventory():
    findings = run_audit()

    # self-twist vanishing: confirmed everywhere, but from e=2 on a
    # spanned non-ample class does the same job, which the claim excludes
    pairs = status_pairs(findings, "ample-self-twists")
    assert (1, "discrepancy") not in pairs
    for e in (2, 3, 4):
        assert (e, "agrees") in pairs and (e, "discrepancy") in pairs

    # the one-sided and two-sided slack criteria agree on the nose
    assert status_pairs(findings, "line-twist-criterion") == {
        (e, "agrees") for e in (1, 2, 3, 4)
    }

    # ample-twist criterion: correct once the budget is one per twist;
    # the e-scaled reading breaks for e >= 2 (at e=1 the two coincide)
    pairs = status_pairs(findings, "line-ample-r-criterion")
    assert (1, "agrees") in pairs and (1, "discrepancy") not in pairs
    for e in (2, 3, 4):
        assert (e, "discrepancy") in pairs

    # the counterexample sum confirms non-closure under direct sums
    assert status_pairs(findings, "direct-sum-splitting") == {
        (e, "agrees") for e in (1, 2, 3, 4)
    }

    # sign variant of the sum criterion is refuted at every e
    pairs = status_pairs(findings, "sum-criterion")
    for e in (1, 2, 3, 4):
        assert (e, "agrees") in pairs and (e, "discrepancy") in pairs

    # bare arithmetic sums for the section bounds: off at every e
    pairs = status_pairs(findings, "construction-bounds")
    for e in (1, 2, 3, 4):
        assert (e, "agrees") in pairs and (e, "discrepancy") in pairs

    assert status_pairs(findings, "nonexistence-region") == {
        (e, "agrees") for e in (1, 2, 3, 4)
    }
    assert status_pairs(findings, "stability-exclusion") == {
        (e, "agrees") for e in (1, 2, 3, 4)
    }

    # extension audit: verified at e=1, refuted at the e=2 boundary,
    # indeterminate elsewhere (the sub keeps h1 = e-1 alive)
    pairs = status_pairs(findings, "extension-natural")
    assert (1, "agrees") in pairs
    assert (2, "discrepancy") in pairs
    assert (2, "indeterminate") in pairs
    assert (3, "indeterminate") in pairs
    assert (4, "indeterminate") in pairs


def test_forced_split_witness_values_are_reported():
    findings = run_audit(e_values=(2,), claims=["extension-natural"])
    boundary = [f for f in findings if f.status == "discrepancy"]
    assert len(boundary) == 1
    assert "(h0,h1)=(3,1)" in boundary[0].detail
    assert "t=0" in boundary[0].detail or "at t=0" in boundary[0].detail


@pytest.mark.parametrize("e", range(1, 7))
def test_claim_samples_meet_their_preconditions(e):
    # the fixed samples the claims are built on, restated
    surface = Surface(e)
    for ample in (DivisorClass(1, e + 1), DivisorClass(1, e + 2), DivisorClass(2, 2 * e + 1)):
        assert surface.positivity(ample).ample  # ample-self-twists
    for part in (DivisorClass(0, 0), DivisorClass(-2, 4 - e)):
        assert line_natural_wrt_m(surface, part)  # direct-sum-splitting
    assert h1(surface, DivisorClass(1, 0)) == e - 1  # extension-natural, sub side
    if e == 2:
        assert construct_extension(surface, 2, 1, 0, 0).ext_forced_split


def test_construction_bounds_sees_a_false_certificate(monkeypatch):
    import hirzebruch.audit as audit

    real = audit.construct_extension

    def planted(*args):
        # the certificate is derived, so a false one is planted past the frozen record
        datum = real(*args)
        object.__setattr__(datum, "section_min", False)
        return datum

    monkeypatch.setattr(audit, "construct_extension", planted)
    findings = run_audit([1], ["construction-bounds"])
    false_certificates = [
        f for f in findings
        if f.status == "discrepancy" and f.subject.endswith("certificate false")
    ]
    assert false_certificates


def _negated(real):
    return lambda *args: not real(*args)


def _flipped_stability(real):
    # a certificate that says the opposite: not certified, with a warning
    # where the real one has none and none where it has one
    def planted(datum, polarization):
        report = real(datum, polarization)
        return SimpleNamespace(
            certified=not report.certified,
            candidates=report.candidates,
            warnings=() if report.warnings else ("planted warning",),
        )

    return planted


def _sometimes_refused(real):
    # odd u: the construction refuses with the wrong reason; even u: it
    # accepts anything, an obstructed class included
    def planted(surface, u, v, m, s):
        if u % 2:
            raise ConstructionError("hypothesis_m", "planted refusal")
        return None

    return planted


def _off_by_one_c2(real):
    def planted(surface, vanishing, m, c1, s):
        chern = real(surface, vanishing, m, c1, s)
        return ChernData(2, chern.c1, chern.c2 + 1)

    return planted


def _misplaced_failure(real):
    # every audit fails, but at the wrong twist
    failed = SimpleNamespace(verdict=Verdict(Outcome.FAILS, 5, 1, 1))
    return lambda datum: failed


# each claim with a planted fault: (names in `audit`'s namespace -> the
# fault built from the real function, e values, texts that the claim's
# discrepancy findings must carry, in subject or detail)
PLANTED_FAULTS = {
    "ample-self-twists": (
        # the scan answers for the class fattened by two more fibers
        {"unconditional_scan": lambda real: lambda s, model, by: real(s, model, by + DivisorClass(0, 2))},
        [1],
        ["expected vanishing w.r.t."],
    ),
    "line-twist-criterion": (
        {"line_natural_wrt_m": _negated, "line_unconditional_wrt_m": _negated},
        [1],
        ["closed form says", "band form says"],
    ),
    "line-ample-r-criterion": (
        {"line_natural_wrt_r": _negated},
        [1],
        ["closed form says"],
    ),
    "direct-sum-splitting": (
        # the scan answers for the trivial line bundle, which is natural
        {"scan_verdict": lambda real: lambda s, model, by: real(s, Line(DivisorClass(0, 0)), by)},
        [1],
        ["expected failure at t=0, scan verdict is HOLDS"],
    ),
    "rank1-points": (
        # the scan forgets the points
        {"scan_verdict": lambda real: lambda s, model, by: real(s, Line(model.cls), by)},
        [1],
        ["expected holds=False for the whole family"],
    ),
    "sum-criterion": (
        {"direct_sum_natural_wrt_m": _negated},
        [1],
        ["closed form says"],
    ),
    "nonexistence-region": (
        {
            "c1_obstructed": lambda real: lambda s, rank, u, v: real(s, rank, u, v - 1),
            "line_natural_wrt_m": _negated,
            "construct_extension": _sometimes_refused,
        },
        [1],
        [
            "threshold not sharp",
            "obstructed class is natural",
            "unobstructed class is not natural",
            "construction rejected (hypothesis_m)",
            "wrong rejection hypothesis_m",
            "construction accepted an obstructed class",
            "threshold checks failed",
        ],
    ),
    "construction-bounds": (
        {
            # the two ends of the range swapped, and a c2 one too high
            "section_count_bounds": lambda real: lambda *args: real(*args)[::-1],
            "chern_of_extension": _off_by_one_c2,
        },
        [1],
        ["bounds inverted", "presentation c2 disagrees", "construction invariant failed"],
    ),
    "stability-exclusion": (
        {"stability_certificate": _flipped_stability},
        [1],
        [
            "R: survivors",
            "M: unexpected warnings",
            "hypothesis warning did not fire",
            "stability sample failed",
        ],
    ),
    "extension-natural": (
        {"audit_extension_natural": _misplaced_failure},
        [1, 2],
        [
            "expected Holds throughout",
            "expected a forced-split failure at t=0, got Verdict(outcome=<Outcome.FAILS",
            "the claim is not desk-checkable at this e",
        ],
    ),
}


def test_every_claim_has_a_planted_fault():
    assert list(PLANTED_FAULTS) == ALL_CLAIMS


@pytest.mark.parametrize("claim", ALL_CLAIMS)
def test_a_planted_fault_is_a_discrepancy_of_its_own_claim(claim, monkeypatch):
    # a wrong closed form, scan, bound or certificate planted where the
    # claim looks it up shows as a discrepancy with the claim's own words
    import hirzebruch.audit as audit

    plants, e_values, texts = PLANTED_FAULTS[claim]
    clean = {(f.subject, f.detail) for f in run_audit(e_values, [claim]) if f.status == "discrepancy"}
    for name, fault in plants.items():
        monkeypatch.setattr(audit, name, fault(getattr(audit, name)))
    findings = run_audit(e_values, [claim])
    assert {f.claim for f in findings} == {claim}
    planted = [
        f"{f.subject} | {f.detail}"
        for f in findings
        if f.status == "discrepancy" and (f.subject, f.detail) not in clean
    ]
    for text in texts:
        assert any(text in line for line in planted), (text, planted)
