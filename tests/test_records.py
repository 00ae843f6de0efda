"""The package's value types: frozen records compared by value, printed
as a dataclass of the same fields prints."""

import copy
import pickle

import pytest

from hirzebruch import (
    ConstructionError,
    DirectSum,
    DivisorClass,
    Finding,
    IdealSheafModel,
    Line,
    Locus,
    ExtensionDatum,
    Outcome,
    PointConfig,
    Surface,
    Verdict,
    audit_extension_natural,
    classify_region,
    cohomology_interval,
    construct_extension,
    scan_verdict,
    stability_certificate,
    triple,
)
from hirzebruch.bundles import CohomologyInterval, ExtensionAudit
from hirzebruch.cli import Report
from hirzebruch.natural import ScanEvidence
from hirzebruch.picard import Record
from hirzebruch.sheaves import ideal_counts

DATUM = (
    "ExtensionDatum(surface=Surface(e=1), m=0, sub=DivisorClass(a=1, b=0), "
    "quotient=IdealSheafModel(config=PointConfig(z=3, locus=<Locus.GENERAL: 'general'>), "
    "cls=DivisorClass(a=2, b=2)), u=3, v=2, s=3, s_range=(3, 6), section_min=True, "
    "cayley_bacharach=True, ext_forced_split=False)"
)
FAILS = "Verdict(outcome=<Outcome.FAILS: 'FAILS'>, witness_t=0, witness_h0=1, witness_h1=1)"


def _samples():
    """(record, its repr) for one instance of each value type, built afresh
    on each call."""
    e1, e2 = Surface(1), Surface(2)
    datum = construct_extension(e1, 3, 2, 0, 3)
    audit = audit_extension_natural(datum)
    stability = stability_certificate(datum, "R")
    return [
        (DivisorClass(1, 2), "DivisorClass(a=1, b=2)"),
        (
            e1.positivity(DivisorClass(1, 2)),
            "PositivityReport(effective=True, spanned=True, ample=True)",
        ),
        (e1, "Surface(e=1)"),
        (triple(e1, DivisorClass(1, 1)), "CohomologyTriple(h0=3, h1=0, h2=0)"),
        (PointConfig(3, Locus.GENERAL), "PointConfig(z=3, locus=<Locus.GENERAL: 'general'>)"),
        (
            IdealSheafModel(PointConfig(2, Locus.ON_FIBER), DivisorClass(2, 2)),
            "IdealSheafModel(config=PointConfig(z=2, locus=<Locus.ON_FIBER: 'fiber'>), "
            "cls=DivisorClass(a=2, b=2))",
        ),
        (Line(DivisorClass(1, 0)), "Line(cls=DivisorClass(a=1, b=0))"),
        (
            DirectSum((DivisorClass(0, -2), DivisorClass(1, 0))),
            "DirectSum(classes=(DivisorClass(a=0, b=-2), DivisorClass(a=1, b=0)))",
        ),
        (Verdict(Outcome.FAILS, 0, 1, 1), FAILS),
        (
            scan_verdict(e2, Line(DivisorClass(1, 0)), e2.m_class()),
            f"ScanEvidence(verdict={FAILS}, scan_start=0, scan_stop=0, surface=Surface(e=2), "
            "model=Line(cls=DivisorClass(a=1, b=0)), by=DivisorClass(a=1, b=2))",
        ),
        (datum.chern(), "ChernData(rank=2, c1=DivisorClass(a=3, b=2), c2=3)"),
        (datum, DATUM),
        (
            cohomology_interval(datum, 0),
            "CohomologyInterval(h0_min=4, h0_max=4, h1_min=0, h1_max=0, h2_min=0, h2_max=0, "
            "chi=4)",
        ),
        (
            audit.rows[0],
            "ExtensionAuditRow(t=-1, interval=CohomologyInterval(h0_min=0, h0_max=0, "
            "h1_min=0, h1_max=0, h2_min=0, h2_max=0, chi=0), outcome=<Outcome.HOLDS: 'HOLDS'>)",
        ),
        (
            audit,
            "ExtensionAudit(verdict=Verdict(outcome=<Outcome.HOLDS: 'HOLDS'>, witness_t=None, "
            f"witness_h0=None, witness_h1=None), scan_start=-1, scan_stop=1, datum={DATUM})",
        ),
        (
            stability.candidates[0],
            "DestabilizerCandidate(cls=DivisorClass(a=1, b=2), reason='genericity', tail=False)",
        ),
        (
            stability,
            "StabilityReport(polarization=<Polarization.R: 'R'>, certified=True, warnings=(), "
            f"datum={DATUM})",
        ),
        (
            classify_region(e1, 2, (1, 1), (0, 0), 1)[0],
            "RegionCell(u=1, v=0, label=<RegionLabel.EXISTENT: 'Existent'>, witness=((0, 5),))",
        ),
        (
            Finding("sum-criterion", 1, "agrees", "12 sums", "every verdict matches"),
            "Finding(claim='sum-criterion', e=1, status='agrees', subject='12 sums', "
            "detail='every verdict matches')",
        ),
        (
            Report("coh", {"e": 1}, {"h0": 3}, ["h0"], [{"h0": 3}], ["h0=3"]),
            "Report(command='coh', inputs={'e': 1}, results={'h0': 3}, columns=['h0'], "
            "rows=[{'h0': 3}], table_lines=['h0=3'], findings=[], exit_code=0)",
        ),
    ]


def test_one_sample_per_value_type():
    assert len({type(record) for record, _ in _samples()}) == 20


@pytest.mark.parametrize("index", range(20), ids=lambda i: type(_samples()[i][0]).__name__)
def test_a_record_is_a_frozen_value(index):
    (record, shown), (twin, _) = _samples()[index], _samples()[index]
    assert repr(record) == shown
    assert twin is not record and twin == record
    names = type(record)._fields
    values = tuple(getattr(record, name) for name in names)
    assert record != values
    if type(record) is Report:
        with pytest.raises(TypeError):  # its fields are lists and dicts
            hash(record)
    else:
        assert hash(record) == hash(twin) == hash(values)
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == values
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize(
    "restore",
    [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_a_construction_error_survives_pickle_and_copy(restore):
    # a worker process that refuses a datum sends its ConstructionError
    # back by pickling it; each refusal keeps its type, reason and message
    surface = Surface(2)
    refusals = [
        ((3, 1, 0, 0), "hypothesis_v", "need v >= e(u-1)-1 = 3, got v = 1"),
        ((2, 3, -1, 0), "hypothesis_m", "need m >= 0, got m = -1"),
        ((2, 3, 0, 99), "s_out_of_range", "need 2 <= s <= 6, got s = 99"),
    ]
    for args, reason, message in refusals:
        with pytest.raises(ConstructionError) as info:
            construct_extension(surface, *args)
        twin = restore(info.value)
        assert type(twin) is ConstructionError
        assert (twin.reason, str(twin)) == (info.value.reason, str(info.value)) == (reason, message)


def test_records_of_different_types_are_unequal():
    # equal field values (1 == True, 0 == False), different classes:
    # unequal, though the hashes agree
    values = triple(Surface(1), DivisorClass(0, 0))
    cones = Surface(1).positivity(DivisorClass(1, 0))
    assert (values.h0, values.h1, values.h2) == (cones.effective, cones.spanned, cones.ample)
    assert values != cones and hash(values) == hash(cones)

    class Shifted(DivisorClass):
        __slots__ = ()

    assert Shifted(1, 2) != DivisorClass(1, 2) and Shifted(1, 2) == Shifted(1, 2)
    assert repr(Shifted(1, 2)).endswith("Shifted(a=1, b=2)")
    samples = [record for record, _ in _samples()]
    for a in samples:
        assert [b for b in samples if a == b] == [a]


def _record_types(root=Record):
    """Every `Record` subclass the package defines."""
    for cls in root.__subclasses__():
        if cls.__module__.startswith("hirzebruch."):
            yield cls
        yield from _record_types(cls)


def test_each_slotted_type_writes_through_its_own_slot_setters():
    # `Record.__init_subclass__` binds each slot's own setter, in
    # `__slots__` order; the dict layouts bind none
    slotted = [cls for cls in _record_types() if vars(cls).get("__slots__")]
    assert sorted(cls.__name__ for cls in slotted) == sorted([
        "DivisorClass", "Surface", "PositivityReport", "CohomologyTriple", "PointConfig",
        "IdealSheafModel", "Line", "DirectSum", "ChernData", "ExtensionDatum",
        "ExtensionAuditRow", "DestabilizerCandidate", "StabilityReport", "RegionCell", "Finding",
    ])
    for cls in slotted:
        slots = vars(cls)["__slots__"]
        assert cls._fields == slots
        assert [put.__name__ for put in cls._put] == ["__set__"] * len(slots)
        assert [put.__self__ for put in cls._put] == [vars(cls)[name] for name in slots]
    for cls in (Verdict, ScanEvidence, CohomologyInterval, ExtensionAudit, Report):
        assert "__slots__" not in vars(cls) and not hasattr(cls, "_put")


def test_a_subclass_builds_through_its_parents_setters():
    class Shifted(DivisorClass):
        __slots__ = ()

    shifted = Shifted(1, 2)
    assert Shifted._put is DivisorClass._put and Shifted._fields == ("a", "b")
    assert (shifted.a, shifted.b) == (1, 2) and not hasattr(shifted, "__dict__")
    # slots of its own would hand the parent's `__init__` the wrong setters
    with pytest.raises(TypeError, match="adds slots"):

        class Wider(DivisorClass):
            __slots__ = ("c",)


def test_keyword_construction_and_defaults():
    assert DivisorClass(b=2, a=1) == DivisorClass(1, 2)
    assert Verdict(outcome=Outcome.HOLDS).witness_t is None
    first = Report("coh", {}, {}, [], [], [])
    assert (first.findings, first.exit_code) == ([], 0)
    assert first.findings is not Report("coh", {}, {}, [], [], []).findings


@pytest.mark.parametrize(
    "restore", [copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))], ids=["deepcopy", "pickle"]
)
def test_enum_members_keep_their_identity_through_pickle_and_copy(restore):
    # the kernels compare loci and outcomes by identity with members bound
    # at import, so a restored record must hold those very members and
    # get the same answers as the original
    e2 = Surface(2)
    for locus in Locus:
        config = PointConfig(3, locus)
        twin = restore(config)
        assert twin.locus is locus
        for a, b in [(0, 0), (1, 1), (2, 5), (3, -1), (-3, 2)]:
            assert ideal_counts(2, twin.z, twin.locus, a, b) == ideal_counts(2, 3, locus, a, b)
        model = IdealSheafModel(config, DivisorClass(1, 1))
        for by in (e2.m_class(), e2.r_class(), DivisorClass(0, 1)):
            assert scan_verdict(e2, restore(model), by) == scan_verdict(e2, model, by)
    # hand-built ends on general points, one datum per point count: the
    # audit's window end with and without its reach past the settle twist
    for z in (0, 3, 9):
        general = IdealSheafModel(PointConfig(z, Locus.GENERAL), DivisorClass(3, 5))
        datum = ExtensionDatum(e2, 1, DivisorClass(0, -2), general)
        assert audit_extension_natural(restore(datum)) == audit_extension_natural(datum)
    fails = restore(Verdict(Outcome.FAILS, 0, 1, 1))
    assert fails.outcome is Outcome.FAILS and not fails.holds()
    assert restore(Verdict(Outcome.HOLDS)).holds()
    # a HOLDS, a FAILS and an INDETERMINATE audit
    for e, u, v, m, s in [(1, 3, 2, 0, 3), (2, 2, 1, 0, 0), (2, 3, 3, 0, 3)]:
        datum = construct_extension(Surface(e), u, v, m, s)
        audit = audit_extension_natural(restore(datum))
        assert audit == audit_extension_natural(datum)
        assert audit.verdict.outcome is restore(audit).verdict.outcome
