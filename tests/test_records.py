"""Contract of the result and parameter records.

Every record keeps its repr text, its immutability, value equality and
hashing, its constructor defaults and, for the parameter records and
`bitseq.as_shifts`, the exact validation messages.
"""

import copy
import pickle

import pytest

from seqmeter.bitseq import as_shifts
from seqmeter.bounds import TABLE_FAMILIES, BoundReport, FamilyRow
from seqmeter.codes import CyclicSpan, PeakCertificate
from seqmeter.complexity import ComplexityProfile
from seqmeter.correlation import CorrelationResult
from seqmeter.generators import FermatSpec, HallSpec, LfsrSpec
from seqmeter.verify import CheckResult

# name -> (factory, repr text); each factory builds a fresh, equal instance
RECORDS = {
    "ComplexityProfile": (
        lambda: ComplexityProfile("linear", (0, 1, 1), (1, 0)),
        "ComplexityProfile(kind='linear', values=(0, 1, 1), coefficients=(1, 0))",
    ),
    "CyclicSpan": (
        lambda: CyclicSpan(7, 3, (9, 18, 36), (0, 1, 2), 116),
        "CyclicSpan(period=7, dimension=3, basis=(9, 18, 36), pivots=(0, 1, 2), block=116)",
    ),
    "PeakCertificate": (
        lambda: PeakCertificate(3, (0, 1, 3), "periodic-full", 7, "anchored"),
        "PeakCertificate(order=3, shifts=(0, 1, 3), kind='periodic-full', "
        "verified_value=7, note='anchored')",
    ),
    "CorrelationResult": (
        lambda: CorrelationResult(2, 5, 6, (0, 3), "half-peak", 10, True),
        "CorrelationResult(order=2, value=5, witness_u=6, witness_d=(0, 3), "
        "classification='half-peak', length=10, periodic=True)",
    ),
    "BoundReport": (
        lambda: BoundReport("lc-from-correlation", {"N": 8}, 3, True, "L >= 3"),
        "BoundReport(name='lc-from-correlation', inputs={'N': 8}, value=3, fired=True, "
        "commentary='L >= 3')",
    ),
    "FamilyRow": (
        lambda: FamilyRow("m-sequence", True, 4, 3),
        "FamilyRow(key='m-sequence', valid=True, dimension=4, claimed=3)",
    ),
    "LfsrSpec": (
        lambda: LfsrSpec(3, (1, 1, 0), (1, 0, 0)),
        "LfsrSpec(degree=3, taps=(1, 1, 0), seed=(1, 0, 0))",
    ),
    "HallSpec": (lambda: HallSpec(7, 3), "HallSpec(period=7, generator=3)"),
    "FermatSpec": (lambda: FermatSpec(5), "FermatSpec(p=5)"),
    "CheckResult": (
        lambda: CheckResult("table-thresholds", True, "ok", 0.5, 10.0, 4),
        "CheckResult(name='table-thresholds', passed=True, detail='ok', runtime=0.5, "
        "budget_seconds=10.0, cases=4)",
    ),
}
# CheckResult was never frozen or hashable; BoundReport holds a dict
FROZEN = sorted(set(RECORDS) - {"CheckResult"})
HASHABLE = sorted(set(RECORDS) - {"CheckResult", "BoundReport"})


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr(name):
    factory, text = RECORDS[name]
    assert repr(factory()) == text
    assert type(factory()).__name__ == name


@pytest.mark.parametrize("name", FROZEN)
def test_fields_cannot_be_assigned(name):
    rec = RECORDS[name][0]()
    field = repr(rec).split("(", 1)[1].split("=", 1)[0]  # the first field's name
    with pytest.raises(AttributeError):
        setattr(rec, field, None)
    assert repr(rec) == RECORDS[name][1]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_fields_compare_equal(name):
    factory = RECORDS[name][0]
    a, b = factory(), factory()
    assert a is not b
    assert a == b
    assert not a != b
    if name in HASHABLE:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("name", sorted(set(RECORDS) - {"FamilyRow"}))
def test_copy_and_pickle_round_trip(name):
    rec = RECORDS[name][0]()
    for clone in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(clone) is type(rec)
        assert clone == rec
        assert repr(clone) == repr(rec)


def test_unequal_fields_compare_unequal():
    assert CorrelationResult(2, 5, 6, (0, 3), "half-peak", 10) != CorrelationResult(
        2, 5, 6, (0, 4), "half-peak", 10)
    assert HallSpec(7) != HallSpec(7, 3)


def test_constructor_defaults():
    assert ComplexityProfile("maximum-order", (0, 1)).coefficients is None
    assert PeakCertificate(3, (0, 1, 3), "periodic-full", 7).note == ""
    assert CorrelationResult(1, 2, 3, (0,), "none", 8).periodic is False
    assert BoundReport("moc-half-peak", {}, None, False).commentary == ""
    assert HallSpec(7).generator is None
    assert CheckResult("c", False, "d", 0.0, 1.0).cases == 0


def test_keyword_construction():
    assert LfsrSpec(degree=3, taps=(1, 1, 0), seed=(1, 0, 0)) == RECORDS["LfsrSpec"][0]()
    assert HallSpec(period=7, generator=3) == HallSpec(7, 3)
    assert FermatSpec(p=5) == FermatSpec(5)
    assert CorrelationResult(order=1, value=2, witness_u=3, witness_d=(0,),
                             classification="none", length=8) == CorrelationResult(
        1, 2, 3, (0,), "none", 8, False)


def test_methods_and_properties():
    assert ComplexityProfile("linear", (0, 1, 2)).final == 2
    assert ComplexityProfile("linear", ()).final == 0
    assert RECORDS["PeakCertificate"][0]().as_dict() == {
        "k": 3, "shifts": [0, 1, 3], "kind": "periodic-full", "theta": 7,
        "verified": True, "note": "anchored"}
    assert RECORDS["CorrelationResult"][0]().as_dict() == {
        "k": 2, "value": 5, "U": 6, "D": [0, 3], "classification": "half-peak",
        "n": 10, "periodic": True}
    assert RECORDS["BoundReport"][0]().as_dict() == {
        "name": "lc-from-correlation", "inputs": {"N": 8}, "value": 3, "fired": True,
        "commentary": "L >= 3"}
    spec = LfsrSpec.from_exponents(3, (1, 0), seed=5)
    assert (spec.taps, spec.seed, spec.taps_mask, spec.seed_mask) == ((1, 1, 0), (1, 0, 1), 3, 5)
    assert HallSpec(7).resolved_generator() == 3
    assert HallSpec(13, 6).resolved_generator() == 6
    assert RECORDS["CheckResult"][0]().line() == (
        "[PASS] table-thresholds: ok (4 cases, 0.50s / budget 10s)")
    assert [row.key for row in TABLE_FAMILIES][:2] == ["m-sequence", "small-kasami"]
    assert TABLE_FAMILIES[0].valid(3) and TABLE_FAMILIES[0].dimension(5) == 5


@pytest.mark.parametrize("build,message", [
    (lambda: as_shifts(()), "shift set must be non-empty"),
    (lambda: as_shifts([-1, 2]), "shifts must be non-negative"),
    (lambda: as_shifts([3, 1]), "shifts must be strictly increasing, got (3, 1)"),
    (lambda: as_shifts([0, 2, 2]), "shifts must be strictly increasing, got (0, 2, 2)"),
    (lambda: LfsrSpec(1, (1,), (1,)), "degree must be >= 2, got 1"),
    (lambda: LfsrSpec(3, (1, 0), (1, 0, 0)), "taps must have length 3, got 2"),
    (lambda: LfsrSpec(3, (1, 0, 2), (1, 0, 0)), "taps must be 0/1 valued"),
    (lambda: LfsrSpec(3, (1, 1, 0), (1, 0)), "seed must have length 3, got 2"),
    (lambda: LfsrSpec(3, (1, 1, 0), (1, 0, 3)), "seed must be 0/1 valued"),
    (lambda: LfsrSpec(3, (1, 1, 0), (0, 0, 0)), "seed must be nonzero"),
    (lambda: LfsrSpec.from_exponents(3, (3,)), "exponent 3 out of range for degree 3"),
    (lambda: HallSpec(9), "period 9 is not prime"),
    (lambda: HallSpec(11), "period 11 is not 1 mod 6"),
    (lambda: HallSpec(7, 2), "2 is not a primitive root modulo 7"),
    (lambda: FermatSpec(2), "p must be an odd prime, got 2"),
    (lambda: FermatSpec(9), "p must be an odd prime, got 9"),
    (lambda: FermatSpec(2147483659), "p must fit in 31 bits"),
], ids=lambda v: v if isinstance(v, str) else "")
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
