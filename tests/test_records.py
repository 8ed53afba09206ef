"""Contract of the result records, and the validation messages of the parameter checks.

Every record keeps its repr text, its immutability, value equality and
hashing and its constructor defaults.  The generators,
`bitseq.as_shifts` and `bitseq.periodic_correlation` keep their exact
validation messages.
"""

import copy
import pickle

import pytest

from seqmeter.bitseq import as_shifts, periodic_correlation
from seqmeter.bounds import BoundReport
from seqmeter.codes import CyclicSpan, PeakCertificate
from seqmeter.complexity import ComplexityProfile
from seqmeter.correlation import CorrelationResult
from seqmeter.generators import fermat_threshold, gold_sequence, hall_sextic, m_sequence
from seqmeter.thresholds import TABLE_FAMILIES, FamilyRow
from seqmeter.verify import CheckResult

# name -> (factory, repr text); each factory builds a fresh, equal instance
RECORDS = {
    "ComplexityProfile": (
        lambda: ComplexityProfile((0, 1, 1), (1, 0)),
        "ComplexityProfile(values=(0, 1, 1), coefficients=(1, 0))",
    ),
    "CyclicSpan": (
        lambda: CyclicSpan(7, 3, (9, 18, 36), (0, 1, 2), 116),
        "CyclicSpan(period=7, dimension=3, basis=(9, 18, 36), pivots=(0, 1, 2), block=116)",
    ),
    "PeakCertificate": (
        lambda: PeakCertificate((0, 1, 3), 7),
        "PeakCertificate(shifts=(0, 1, 3), period=7)",
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


def test_constructor_defaults():
    assert ComplexityProfile((0, 1)).coefficients is None
    assert CorrelationResult(1, 2, 3, (0,), "none", 8).periodic is False
    assert BoundReport("moc-half-peak", {}, None, False).commentary == ""
    assert CheckResult("c", False, "d", 0.0, 1.0).cases == 0


def test_keyword_construction():
    assert CorrelationResult(order=1, value=2, witness_u=3, witness_d=(0,),
                             classification="none", length=8) == CorrelationResult(
        1, 2, 3, (0,), "none", 8, False)


def test_methods_and_properties():
    assert ComplexityProfile((0, 1, 2)).final == 2
    assert ComplexityProfile(()).final == 0
    assert RECORDS["PeakCertificate"][0]().order == 3
    assert RECORDS["PeakCertificate"][0]().as_dict() == {
        "k": 3, "shifts": [0, 1, 3], "kind": "periodic-full", "theta": 7,
        "verified": True, "note": ""}
    assert RECORDS["CorrelationResult"][0]().as_dict() == {
        "k": 2, "value": 5, "U": 6, "D": [0, 3], "classification": "half-peak",
        "n": 10, "periodic": True}
    assert RECORDS["BoundReport"][0]().as_dict() == {
        "name": "lc-from-correlation", "inputs": {"N": 8}, "value": 3, "fired": True,
        "commentary": "L >= 3"}
    assert RECORDS["CheckResult"][0]().line() == (
        "[PASS] table-thresholds: ok (4 cases, 0.50s / budget 10s)")
    assert [row.key for row in TABLE_FAMILIES][:2] == ["m-sequence", "small-kasami"]
    assert TABLE_FAMILIES[0].valid(3) and TABLE_FAMILIES[0].dimension(5) == 5


@pytest.mark.parametrize("build,message", [
    (lambda: as_shifts(()), "shift set must be non-empty"),
    (lambda: as_shifts([-1, 2]), "shifts must be non-negative"),
    (lambda: as_shifts([3, 1]), "shifts must be strictly increasing, got (3, 1)"),
    (lambda: as_shifts([0, 2, 2]), "shifts must be strictly increasing, got (0, 2, 2)"),
    (lambda: periodic_correlation(0b10011, 5, (0, 6)), "shifts must be at most the period 5, got (0, 6)"),
    (lambda: m_sequence(1, taps=1), "degree must be >= 2, got 1"),
    (lambda: m_sequence(21), "no default taps for degree 21; supply taps explicitly"),
    (lambda: m_sequence(3, taps=0b1011), "taps must fit in 3 bits, got 0xb"),
    (lambda: m_sequence(3, taps=-1), "taps must fit in 3 bits, got -0x1"),
    (lambda: m_sequence(3, seed=0b1000), "seed must fit in 3 bits, got 0x8"),
    (lambda: m_sequence(3, seed=0), "seed must be nonzero"),
    (lambda: gold_sequence(5, taps_pair=((5, 0), (2, 0))), "taps must fit in 5 bits, got 0x21"),
    (lambda: hall_sextic(9), "period 9 is not prime"),
    (lambda: hall_sextic(11), "period 11 is not 1 mod 6"),
    (lambda: hall_sextic(7, 2), "2 is not a primitive root modulo 7"),
    (lambda: fermat_threshold(2), "p must be an odd prime, got 2"),
    (lambda: fermat_threshold(9), "p must be an odd prime, got 9"),
    (lambda: fermat_threshold(2147483659), "p must fit in 31 bits"),
], ids=lambda v: v if isinstance(v, str) else "")
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
