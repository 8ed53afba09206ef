import importlib

import pytest

import seqmeter
from seqmeter import budget, correlation

PUBLIC = [
    "BitSequence", "BoundReport", "BudgetExceededError", "ComplexityProfile",
    "CorrelationResult", "CyclicSpan", "FermatSpec", "HallSpec", "LfsrSpec",
    "NonPrimitiveTapsError", "PeakCertificate", "ShiftSet", "aperiodic_measure",
    "bitseq", "bounds", "build_span", "codes", "complexity", "correlation",
    "correlation_at", "delta_under_flips", "dumps", "fermat_complexity_bound",
    "fermat_threshold", "find_half_peak_witness", "find_periodic_peak",
    "full_peak_threshold", "generators", "gold_sequence", "half_peak_threshold",
    "hall_complexity_bound", "hall_sextic", "hamming_condition", "kerror_bound",
    "kerror_linear_complexity", "lc_correlation_bound", "linear_complexity",
    "linear_complexity_profile", "load", "loads", "log_complexity_bound",
    "m_sequence", "max_order_complexity", "max_order_complexity_profile",
    "moc_correlation_bound", "moc_half_peak_check", "parallel",
    "periodic_autocorrelation", "periodic_measure", "save", "search_cost",
    "small_kasami", "table1", "table1_row",
]
SUBMODULES = ["bitseq", "bounds", "codes", "complexity", "correlation", "generators", "parallel"]


def test_public_names_pinned():
    assert seqmeter.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(seqmeter))


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_its_defining_object(name):
    value = getattr(seqmeter, name)
    if name in SUBMODULES:
        assert value is importlib.import_module(f"seqmeter.{name}")
    else:
        assert value is getattr(importlib.import_module(value.__module__), name)


def test_star_import_binds_every_public_name():
    ns = {}
    exec("from seqmeter import *", ns)
    assert {name: ns[name] for name in PUBLIC} == {name: getattr(seqmeter, name) for name in PUBLIC}


def test_unknown_name_and_unlisted_submodule():
    with pytest.raises(AttributeError, match="no_such_name"):
        seqmeter.no_such_name
    from seqmeter import verify

    assert verify is importlib.import_module("seqmeter.verify")
    assert callable(verify.run_all)


def test_budget_error_identity():
    assert seqmeter.BudgetExceededError is correlation.BudgetExceededError is budget.BudgetExceededError
    assert correlation.DEFAULT_BUDGET is budget.DEFAULT_BUDGET
