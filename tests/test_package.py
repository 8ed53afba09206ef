import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import seqmeter
from seqmeter import budget, correlation

PUBLIC = [
    "BitSequence", "BoundReport", "BudgetExceededError", "ComplexityProfile",
    "CorrelationResult", "CyclicSpan", "NonPrimitiveTapsError", "PeakCertificate",
    "aperiodic_measure", "bitseq", "bounds", "build_span", "codes", "complexity", "correlation",
    "correlation_at", "delta_under_flips", "dumps", "fermat_threshold",
    "find_half_peak_witness", "find_periodic_peak",
    "full_peak_threshold", "generators", "gold_sequence", "half_peak_threshold",
    "hall_sextic", "kerror_bound",
    "kerror_linear_complexity", "lc_correlation_bound", "linear_complexity",
    "linear_complexity_profile", "load", "loads", "log_complexity_bound",
    "m_sequence", "max_order_complexity", "max_order_complexity_profile", "moc",
    "moc_correlation_bound", "moc_half_peak_check", "periodic_measure", "save", "search_cost",
    "small_kasami", "table1", "table1_row", "thresholds",
]
SUBMODULES = ["bitseq", "bounds", "codes", "complexity", "correlation", "generators", "moc",
              "thresholds"]


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


def test_star_import_skips_dataclasses_and_inspect():
    # records are NamedTuples, so no module pulls in dataclasses (and with it inspect)
    code = ("from seqmeter import *\nimport sys\n"
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"


def test_table1_lives_with_the_thresholds():
    # Table 1 tabulates full_peak_threshold only, so `bounds table1` loads the leaf module alone
    from seqmeter import bounds, thresholds

    for name in ("FamilyRow", "TABLE_FAMILIES", "table1", "table1_row"):
        assert hasattr(thresholds, name) and not hasattr(bounds, name)
    assert seqmeter.table1 is thresholds.table1 and seqmeter.table1_row is thresholds.table1_row


def test_records_are_tuples():
    # the one API difference from frozen dataclasses: len, iteration and == with a tuple
    r = seqmeter.CorrelationResult(2, 5, 6, (0, 3), "half-peak", 10)
    assert isinstance(r, tuple) and len(r) == 7
    assert r == (2, 5, 6, (0, 3), "half-peak", 10, False)
    order, value, *_ = r
    assert (order, value) == (2, 5)


def test_every_public_name_has_a_reader():
    # a public name that no module, script or benchmark reads is dead surface;
    # its own def or class line does not count as a read
    root = Path(__file__).resolve().parent.parent
    package = root / "src" / "seqmeter"
    files = [p for p in package.rglob("*.py") if p != package / "__init__.py"]
    files += [*(root / "scripts").glob("*.py"), *(root / "perfbench").glob("*.py")]
    lines = [line for path in files for line in path.read_text().splitlines()]
    unread = []
    for name in seqmeter._HOME:
        own = re.compile(rf"^\s*(def|class)\s+{name}\b")
        word = re.compile(rf"\b{name}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unread.append(name)
    assert unread == []
