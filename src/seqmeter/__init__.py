"""Pseudorandomness measures of binary sequences.

Exact, witness-producing implementations of the standard predictability
measures (linear complexity, maximum-order complexity, correlation
measures of order k), plus constructive search for the correlation
peaks that low complexity forces, and the threshold calculators that
tie the two together.

The public names below load their submodule on first access (PEP 562),
so `import seqmeter` loads none and each CLI command compiles only the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "bitseq": ("BitSequence", "dumps", "load", "loads", "save"),
    "bounds": (
        "BoundReport",
        "find_half_peak_witness",
        "kerror_bound",
        "lc_correlation_bound",
        "log_complexity_bound",
        "moc_correlation_bound",
        "moc_half_peak_check",
    ),
    "codes": (
        "CyclicSpan",
        "PeakCertificate",
        "build_span",
        "find_periodic_peak",
    ),
    "complexity": (
        "ComplexityProfile",
        "kerror_linear_complexity",
        "linear_complexity",
        "linear_complexity_profile",
        "max_order_complexity",
        "max_order_complexity_profile",
    ),
    "correlation": (
        "BudgetExceededError",
        "CorrelationResult",
        "aperiodic_measure",
        "correlation_at",
        "delta_under_flips",
        "periodic_measure",
        "search_cost",
    ),
    "generators": (
        "NonPrimitiveTapsError",
        "fermat_threshold",
        "gold_sequence",
        "hall_sextic",
        "m_sequence",
        "small_kasami",
    ),
    "parallel": (),
    "thresholds": ("full_peak_threshold", "half_peak_threshold", "table1", "table1_row"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
