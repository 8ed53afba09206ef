"""Acceptance gate: every shipped guarantee, run end to end at full scale.

Each test drives one check from seqmeter.verify, prints its one-line
verdict, and asserts both the outcome and the stated runtime budget.
The family-table check compares exact sphere-packing thresholds with an
independent expected column; where a family's claimed cap differs from
the exact value, the column holds the exact value (see README).
"""

from seqmeter import verify


def _run(check):
    result = check(scale="full")
    print(result.line())
    assert result.runtime < result.budget_seconds, (
        f"{result.name} took {result.runtime:.2f}s, budget {result.budget_seconds}s")
    assert result.passed, result.line()
    return result


def test_family_table_thresholds():
    # exact integer thresholds per family, degrees 4..20; the expected
    # column uses the computed values (7 for large-kasami from degree 6,
    # 13 for 5-term-trace, per degree for welch-gong) for the three
    # families whose published caps disagree with exact counting
    _run(verify.check_table1)


def test_full_peaks_constructed_within_threshold():
    r = _run(verify.check_periodic_peaks)
    # m-sequences 2..7, gold 5, 7 and 9, small Kasami 4 and 6, Hall 7 and 31,
    # and a constant block
    assert r.cases == 14


def test_periodic_peaks_check_refolds_each_certificate(monkeypatch):
    # a certificate whose last shift is moved by one keeps its order and
    # period, so only re-folding its shifts can catch it
    found = verify.find_periodic_peak

    def moved(span, t_max):
        cert = found(span, t_max)
        return cert._replace(shifts=(*cert.shifts[:-1], cert.shifts[-1] + 1))

    monkeypatch.setattr(verify, "find_periodic_peak", moved)
    r = verify.check_periodic_peaks(scale="quick")
    assert not r.passed and "m-sequence: bad certificate" in r.detail and "Theta = " in r.detail


def test_half_peaks_on_random_periodic_corpus():
    r = _run(verify.check_half_peak_random)
    assert r.cases == 200


def test_low_window_complexity_forces_order2_half_peak():
    r = _run(verify.check_moc_half_peak)
    assert r.cases > 0


def test_complexity_kernels_match_definition_oracles():
    r = _run(verify.check_oracle_equivalence)
    assert r.cases == (1 << 13) - 1 + 10_000  # every prefix to 12 bits, plus the random corpus


def test_residue_and_quotient_sequence_facts():
    r = _run(verify.check_special_sequences)
    assert r.cases == 9


def test_error_tolerant_bound_consistency():
    r = _run(verify.check_kerror_consistency)
    assert r.cases > 2000
