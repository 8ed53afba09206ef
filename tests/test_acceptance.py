"""Acceptance gate: every shipped guarantee, run end to end at full scale.

Each test drives one check from seqmeter.verify, prints its one-line
verdict, and asserts both the outcome and the stated runtime budget.
The family-table check compares exact sphere-packing thresholds with an
independent expected column; where a family's claimed cap differs from
the exact value, the column holds the exact value (see README).
"""

from seqmeter import verify
from seqmeter.bitseq import BitSequence


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


def test_oracle_check_catches_one_wrong_complexity(monkeypatch):
    # Berlekamp-Massey off by one on a single 4-bit prefix; only the
    # brute-force oracle can tell
    lc = verify.linear_complexity

    def wrong(v, n):
        l, coeffs = lc(v, n)
        return (l + 1, coeffs) if (v, n) == (0b1011, 4) else (l, coeffs)

    monkeypatch.setattr(verify, "linear_complexity", wrong)
    r = verify.check_oracle_equivalence(scale="quick")
    assert not r.passed and r.detail == "recurrence mismatch at n=4, data=1011"


def test_kerror_check_catches_a_truth_below_the_bound(monkeypatch):
    # a k-error kernel that answers 0 falls below every bound that fires
    monkeypatch.setattr(verify, "kerror_linear_complexity", lambda seq, n, errors: 0)
    r = verify.check_kerror_consistency(scale="quick")
    assert not r.passed and "0101010101010101 F=0: true 0 < bound 1" in r.detail


def test_table_check_catches_the_claimed_large_kasami_threshold(monkeypatch):
    # the claimed 9 for large Kasami is looser than the exact 7 from ell = 6 on
    monkeypatch.setitem(verify.EXPECTED_THRESHOLDS, "large-kasami", lambda e: 9)
    r = verify.check_table1(scale="quick")
    assert not r.passed
    assert r.detail == "large-kasami ell=6: threshold 7 != 9; large-kasami ell=8: threshold 7 != 9"


def test_a_check_reports_its_first_four_failures(monkeypatch):
    # five wrong m-sequence thresholds at quick scale, ell = 4..8
    monkeypatch.setitem(verify.EXPECTED_THRESHOLDS, "m-sequence", lambda e: 4)
    r = verify.check_table1(scale="quick")
    assert not r.passed
    assert r.detail == "; ".join(f"m-sequence ell={e}: threshold 3 != 4" for e in range(4, 8))


def test_half_peak_check_catches_one_missing_witness(monkeypatch):
    # a witness search that finds nothing on the 43-bit prefixes (T = 21)
    search = verify.find_half_peak_witness
    monkeypatch.setattr(verify, "find_half_peak_witness",
                        lambda seq, n, k_cap: None if n == 43 else search(seq, n, k_cap))
    r = verify.check_half_peak_random(scale="quick")
    assert not r.passed and r.detail == "#3 (T=21, L=7): fired with cap 4 but no witness"


def test_moc_half_peak_check_catches_a_value_below_half(monkeypatch):
    # an order-2 measure one below half on the all-zero word alone
    check = verify.moc_half_peak_check

    def wrong(seq):
        report = check(seq)
        return report._replace(value=7) if seq.data == 0 else report

    monkeypatch.setattr(verify, "moc_half_peak_check", wrong)
    r = verify.check_moc_half_peak(scale="quick")
    assert not r.passed and r.detail == "0000000000000000: C_2 = 7 below half"


def test_special_sequences_check_catches_a_one_at_a_multiple_of_p(monkeypatch):
    # the Fermat quotient sequence of 3 with s_0 set in both periods keeps
    # period 9, so only the zeros at the multiples of p can tell
    fermat = verify.fermat_threshold

    def wrong(p):
        f = fermat(p)
        return BitSequence.from_int(f.data ^ (1 | 1 << p * p), f.n, f.period) if p == 3 else f

    monkeypatch.setattr(verify, "fermat_threshold", wrong)
    r = verify.check_special_sequences(scale="quick")
    assert not r.passed and r.detail == "fermat 3: nonzero at a multiple of p"


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
