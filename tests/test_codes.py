import concurrent.futures
import itertools
import math
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from seqmeter.bitseq import BitSequence, loads, mask
from seqmeter.codes import (
    build_span,
    dual_basis,
    dual_syndromes,
    find_periodic_peak,
    full_peak_threshold,
    hamming_condition,
    low_weight_kernel_support,
    minimum_dual_weight_bruteforce,
)
from seqmeter.complexity import linear_complexity
from seqmeter.correlation import BudgetExceededError, correlation_at, periodic_measure
from seqmeter.generators import gold_sequence, m_sequence, small_kasami
from test_cli import RecordingExecutor


def test_span_dimensions():
    assert build_span(m_sequence(3)).dimension == 3
    assert build_span(gold_sequence(5)).dimension == 10
    assert build_span(small_kasami(4)).dimension == 6


def test_span_membership():
    span = build_span(m_sequence(3))
    block = span.block
    for r in range(7):
        rot = ((block >> r) | (block << (7 - r))) & mask(7)
        assert span.contains(rot)
    assert not span.contains(1)
    assert span.contains(0)


def test_dual_syndromes_cancel_on_dual_support():
    span = build_span(m_sequence(3))
    syn = dual_syndromes(span)
    assert len(syn) == 7
    assert syn[0] ^ syn[1] ^ syn[3] == 0


def test_kernel_search_finds_lex_min():
    syn = dual_syndromes(build_span(m_sequence(3)))
    assert low_weight_kernel_support(syn, 1, 2) is None
    assert low_weight_kernel_support(syn, 1, 3) == (0, 1, 3)


def test_peak_certificates():
    cert = find_periodic_peak(m_sequence(3), 5)
    assert (cert.order, cert.shifts, cert.verified_value) == (3, (0, 1, 3), 7)

    cert7 = find_periodic_peak(m_sequence(7), full_peak_threshold(127, 7))
    assert cert7.shifts == (0, 1, 7)
    assert cert7.verified_value == 127

    g5 = find_periodic_peak(gold_sequence(5), 7)
    assert g5.order == 5
    assert g5.shifts == (0, 1, 4, 19, 22)
    assert g5.verified_value == 31

    g9 = find_periodic_peak(gold_sequence(9), 7)  # T = 511, L = 18, cap 7
    assert (g9.order, g9.shifts, g9.verified_value) == (5, (0, 1, 2, 340, 402), 511)


def test_certificate_agrees_with_exhaustive_scan():
    r = periodic_measure(m_sequence(3), 3)
    cert = find_periodic_peak(m_sequence(3), 3)
    assert r.value == cert.verified_value
    assert tuple(r.witness_d) == cert.shifts


@pytest.mark.parametrize("seq", [
    *(m_sequence(ell) for ell in range(3, 8)),
    gold_sequence(5), gold_sequence(6), small_kasami(4), small_kasami(6),
], ids=["m3", "m4", "m5", "m6", "m7", "gold5", "gold6", "kasami4", "kasami6"])
def test_smallest_full_peak_order_matches_certificate(seq):
    # the scan's first order with a full peak is the certificate's weight, and
    # both break ties by the lexicographically smallest shift set
    cert = find_periodic_peak(build_span(seq), seq.period)
    k = 1
    while (r := periodic_measure(seq, k)).classification != "full-peak":
        k += 1
    assert (k, tuple(r.witness_d)) == (cert.order, cert.shifts)


def test_certificate_reproduces_under_direct_evaluation():
    seq = gold_sequence(5)  # carries two periods, room for a length-T window
    cert = find_periodic_peak(seq, 7)
    v = correlation_at(seq, seq.period, cert.shifts)
    assert abs(v) == cert.verified_value


def test_degenerate_zero_sequence():
    cert = find_periodic_peak(BitSequence.from_int(0, 6, period=6), 4)
    assert cert.order == 1
    assert cert.shifts == (0,)
    assert cert.verified_value == 6


def test_peak_search_budget():
    # gold ell=5 needs the weight-4 and weight-5 levels: 30 + 435 at w = 4
    with pytest.raises(BudgetExceededError) as exc:
        find_periodic_peak(gold_sequence(5), 7, budget=464)
    assert (exc.value.cost, exc.value.budget) == (465, 464)
    assert find_periodic_peak(gold_sequence(5), 7, budget=465 + 435).order == 5
    # a search that ends at weight 3 never reaches a budgeted level
    assert find_periodic_peak(m_sequence(3), 5, budget=0).shifts == (0, 1, 3)


def test_kernel_search_budget():
    # the full weight-4 level hashes C(31, 2) pairs and probes C(30, 2)
    syn = dual_syndromes(build_span(gold_sequence(5)))
    cost = math.comb(31, 2) + math.comb(30, 2)
    with pytest.raises(BudgetExceededError) as exc:
        low_weight_kernel_support(syn, 4, 4, budget=cost - 1)
    assert (exc.value.cost, exc.value.budget) == (cost, cost - 1)
    assert low_weight_kernel_support(syn, 4, 4, budget=cost) is None


def test_odd_unanchored_level_price():
    # C(30, 2) tails of floor(5/2) from columns 1..30, C(31, 3) heads of ceil(5/2)
    syn = dual_syndromes(build_span(gold_sequence(5)))
    with pytest.raises(BudgetExceededError) as exc:
        low_weight_kernel_support(syn, 5, 5, budget=4929)
    assert (exc.value.cost, exc.value.budget) == (4930, 4929)


def test_order_cap_validated():
    with pytest.raises(ValueError):
        find_periodic_peak(m_sequence(3), 0)


def test_uncapped_peak_search_and_full_rank_chain():
    # 1000000 has seven independent rotations, so its dual is {0} and the
    # threshold is None, which find_periodic_peak reads as no weight cap
    span = build_span(loads("period=7\n10000001000000\n"))
    assert span.dimension == span.period == 7
    assert find_periodic_peak(span, full_peak_threshold(7, span.dimension)) is None
    with pytest.raises(ValueError):
        find_periodic_peak(span, 0)
    # below full rank, no cap is the same as a cap of T
    for seq in (m_sequence(3), gold_sequence(5), small_kasami(4)):
        assert find_periodic_peak(seq, None) == find_periodic_peak(seq, seq.period)


def test_full_peak_threshold_values():
    assert full_peak_threshold(7, 3) == 3
    assert full_peak_threshold(127, 7) == 3
    assert full_peak_threshold(31, 10) == 7
    assert full_peak_threshold(15, 6) == 5
    assert full_peak_threshold(10, 0) == 2
    assert full_peak_threshold(5, 9) is None
    assert full_peak_threshold(7, 6) == 7


def test_full_rank_span_has_no_threshold():
    # at l = t the span is the whole space and its dual is {0}
    for t in range(1, 40):
        assert full_peak_threshold(t, t) is None
        assert full_peak_threshold(t, t + 1) is None
        assert full_peak_threshold(t, t - 1) is not None


def test_threshold_guarantee_exhaustive():
    # every block up to period 8: a cap exists exactly when the dual is
    # nonzero, and then a dual vector of weight <= cap exists
    for t in range(1, 9):
        for block in range(1 << t):
            span = build_span(BitSequence([(block >> i) & 1 for i in range(t)], period=t))
            cap = full_peak_threshold(t, span.dimension)
            weight = minimum_dual_weight_bruteforce(span)
            assert (cap is None) == (weight is None) == (span.dimension == t)
            if cap is not None:
                assert weight <= cap
                assert find_periodic_peak(span, cap) is not None


def test_threshold_is_tightest():
    # one notch below the returned cap the ball misses the counting target
    for t_len, dim in ((7, 3), (127, 7), (31, 10), (15, 6)):
        t = full_peak_threshold(t_len, dim)
        ball = sum(math.comb(t_len, i) for i in range(((t - 1) // 2) + 1))
        assert ball >= 1 << dim
        if t > 2:
            smaller = sum(math.comb(t_len, i) for i in range(((t - 2) // 2) + 1))
            assert smaller < 1 << dim


def test_hamming_condition_cases():
    assert hamming_condition(2, 7, 4, 3) is False  # 8 > 8 is strict, fails
    assert hamming_condition(2, 7, 5, 3) is True
    assert hamming_condition(2, 7, 4, 4) is False
    assert hamming_condition(2, 7, 4, 5) is True
    with pytest.raises(ValueError):
        hamming_condition(2, 7, 4, 0)
    with pytest.raises(ValueError):
        hamming_condition(2, 7, 9, 3)


def test_dual_basis_orthogonal_and_complete():
    span = build_span(small_kasami(4))
    db = dual_basis(span)
    assert len(db) == 15 - 6
    for v in db:
        for row in span.basis:
            assert (v & row).bit_count() % 2 == 0


def test_bruteforce_weight_matches_search():
    span = build_span(small_kasami(4))
    syn = dual_syndromes(span)
    sup = low_weight_kernel_support(syn, 1, 15)
    assert sup == (0, 5, 10)
    assert minimum_dual_weight_bruteforce(span) == len(sup)


def brute_min_support(syn, t):
    for w in range(1, t + 1):
        for d in itertools.combinations(range(t), w):
            acc = 0
            for j in d:
                acc ^= syn[j]
            if acc == 0:
                return d
    return None


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=3, max_value=10), st.data())
def test_kernel_search_matches_enumeration(t, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << t) - 1))
    span = build_span(BitSequence.from_int(bits, t, period=t))
    syn = dual_syndromes(span)
    assert low_weight_kernel_support(syn, 1, t) == brute_min_support(syn, t)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=10))
def test_full_search_matches_enumeration_on_arbitrary_columns(cols):
    # small values repeat, so every level from 1 up gets collisions
    assert low_weight_kernel_support(cols, 1, len(cols)) == brute_min_support(cols, len(cols))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=10))
def test_unanchored_fan_out_matches_enumeration(cols):
    # four cores and an in-process executor: levels from 4 up split their
    # heads three ways without forking
    with mock.patch("os.cpu_count", return_value=4), \
            mock.patch.object(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor), \
            mock.patch.object(RecordingExecutor, "seen", []):
        best = low_weight_kernel_support(cols, 1, len(cols), jobs=3)
        assert best == brute_min_support(cols, len(cols))
        if len(cols) >= 4 and (best is None or len(best) >= 4):
            assert RecordingExecutor.seen[0] == 3


def _assert_anchored_matches_full_search(t, bits):
    span = build_span(BitSequence.from_int(bits, t, period=t))
    full = low_weight_kernel_support(dual_syndromes(span), w_min=2, w_max=t)
    cert = find_periodic_peak(span, t)
    assert (cert.shifts if cert else None) == full, (t, bits)


def test_anchored_search_matches_full_search_exhaustively():
    # every nonzero block with 2 <= T <= 9: 1012 cyclic spans
    for t in range(2, 10):
        for bits in range(1, 1 << t):
            _assert_anchored_matches_full_search(t, bits)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=10, max_value=16), st.data())
def test_anchored_search_matches_full_search(t, data):
    bits = data.draw(st.integers(min_value=1, max_value=(1 << t) - 1))
    _assert_anchored_matches_full_search(t, bits)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=5, max_value=10), st.data())
def test_jobs_do_not_change_certificates(t, data):
    bits = data.draw(st.integers(min_value=1, max_value=(1 << t) - 2))
    seq = BitSequence.from_int(bits | (bits << t), 2 * t, period=t)
    a = find_periodic_peak(seq, 6)
    b = find_periodic_peak(seq, 6, jobs=3)
    if a is None:
        assert b is None
    else:
        assert a.as_dict() == b.as_dict()


def _reversible_window_columns(bits, n):
    """The thm2 window columns of an n-prefix, or None if its recurrence is not reversible."""
    width = n - n // 2
    l, coeffs = linear_complexity(bits, n)
    if not (0 < l <= width and coeffs[0] == 1):
        return None
    return [(bits >> j) & mask(width) for j in range(n // 2)]


def _assert_anchored_windows_match_full_search(cols, k_max, label):
    full = low_weight_kernel_support(cols, 2, k_max)
    assert low_weight_kernel_support(cols, 2, k_max, anchored=True) == full, label


def test_anchored_window_search_matches_full_search_exhaustively():
    # every reversible prefix with 2 <= N <= 13
    checked = 0
    for n in range(2, 14):
        for bits in range(1 << n):
            cols = _reversible_window_columns(bits, n)
            if cols is None:
                continue
            checked += 1
            for k_max in (3, 4, 6):
                _assert_anchored_windows_match_full_search(cols, k_max, (n, bits, k_max))
    assert checked > 5000


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=14, max_value=40), st.data())
def test_anchored_window_search_matches_full_search(n, data):
    # low complexity is where thm2 fires, so draw a reversible recurrence
    # of small order and run it from a random state
    l = data.draw(st.integers(min_value=1, max_value=n // 4))
    taps = data.draw(st.integers(min_value=0, max_value=(1 << l) - 1)) | 1
    bits = data.draw(st.integers(min_value=1, max_value=(1 << l) - 1))
    for i in range(l, n):
        bits |= ((taps & (bits >> (i - l))).bit_count() & 1) << i
    cols = _reversible_window_columns(bits, n)
    assume(cols is not None)
    k_max = data.draw(st.sampled_from((3, 4, 6)))
    _assert_anchored_windows_match_full_search(cols, k_max, (n, bits, k_max))
