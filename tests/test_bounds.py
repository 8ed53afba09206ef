import itertools
import math
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from seqmeter import bounds, codes
from seqmeter.bitseq import BitSequence, loads, mask
from seqmeter.bounds import (
    log_complexity_bound,
    find_half_peak_witness,
    kerror_bound,
    lc_correlation_bound,
    moc_correlation_bound,
    moc_half_peak_check,
)
from seqmeter.complexity import kerror_linear_complexity, linear_complexity
from seqmeter.correlation import aperiodic_measure, correlation_at, search_cost
from seqmeter.generators import gold_sequence, m_sequence, small_kasami
from seqmeter.moc import max_order_complexity
from seqmeter.thresholds import full_peak_threshold, half_peak_threshold, table1, table1_row
from test_codes import full_search
from test_generators import _gold_prefix_with_breaking_bit


def corr_map(seq, n, k_hi):
    return {k: aperiodic_measure(seq, k, n).value for k in range(1, k_hi + 1)}


def test_half_peak_threshold_values():
    assert half_peak_threshold(62, 5) == (2, 4)
    assert half_peak_threshold(8, 2) == (1, 2)
    assert half_peak_threshold(20, 10) is None
    with pytest.raises(ValueError):
        half_peak_threshold(1, 3)
    with pytest.raises(ValueError):
        half_peak_threshold(10, -1)


def _half_peak_by_comb(n, l):
    goal, half = 1 << l, n // 2
    for t in range(1, half + 1):
        if math.comb(half, t) >= goal:
            return t, 2 * t
    return None


def _full_peak_by_comb(t, l):
    if l >= t:
        return None
    j, total = 0, 1
    while total < 1 << l:
        j += 1
        total += math.comb(t, j)
    return 2 * j + 1 if j else 2


def test_thresholds_equal_the_comb_formulas():
    # the incremental binomial walks against a fresh math.comb per term
    for n in range(2, 161):
        for l in range(n // 2 + 3):
            assert half_peak_threshold(n, l) == _half_peak_by_comb(n, l), (n, l)
    for t in range(1, 161):
        for l in range(t + 3):
            assert full_peak_threshold(t, l) == _full_peak_by_comb(t, l), (t, l)
    for n, l in ((2000, 300), (2000, 990), (2001, 999), (2001, 1000), (4096, 2040)):
        assert half_peak_threshold(n, l) == _half_peak_by_comb(n, l), (n, l)
    for t, l in (((1 << 20) - 1, 129), ((1 << 18) - 1, 65), (1023, 1000), (1023, 1022)):
        assert full_peak_threshold(t, l) == _full_peak_by_comb(t, l), (t, l)


def test_log_bound_values():
    assert log_complexity_bound(2, 16) == 3.5
    expected = 1.5 * (10 + 1 - math.log2(3)) - 0.5 * math.log2(3)
    assert log_complexity_bound(3, 1024) == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValueError):
        log_complexity_bound(1, 100)
    with pytest.raises(ValueError):
        log_complexity_bound(4, 16)  # K^2 must stay under N


def test_log_bound_j_below_k_reading_is_refuted():
    # the reading "C_j < N/2 for every j < K" admits 0110110110110110 at K = 2,
    # N = 16: C_1 = 6 < 8, yet its complexity is 2, below the formula's 3.5
    seq = loads("0110110110110110")
    assert aperiodic_measure(seq, 1, 16).value == 6
    assert linear_complexity(seq, 16)[0] == 2 < log_complexity_bound(2, 16) == 3.5


def test_lc_scan_fires_on_msequence():
    # shift set (0,1,3) pushes C_3 to 11 on the 14-bit window, so the
    # first self-consistent point of the scan is 14 - 11 = 3
    rep = lc_correlation_bound(corr_map(m_sequence(3), 14, 4), 14)
    assert rep.name == "lc-from-correlation"
    assert rep.fired and rep.value == 3
    assert rep.inputs["max_corr"] == 11


def test_lc_scan_can_run_out_of_orders():
    rep = lc_correlation_bound(corr_map(m_sequence(5), 31, 4), 31)
    assert not rep.fired
    assert rep.value is None


def test_scan_rejects_gappy_maps():
    for bad in ({}, {2: 3}, {1: 3, 3: 5}):
        with pytest.raises(ValueError):
            lc_correlation_bound(bad, 10)
        with pytest.raises(ValueError):
            moc_correlation_bound(bad, 10)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=8, max_value=24), st.data())
def test_fired_bounds_are_sound(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    s = BitSequence.from_int(bits, n)
    cmap = corr_map(s, n, min(5, n))
    rep = lc_correlation_bound(cmap, n)
    if rep.fired:
        assert rep.value <= linear_complexity(s)[0]
    mrep = moc_correlation_bound(cmap, n)
    if mrep.fired:
        assert mrep.value <= max_order_complexity(s)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=12, max_value=30), st.data())
def test_half_peak_witness_contract(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    s = BitSequence.from_int(bits, n)
    w = find_half_peak_witness(s, n, k_max=6)
    if w is None:
        return
    assert 2 * w["value"] >= n
    assert w["method"] in ("exhaustive", "constructive")
    assert abs(correlation_at(s, w["U"], tuple(w["D"]), n)) == w["value"]


def test_half_peak_witness_constructive_path():
    # tiny complexity relative to n forces the window-collision branch
    s = m_sequence(3, periods=10)  # n = 70, L = 3
    w = find_half_peak_witness(s, 70, k_max=4, budget=10**4)
    assert w is not None
    assert w["method"] == "constructive"
    assert 2 * w["value"] >= 70


def _window_columns(seq, n):
    width = n - n // 2
    return [(seq.data >> j) & mask(width) for j in range(n // 2)]


def _least_collision(cols, k_max):
    """Lex-least D of least weight in 2..k_max whose columns XOR to zero, by plain enumeration."""
    for w in range(2, k_max + 1):
        for d in itertools.combinations(range(len(cols)), w):
            acc = 0
            for j in d:
                acc ^= cols[j]
            if acc == 0:
                return d
    return None


def test_half_peak_witness_factors_x_out_of_the_recurrence():
    # L = 1 with f = x: bit 0 is not fixed by the bits after it, so every
    # collision avoids coordinate 0; from coordinate 1 on the recurrence is
    # g = 1, and the search there gives the least collision D = [1, 2]
    s = BitSequence.from_int(1, 70)
    assert linear_complexity(s, 70) == (1, (0,))
    w = find_half_peak_witness(s, 70, 2, budget=10**3)
    assert (w["method"], w["D"], w["value"]) == ("constructive", [1, 2], 35)
    assert _least_collision(_window_columns(s, 70), 2) == (1, 2)


def test_half_peak_witness_matches_full_window_search_exhaustively():
    # every prefix with N <= 11 and L <= ceil(N/2), the constructive path
    # forced by a zero budget; where e > floor(N/2) no window from e on is left
    checked = beyond = 0
    for n in range(2, 12):
        width = n - n // 2
        for bits in range(1 << n):
            l, coeffs = linear_complexity(bits, n)
            if l > width:
                continue
            s = BitSequence.from_int(bits, n)
            w = find_half_peak_witness(s, n, 3, budget=0)
            assert (w and tuple(w["D"])) == _least_collision(_window_columns(s, n), 3), (n, bits)
            checked += 1
            beyond += (coeffs + (1,)).index(1) > n // 2
    assert (checked, beyond) == (3186, 25)


def test_half_peak_witness_is_the_least_window_collision_exhaustively():
    # every prefix with N <= 13 and L <= ceil(N/2), with no exhaustive order
    # tried: the witness is the least collision among the full windows
    checked = found = 0
    with mock.patch.object(bounds, "EXHAUSTIVE_FALLBACK_COST", 0):
        for n in range(2, 14):
            for bits in range(1 << n):
                if linear_complexity(bits, n)[0] > n - n // 2:
                    continue
                s = BitSequence.from_int(bits, n)
                cols = _window_columns(s, n)
                for k_max in (3, 4):
                    w = find_half_peak_witness(s, n, k_max)
                    want = _least_collision(cols, k_max)
                    assert (w and tuple(w["D"])) == want, (n, bits, k_max)
                    assert w is None or w["method"] == "constructive"
                    found += w is not None
                checked += 1
    assert (checked, found) == (12744, 2532)


def test_half_peak_witness_above_the_window_skips_the_search():
    # L = 11 > ceil(20/2): the threshold cannot fire, and no recurrence of
    # length <= 10 carries the windows, so the constructive path answers None
    # without calling the dual search
    s = loads("10110010011010000010")
    assert linear_complexity(s, 20)[0] == 11
    with mock.patch.object(codes, "low_weight_kernel_support") as search:
        assert find_half_peak_witness(s, 20, 3, budget=0) is None
    search.assert_not_called()


@pytest.mark.parametrize("ell", [7, 8])
def test_half_peak_witness_refuses_a_prefix_past_the_end(ell):
    # order 2 over 2 (2^ell - 1) >= 254 bits is priced above the fallback, so
    # an unchecked length would reach the window search with a zero past the
    # end; the length is refused before any search starts
    s = m_sequence(ell)
    assert search_cost(s.n, 2) > bounds.EXHAUSTIVE_FALLBACK_COST
    with mock.patch.object(codes, "low_weight_kernel_support",
                           side_effect=AssertionError("searched")):
        with pytest.raises(ValueError, match=rf"^prefix length {s.n + 1} out of range 0\.\.{s.n}$"):
            find_half_peak_witness(s, s.n + 1, 4)


def test_half_peak_witness_none_when_every_order_is_exhausted():
    # with no order in 2..k_max there is nothing to search
    assert find_half_peak_witness(BitSequence.from_int(1 << 99, 100), 100, 1) is None
    # order 2 at N = 40 is priced below the fallback cost and peaks at 12 < 20
    s = loads("0101001111111100111001101010111000101001")
    assert aperiodic_measure(s, 2).value == 12
    assert find_half_peak_witness(s, 40, 2) is None


def test_half_peak_witness_exhausts_an_order_priced_at_the_fallback_cost():
    # an order whose price equals the cheaper of the fallback cost and the
    # budget is still searched outright; one summand above it is not
    s = m_sequence(3, periods=10)  # n = 70, L = 3: D = (0, 7) peaks at 63
    price = search_cost(70, 2)
    with mock.patch.object(bounds, "EXHAUSTIVE_FALLBACK_COST", price):
        assert find_half_peak_witness(s, 70, 2)["method"] == "exhaustive"
    with mock.patch.object(bounds, "EXHAUSTIVE_FALLBACK_COST", price - 1):
        assert find_half_peak_witness(s, 70, 2)["method"] == "constructive"
    assert find_half_peak_witness(s, 70, 2, budget=price)["method"] == "exhaustive"
    assert find_half_peak_witness(s, 70, 2, budget=price - 1)["method"] == "constructive"


def test_half_peak_witness_on_gold_prefix_with_breaking_bit():
    # the full window search would hash C(2046, 2) pairs at weight 4; from
    # coordinate 1 on the windows keep the Gold recurrence and its zeros
    s = _gold_prefix_with_breaking_bit(11)
    l, coeffs = linear_complexity(s, s.n)
    assert (l, coeffs[0], half_peak_threshold(s.n, l)) == (23, 0, (3, 6))
    w = find_half_peak_witness(s, s.n, 6)
    assert (w["method"], w["k"], w["D"]) == ("constructive", 5, [1, 2, 4, 1778, 1925])


@pytest.mark.parametrize("seq", [
    *(m_sequence(ell) for ell in range(3, 8)),
    gold_sequence(5), gold_sequence(6), small_kasami(4), small_kasami(6),
], ids=["m3", "m4", "m5", "m6", "m7", "gold5", "gold6", "kasami4", "kasami6"])
def test_anchored_half_peak_witness_matches_full_search(seq):
    # two periods, so the prefix's recurrence is the reversible LFSR one.  A
    # budget of 900 is below every order-2 exhaustive cost, so the witness
    # is constructive; it admits gold5's levels 4 and 5 (465 and 870).
    n = seq.n
    l, coeffs = linear_complexity(seq, n)
    assert coeffs[0] == 1 and search_cost(n, 2) > 900
    _, k_max = half_peak_threshold(n, l)
    w = find_half_peak_witness(seq, n, k_max, budget=900)
    assert w["method"] == "constructive"
    assert tuple(w["D"]) == full_search(_window_columns(seq, n), 2, k_max)


def test_moc_half_peak_on_alternating():
    alt = BitSequence.from_int(sum(1 << i for i in range(0, 16, 2)), 16)
    assert max_order_complexity(alt) == 1
    rep = moc_half_peak_check(alt, 16)
    assert rep.fired
    assert rep.inputs["C2"] == 15
    assert rep.inputs["witness"] == [0, 2]
    assert 2 * rep.value >= 16


def test_moc_half_peak_declines_on_high_moc():
    rep = moc_half_peak_check(m_sequence(4), 30)
    assert not rep.fired


def _agreeing_pair_by_shifts(data, n, m):
    """Reference: the least d2 <= 2**M, then the least d1 < d2, agreeing on the whole overlap."""
    for d2 in range(1, (1 << m) + 1):
        tail = mask(n - d2)
        shifted = data >> d2
        for d1 in range(d2):
            if ((data >> d1) ^ shifted) & tail == 0:
                return d1, d2
    return None


def _check_agreeing_pair(seq, n):
    m = max_order_complexity(seq, n)
    if (1 << (m + 2)) > n:
        return False
    data = seq.data & mask(n)
    assert bounds._agreeing_pair(data, m) == _agreeing_pair_by_shifts(data, n, m), (data, n)
    return True


def test_agreeing_pair_matches_the_shift_search_exhaustively():
    fired = sum(_check_agreeing_pair(BitSequence.from_int(data, n), n)
                for n in range(1, 17) for data in range(1 << n))
    assert fired == 82  # every fired prefix of length at most 16


@pytest.mark.parametrize("ell", range(2, 9))
def test_agreeing_pair_matches_the_shift_search_on_m_sequences(ell):
    seq = m_sequence(ell, periods=6)
    assert _check_agreeing_pair(seq, seq.n)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_agreeing_pair_matches_the_shift_search_on_feedback_sequences(order, data):
    # a sequence that a feedback function of this order extends has M <= order,
    # so thm4 fires from N = 2**(order + 2)
    table = data.draw(st.integers(min_value=0, max_value=(1 << (1 << order)) - 1))
    bits = data.draw(st.integers(min_value=0, max_value=(1 << order) - 1))
    n = data.draw(st.integers(min_value=1 << (order + 2), max_value=(1 << (order + 2)) + 40))
    for i in range(order, n):
        bits |= ((table >> ((bits >> (i - order)) & mask(order))) & 1) << i
    assert _check_agreeing_pair(BitSequence.from_int(bits, n), n)


def test_table_rows_frozen():
    r = table1_row("large-kasami", 4)
    assert r["threshold"] == 9 and r["matches"]
    r = table1_row("large-kasami", 6)
    assert r["threshold"] == 7 and not r["matches"]
    r = table1_row("m-sequence", 5)
    assert (r["period"], r["dimension"], r["threshold"]) == (31, 5, 3)
    assert table1_row("gold", 3)["threshold"] == 7  # ball count ties 2^L exactly


def test_table_row_validation():
    with pytest.raises(ValueError):
        table1_row("nonesuch", 5)
    with pytest.raises(ValueError):
        table1_row("gold", 4)  # degree divisible by 4
    with pytest.raises(ValueError):
        table1_row("small-kasami", 5)


def test_table_shape():
    rows = table1(20)
    assert len(rows) == 71
    fams = {r["family"] for r in rows}
    assert fams == {"m-sequence", "small-kasami", "gold", "large-kasami",
                    "3-term-trace", "5-term-trace", "welch-gong"}
    assert sum(1 for r in rows if r["family"] == "m-sequence") == 19
    assert sum(1 for r in rows if r["family"] == "gold") == 13


def test_table_known_disagreements():
    rows = table1(20)
    wg = {r["ell"]: r["threshold"] for r in rows if r["family"] == "welch-gong"}
    assert wg == {6: 3, 9: 3, 12: 5, 15: 7, 18: 9}
    ft = {r["ell"]: r["threshold"] for r in rows if r["family"] == "5-term-trace"}
    assert ft[9] == 15 and ft[11] == 13 and ft[19] == 13
    lk = {r["ell"]: r["matches"] for r in rows if r["family"] == "large-kasami"}
    assert lk[4] is True
    assert all(not lk[e] for e in lk if e >= 6)


def test_kerror_bound_zero_flips_matches_plain_scan():
    s = BitSequence.from_int(0b1011011000110101, 16)
    plain = lc_correlation_bound(corr_map(s, 16, 2), 16)
    rep = kerror_bound(s, 16, k=2, flips=0)
    assert rep.value == plain.value
    assert rep.fired == plain.fired


def test_kerror_bound_needs_an_order():
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        kerror_bound(BitSequence.from_int(0b1011, 4), k=0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 16) - 1),
       st.integers(min_value=0, max_value=2))
def test_kerror_bound_sound(bits, flips):
    s = BitSequence.from_int(bits, 16)
    rep = kerror_bound(s, 16, k=2, flips=flips)
    if rep.fired:
        assert rep.value <= kerror_linear_complexity(s, errors=flips)


def test_kerror_log_note_never_exceeds_true_lc_exhaustive():
    # the note's order is the highest one checked below N/2; at N = 10 and 11,
    # k = 2, fourteen inputs each sit below the order-3 value
    printed = 0
    for n in range(1, 12):
        for data in range(1 << n):
            s = BitSequence.from_int(data, n)
            true_l = linear_complexity(s, n)[0]
            for k in (2, 3):
                if k > n:
                    continue
                rep = kerror_bound(s, n, k=k, flips=0)
                note = re.search(r"order-(\d+) log \w+ (\d+\.\d+)", rep.commentary)
                if note:
                    printed += 1
                    assert float(note[2]) <= true_l, (format(data, f"0{n}b"), k, rep.commentary)
                    assert int(note[1]) == k and k * k < n
                    assert all(2 * v < n for v in rep.inputs["inflated"].values())
    assert printed > 1000  # the note is not vacuous


def test_kerror_log_note_absent_at_order_one():
    # C_1 = 6 < 8 but L = 2: the formula needs K >= 2 orders checked below N/2
    s = loads("0110110110110110")
    rep = kerror_bound(s, 16, k=1, flips=0)
    assert rep.inputs["corr"] == {1: 6}
    assert linear_complexity(s, 16)[0] == 2
    assert "log" not in rep.commentary


def test_report_dict_shape():
    d = lc_correlation_bound({1: 3, 2: 7, 3: 11, 4: 10}, 14).as_dict()
    assert set(d) == {"name", "inputs", "value", "fired", "commentary"}
    assert d["value"] == 3
