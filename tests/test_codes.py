import itertools
import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from seqmeter import codes
from seqmeter.bitseq import BitSequence, loads, mask, pack, periodic_correlation, unpack
from seqmeter.bounds import find_half_peak_witness
from seqmeter.codes import (
    CyclicSpan,
    _level,
    _multiples,
    _peak_recurrence,
    _powers,
    _tails,
    build_span,
    find_periodic_peak,
    low_weight_kernel_support,
)
from seqmeter.complexity import linear_complexity
from seqmeter.correlation import BudgetExceededError, correlation_at, periodic_measure
from seqmeter.generators import GOLD_PAIRS, gold_sequence, hall_sextic, m_sequence, small_kasami
from seqmeter.thresholds import full_peak_threshold
from seqmeter.zeros import _pdiv, gold_zeros, zeros_field, zeros_level
from test_generators import decimated_pair


def span_contains(span: CyclicSpan, vector: int) -> bool:
    """Membership by reduction against the span's reduced echelon basis."""
    v = vector
    for row, p in zip(span.basis, span.pivots):
        if (v >> p) & 1:
            v ^= row
    return v == 0


def dual_syndromes(span):
    """Syndrome j against the span basis, x^j mod the span's recurrence."""
    return _powers(span.recurrence, span.period)


def full_search(cols, w_min, w_max):
    """The search with no anchor over arbitrary columns, the reference: a zero
    column at weight 1, then one head/tail level per weight over every head."""
    if w_min <= 1 <= w_max and 0 in cols:
        return (cols.index(0),)
    for w in range(max(w_min, 2), min(w_max, len(cols)) + 1):
        best = _level(cols, w // 2, w - w // 2, None, [()])
        if best:
            return best
    return None


def _span_oracle(seq):
    """(dimension, basis, pivots, block, recurrence) by elimination over all T
    rotations, with no early stop; the recurrence is read from basis column L,
    cyclically, so a full-rank span gets x^T + 1."""
    t = seq.period
    basis, pivots = [], []
    v = seq.data & mask(t)
    for _ in range(t):
        row = v
        for b, p in zip(basis, pivots):
            if (row >> p) & 1:
                row ^= b
        if row:
            p = (row & -row).bit_length() - 1
            basis = [b ^ row if (b >> p) & 1 else b for b in basis]
            basis.append(row)
            pivots.append(p)
        v = (v >> 1) | ((v & 1) << (t - 1))
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    basis = tuple(basis[i] for i in order)
    l = len(basis)
    f = 1 << l
    for r, row in enumerate(basis):
        f |= ((row >> (l % t)) & 1) << r
    return l, basis, tuple(pivots[i] for i in order), seq.data & mask(t), f


def _syndromes_oracle(basis, t):
    """Syndrome j as column j of the basis, transposed through '0'/'1' strings."""
    rows = [unpack(row, t) for row in basis]
    if not rows:
        return [0] * t
    return [pack("".join(col)) for col in zip(*rows)]


def _assert_span_matches_oracle(seq):
    span = build_span(seq)
    want = _span_oracle(seq)
    assert (span.dimension, span.basis, span.pivots, span.block, span.recurrence) == want, seq
    assert dual_syndromes(span) == _syndromes_oracle(want[1], span.period), seq


def test_span_and_syndromes_match_full_elimination_exhaustively():
    # every block with T <= 12: 8190 spans
    for t in range(1, 13):
        for bits in range(1 << t):
            _assert_span_matches_oracle(BitSequence.from_int(bits, t, period=t))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8), st.data())
def test_span_and_syndromes_match_full_elimination_on_low_rank_blocks(p, q, data):
    # the XOR of a period-p and a period-q pattern satisfies the short recurrence
    # (x^p - 1)(x^q - 1), so its span has rank <= p + q, mostly far below T
    lcm = math.lcm(p, q)
    t = lcm * data.draw(st.integers(min_value=1, max_value=64 // lcm))
    a = data.draw(st.integers(min_value=0, max_value=(1 << p) - 1))
    b = data.draw(st.integers(min_value=0, max_value=(1 << q) - 1))
    block = sum((((a >> (i % p)) ^ (b >> (i % q))) & 1) << i for i in range(t))
    _assert_span_matches_oracle(BitSequence.from_int(block, t, period=t))


@pytest.mark.parametrize("seq", [
    *(m_sequence(ell) for ell in range(2, 13)),
    *(gold_sequence(ell) for ell in (5, 6, 7, 9, 11)),
    *(small_kasami(ell) for ell in (4, 6, 8, 10, 12)),
], ids=[*(f"m{ell}" for ell in range(2, 13)), *(f"gold{ell}" for ell in (5, 6, 7, 9, 11)),
        *(f"kasami{ell}" for ell in (4, 6, 8, 10, 12))])
def test_family_spans_match_full_elimination(seq):
    _assert_span_matches_oracle(seq)


def test_span_dimensions():
    assert build_span(m_sequence(3)).dimension == 3
    assert build_span(gold_sequence(5)).dimension == 10
    assert build_span(small_kasami(4)).dimension == 6


def test_span_needs_a_full_period():
    with pytest.raises(ValueError, match="3 of 7 bits stored"):
        build_span(loads("period=7\n101\n"))
    assert build_span(loads("period=7\n1001011\n")) == build_span(m_sequence(3))


def test_span_membership():
    span = build_span(m_sequence(3))
    block = span.block
    for r in range(7):
        rot = ((block >> r) | (block << (7 - r))) & mask(7)
        assert span_contains(span, rot)
    assert not span_contains(span, 1)
    assert span_contains(span, 0)


def test_dual_syndromes_cancel_on_dual_support():
    span = build_span(m_sequence(3))
    syn = dual_syndromes(span)
    assert len(syn) == 7
    assert syn[0] ^ syn[1] ^ syn[3] == 0


def test_kernel_search_finds_lex_min():
    f = build_span(m_sequence(3)).recurrence
    assert low_weight_kernel_support(f, 7, 1, 2) is None
    assert low_weight_kernel_support(f, 7, 1, 3) == (0, 1, 3)


def test_peak_certificates():
    cert = find_periodic_peak(build_span(m_sequence(3)), 5)
    assert (cert.order, cert.shifts, cert.period) == (3, (0, 1, 3), 7)

    cert7 = find_periodic_peak(build_span(m_sequence(7)), full_peak_threshold(127, 7))
    assert cert7.shifts == (0, 1, 7)
    assert cert7.period == 127

    g5 = find_periodic_peak(build_span(gold_sequence(5)), 7)
    assert g5.order == 5
    assert g5.shifts == (0, 1, 4, 19, 22)
    assert g5.period == 31

    g9 = find_periodic_peak(build_span(gold_sequence(9)), 7)  # T = 511, L = 18, cap 7
    assert (g9.order, g9.shifts, g9.period) == (5, (0, 1, 2, 340, 402), 511)


def test_certificate_agrees_with_exhaustive_scan():
    r = periodic_measure(m_sequence(3), 3)
    cert = find_periodic_peak(build_span(m_sequence(3)), 3)
    assert r.value == cert.period
    assert tuple(r.witness_d) == cert.shifts


def _first_full_peak(seq):
    """The scan's first order with a full peak, and its witness."""
    k = 1
    while (r := periodic_measure(seq, k)).classification != "full-peak":
        k += 1
    return k, tuple(r.witness_d)


@pytest.mark.parametrize("seq", [
    *(m_sequence(ell) for ell in range(3, 8)),
    gold_sequence(5), gold_sequence(6), small_kasami(4), small_kasami(6),
    hall_sextic(7), hall_sextic(13), hall_sextic(31), loads("period=5\n1111111111\n"),
], ids=["m3", "m4", "m5", "m6", "m7", "gold5", "gold6", "kasami4", "kasami6",
        "hall7", "hall13", "hall31", "ones5"])
def test_smallest_full_peak_order_matches_certificate(seq):
    # the scan's first order with a full peak is the certificate's weight, and
    # both break ties by the lexicographically smallest shift set; Hall 7 has
    # full rank, Hall 13 one dual word of weight 13, and Hall 31 and the
    # constant block fold to all ones
    cert = find_periodic_peak(build_span(seq), seq.period)
    assert _first_full_peak(seq) == (cert.order, cert.shifts)


def _least_rotations(t):
    """The blocks of period t that are the least of their rotations: one per span."""
    for bits in range(1 << t):
        if all(((bits >> r) | (bits << (t - r))) & mask(t) >= bits for r in range(1, t)):
            yield bits


def test_certificate_is_the_scans_first_full_peak_exhaustively():
    # every block with T <= 11, and one block per rotation class at T = 12:
    # rotations share a span, so that covers every block
    for t in range(1, 13):
        for bits in range(1 << t) if t < 12 else _least_rotations(t):
            seq = BitSequence.from_int(bits, t, period=t)
            cert = find_periodic_peak(build_span(seq), None)
            assert _first_full_peak(seq) == (cert.order, cert.shifts), (t, bits)


def test_multiples_walk_matches_syndrome_levels_exhaustively():
    # every span with T <= 12 and every weight from 2: the walk over the
    # multiples of g and the anchored head/tail level give one support
    for t in range(2, 13):
        for bits in _least_rotations(t):
            g = _peak_recurrence(build_span(BitSequence.from_int(bits, t, period=t)))
            cols = _powers(g, t)
            for w in range(2, t + 1):
                assert _multiples(g, t, w, w) == _syndrome_levels(cols, w, w), (t, bits, w)


def test_peak_recurrence_matches_long_division_exhaustively():
    # every even-weight f below 2^14: x + 1 divides f, and the doubling
    # suffix XOR gives the quotient of the one-shift-per-term loop and of
    # long division
    def one_shift_per_term(f):
        g = 0
        while f := f >> 1:
            g ^= f
        return g

    for f in range(3, 1 << 14):
        if f.bit_count() & 1:
            continue
        g = _peak_recurrence(CyclicSpan(f.bit_length() - 1, f, 0))
        assert g == one_shift_per_term(f) == _pdiv(f, 0b11), f


def test_multiples_walk_price():
    # over m columns x^j mod g the walk costs 2^(m - deg g) and takes a
    # weight-4 level, priced C(m-1, 1) + C(m-1, 2), only when no dearer:
    # 16 <= 21 at m = 7, but 32 > 28 at m = 8
    g = 0b1011
    for m, cost, unit in ((7, 16, "multiples"), (8, 28, "hash-table")):
        with pytest.raises(BudgetExceededError, match=unit) as exc:
            low_weight_kernel_support(g, m, 4, 4, budget=cost - 1)
        assert exc.value.cost == cost
        best = low_weight_kernel_support(g, m, 4, 4, budget=cost)
        assert best == full_search(_powers(g, m), 4, 4) == (0, 1, 2, 5)


def test_certificate_reproduces_under_direct_evaluation():
    seq = gold_sequence(5)  # carries two periods, room for a length-T window
    cert = find_periodic_peak(build_span(seq), 7)
    v = correlation_at(seq, seq.period, cert.shifts)
    assert abs(v) == cert.period


def test_degenerate_zero_sequence():
    # g = 1, so the weight-1 level answers, as for the constant ones block,
    # from g alone: no syndrome column is built
    for bits in (0, 0b111111):
        span = build_span(BitSequence.from_int(bits, 6, period=6))
        with mock.patch.object(codes, "_powers", side_effect=AssertionError("columns built")):
            cert = find_periodic_peak(span, 4)
        assert (cert.order, cert.shifts, cert.period) == (1, (0,), 6)


def test_peak_search_budget():
    # the two-coset f is not the Gold pattern, so the search hashes syndromes
    # at weights 4 and 5: 30 + 435 at w = 4
    f = _two_coset_recurrence()
    cols = _powers(f, 31)
    assert _zeros_of(cols, f) is None
    with pytest.raises(BudgetExceededError) as exc:
        low_weight_kernel_support(f, 31, 2, 7, budget=464)
    assert (exc.value.cost, exc.value.budget) == (465, 464)
    best = low_weight_kernel_support(f, 31, 2, 7, budget=465 + 435)
    assert best == full_search(cols, 2, 7) == (0, 1, 3, 7, 15)
    span = build_span(gold_sequence(5))
    assert (low_weight_kernel_support(span.recurrence, 31, 2, 7)
            == full_search(dual_syndromes(span), 2, 7) == (0, 1, 4, 19, 22))
    # a search that ends at weight 3 never reaches a budgeted level
    assert find_periodic_peak(build_span(m_sequence(3)), 5, budget=0).shifts == (0, 1, 3)


def test_zeros_search_budget():
    # find_periodic_peak walks gold ell=5 from weight 4 by its zeros:
    # C(30, w - 3) heads plus 2^5 field-table entries, 62 at w = 4, 467 at w = 5
    for budget, cost in ((61, 62), (466, 467)):
        with pytest.raises(BudgetExceededError) as exc:
            find_periodic_peak(build_span(gold_sequence(5)), 7, budget=budget)
        assert (exc.value.cost, exc.value.budget) == (cost, budget)
    assert find_periodic_peak(build_span(gold_sequence(5)), 7, budget=467).shifts == (0, 1, 4, 19, 22)


def test_kernel_search_budget():
    # the weight-4 level alone, anchored: C(30, 1) tails and C(30, 2) heads
    # from columns 1..30, run at exactly its price; levels 2 and 3 are unpriced
    f = _two_coset_recurrence()
    cost = math.comb(30, 1) + math.comb(30, 2)
    with pytest.raises(BudgetExceededError) as exc:
        low_weight_kernel_support(f, 31, 4, 4, budget=cost - 1)
    assert (exc.value.cost, exc.value.budget) == (cost, cost - 1)
    assert low_weight_kernel_support(f, 31, 4, 4, budget=cost) is None
    assert low_weight_kernel_support(f, 31, 2, 3, budget=0) is None


def test_recurrence_must_not_vanish_at_zero():
    span = build_span(gold_sequence(5))
    with pytest.raises(ValueError, match="g\\(0\\) = 0"):
        low_weight_kernel_support(span.recurrence << 1, 31, 2, 7)


def test_order_cap_validated():
    with pytest.raises(ValueError):
        find_periodic_peak(build_span(m_sequence(3)), 0)


def test_uncapped_peak_search_and_full_rank_chain():
    # 1000000 has seven independent rotations, so its dual is {0} and the
    # threshold is None, which find_periodic_peak reads as no weight cap; its
    # recurrence is x^7 + 1, and all seven shifts fold to the constant ones;
    # that one dual support, g itself, is walked as a multiple with no
    # syndrome column built
    span = build_span(loads("period=7\n10000001000000\n"))
    assert span.dimension == span.period == 7
    assert span.recurrence == 0b10000001
    assert _peak_recurrence(span) == 0b1111111
    with mock.patch.object(codes, "_powers", side_effect=AssertionError("columns built")):
        cert = find_periodic_peak(span, full_peak_threshold(7, span.dimension))
        assert find_periodic_peak(span, 6) is None
    assert (cert.order, cert.shifts, cert.period) == (7, tuple(range(7)), 7)
    with pytest.raises(ValueError):
        find_periodic_peak(span, 0)
    # below full rank, no cap is the same as a cap of T
    for span in map(build_span, (m_sequence(3), gold_sequence(5), small_kasami(4))):
        assert find_periodic_peak(span, None) == find_periodic_peak(span, span.period)


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
    # nonzero, and then a dual vector of weight <= cap exists; the constant
    # folds include the dual, so the peak is no heavier
    for t in range(1, 9):
        for block in range(1 << t):
            span = build_span(BitSequence([(block >> i) & 1 for i in range(t)], period=t))
            cap = full_peak_threshold(t, span.dimension)
            dual = brute_min_support(dual_syndromes(span), t)
            assert (cap is None) == (dual is None) == (span.dimension == t)
            if cap is not None:
                assert len(dual) <= cap
                assert find_periodic_peak(span, cap).order <= len(dual)


def test_threshold_is_tightest():
    # one notch below the returned cap the ball misses the counting target
    for t_len, dim in ((7, 3), (127, 7), (31, 10), (15, 6)):
        t = full_peak_threshold(t_len, dim)
        ball = sum(math.comb(t_len, i) for i in range(((t - 1) // 2) + 1))
        assert ball >= 1 << dim
        if t > 2:
            smaller = sum(math.comb(t_len, i) for i in range(((t - 2) // 2) + 1))
            assert smaller < 1 << dim


def test_dual_basis_orthogonal_and_complete():
    # the syndromes describe the dual exactly: its least support is orthogonal
    # to the span, and 2^(T - L) supports have vanishing syndromes
    span = build_span(small_kasami(4))
    syn = dual_syndromes(span)
    v = sum(1 << j for j in brute_min_support(syn, 15))
    for row in span.basis:
        assert (v & row).bit_count() % 2 == 0
    folds = [0]
    for c in syn:
        folds += [f ^ c for f in folds]
    assert folds.count(0) == 1 << (15 - 6)


def test_bruteforce_weight_matches_search():
    span = build_span(small_kasami(4))
    syn = dual_syndromes(span)
    sup = low_weight_kernel_support(span.recurrence, 15, 1, 15)
    assert sup == (0, 5, 10)
    assert brute_min_support(syn, 15) == sup


def brute_min_support(syn, t, w_min=1):
    for w in range(w_min, t + 1):
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
    best = low_weight_kernel_support(span.recurrence, t, 1, t)
    assert best == brute_min_support(dual_syndromes(span), t)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=10))
def test_full_search_matches_enumeration_on_arbitrary_columns(cols):
    # small values repeat, so every level from 1 up gets collisions
    assert full_search(cols, 1, len(cols)) == brute_min_support(cols, len(cols))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=10),
       st.sampled_from([2, 3, 4]))
def test_one_element_tail_levels_match_enumeration(cols, w_min):
    # from w_min >= 2 no level below answers for a repeated column, so the
    # levels with one-element tails meet heads whose fold also sits at or
    # before their last element, and must take its first later index
    m = len(cols)
    assert full_search(cols, w_min, m) == brute_min_support(cols, m, w_min)


def test_anchored_one_element_tail_levels_match_enumeration_exhaustively():
    # g(0) = 1 and g not primitive, so x^j mod g repeats within a few columns:
    # x^2 + x + 1 and x^3 + 1 (period 3), x^4 + x^3 + x^2 + x + 1 (period 5),
    # (x^2 + x + 1)^2 (period 6); every anchored level with a one-element
    # tail (weights 2, 3 and 4) runs on some of them
    walked = set()
    level = codes._level

    def record(cols, a, h, *args):
        walked.add((a, a + h))
        return level(cols, a, h, *args)

    with mock.patch.object(codes, "_level", record):
        for g in (0b111, 0b1001, 0b11111, 0b10101):
            for m in range(1, 17):
                cols = _powers(g, m)
                for w_min in (2, 3, 4):
                    got = low_weight_kernel_support(g, m, w_min, m)
                    assert got == brute_min_support(cols, m, w_min), (g, m, w_min)
    assert {(1, 2), (1, 3), (1, 4)} <= walked


def _assert_anchored_matches_full_search(t, bits):
    span = build_span(BitSequence.from_int(bits, t, period=t))
    full = full_search(_powers(_peak_recurrence(span), t), 1, t)
    assert find_periodic_peak(span, t).shifts == full, (t, bits)


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


def _window_columns(bits, n):
    """The windows thm2 collides, of an n-prefix: its w-bit windows, their first
    min(L, w) bits, and e and g with x^e g the prefix's recurrence and g(0) = 1."""
    width = n - n // 2
    l, coeffs = linear_complexity(bits, n)
    full = [(bits >> j) & mask(width) for j in range(n // 2)]
    short = [(bits >> j) & mask(min(l, width)) for j in range(n // 2)]
    f = sum(c << r for r, c in enumerate(coeffs)) | 1 << l
    e = (f & -f).bit_length() - 1
    return full, short, e, f >> e


def _assert_window_searches_agree(full, short, e, g, k_max, label):
    # the recurrence extends the first L bits of a window to all w of them by
    # one injective map, so both columns give one support; every collision
    # starts at e or later, and from e on the windows' recurrence is g, whose
    # syndromes x^j mod g have the windows' dual sets
    expected = full_search(full, 2, k_max)
    assert full_search(short, 2, k_max) == expected, label
    factored = low_weight_kernel_support(g, len(short) - e, 2, k_max)
    assert (factored and tuple(d + e for d in factored)) == expected, label


def test_anchored_window_search_matches_full_search_exhaustively():
    # every prefix with 2 <= N <= 13 and L <= w, the prefixes where thm2 fires
    checked = with_x = 0
    for n in range(2, 14):
        for bits in range(1 << n):
            if linear_complexity(bits, n)[0] > n - n // 2:
                continue
            full, short, e, g = _window_columns(bits, n)
            checked += 1
            with_x += e > 0
            for k_max in (3, 4, 6):
                _assert_window_searches_agree(full, short, e, g, k_max, (n, bits, k_max))
    assert (checked, with_x) == (12744, 4136)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=14, max_value=40), st.data())
def test_anchored_window_search_matches_full_search(n, data):
    # low complexity is where thm2 fires, so draw a recurrence of small order,
    # with c_0 = 0 allowed, and run it from a random state
    l = data.draw(st.integers(min_value=1, max_value=n // 4))
    taps = data.draw(st.integers(min_value=0, max_value=(1 << l) - 1))
    bits = data.draw(st.integers(min_value=1, max_value=(1 << l) - 1))
    for i in range(l, n):
        bits |= ((taps & (bits >> (i - l))).bit_count() & 1) << i
    full, short, e, g = _window_columns(bits, n)
    k_max = data.draw(st.sampled_from((3, 4, 6)))
    _assert_window_searches_agree(full, short, e, g, k_max, (n, bits, k_max))


# --- the Gold zeros path -----------------------------------------------------


def _clmul(a, b):
    out = 0
    for j in range(b.bit_length()):
        if b >> j & 1:
            out ^= a << j
    return out


def _minimal_polynomial(ell, d):
    """Minimal polynomial of rho^d, rho a zero of DEFAULT_TAPS[ell]: BM on the d-decimation."""
    t = (1 << ell) - 1
    u = unpack(m_sequence(ell, periods=1).data, t)
    v = "".join(u[d * i % t] for i in range(t))
    l, coeffs = linear_complexity(pack(v * 2), 2 * t)
    return sum(c << r for r, c in enumerate(coeffs)) | 1 << l


def _two_coset_recurrence():
    """f with the zeros rho and rho^-1 of GF(32): two cosets, not the Gold pattern."""
    return _clmul(_minimal_polynomial(5, 1), _minimal_polynomial(5, 15))


def _zeros_of(cols, f):
    m = len(cols)
    field = zeros_field(f, m, 64)
    return field and gold_zeros(f, m, *field)


def _syndrome_levels(cols, w_min, w_max):
    """The anchored search with every level hashing syndromes, one slice each."""
    for w in range(w_min, w_max + 1):
        a = max(1, (w + 1) // 2 - 1)
        best = _level(cols, a, w - a, None, [(0,)])
        if best:
            return best
    return None


def _assert_zeros_match_syndromes(cols, f, w_max, label):
    # every level from 4, one at a time, with either factor's zero as rho
    # (one of the two takes the swapped order), then the whole search against
    # the syndrome levels and, up to 127 columns, the full search; levels
    # above the first with an answer only at small sizes
    m = len(cols)
    ell, g = zeros_field(f, m, 64)
    tables = [gold_zeros(f, m, ell, g)]
    if _pdiv(f, g).bit_length() - 1 == ell:
        tables.append(gold_zeros(f, m, ell, _pdiv(f, g)))
    assert all(tables), label
    prefixes = [(0, d) for d in range(1, m)]
    for w in range(4, w_max + 1):
        want = _syndrome_levels(cols, w, w)
        for zeros in tables:
            assert zeros_level(zeros, w - 2, prefixes) == want, (label, w)
        if want and m > 511:
            break
    if m <= 511:
        # weight 5 within single prefixes (0, d), whose heads include ones that
        # sum to 0 and ones that a lower-weight support completes
        pairs = _tails(cols, 2)
        for d in range(1, min(m, 40)):
            want = _level(cols, 2, 3, pairs, [(0, d)])
            assert all(zeros_level(zeros, 3, [(0, d)]) == want for zeros in tables), (label, d)
    best = low_weight_kernel_support(f, m, 4, w_max)
    assert best == _syndrome_levels(cols, 4, w_max), label
    if m <= 127:
        assert best == full_search(cols, 4, w_max), label


GOLD_CASES = [(f"gold{ell}", ell, GOLD_PAIRS[ell]) for ell in (5, 6, 7, 9)]
GOLD_CASES += [(f"gold{ell}-3dec", ell, decimated_pair(ell)) for ell in (5, 7, 9)]


@pytest.mark.parametrize("label,ell,pair", GOLD_CASES, ids=[c[0] for c in GOLD_CASES])
def test_gold_zeros_match_syndrome_search(label, ell, pair):
    # zeros_field's factor takes u = 1 on every pair here; only the second
    # table, built from the other factor f / g, takes the swapped order;
    # gold-6 has a kernel GF(4)
    seq = gold_sequence(ell, taps_pair=pair)
    span = build_span(seq)
    _assert_zeros_match_syndromes(dual_syndromes(span), span.recurrence, 5, label)


@pytest.mark.parametrize("ell", [4, 6, 8, 10, 12])
def test_kasami_zeros_match_syndrome_search(ell):
    # small Kasami peaks have weight 3; from weight 4 the zeros rho and
    # rho^(2^(ell/2)+1) have a kernel GF(2^(ell/2)), 2^(ell/2-1) pairs per head
    span = build_span(small_kasami(ell))
    _assert_zeros_match_syndromes(dual_syndromes(span), span.recurrence, 5, ell)


@pytest.mark.parametrize("make", [lambda: gold_sequence(5), lambda: gold_sequence(7),
                                  lambda: gold_sequence(9, shift=3), lambda: small_kasami(8)],
                         ids=["gold5", "gold7", "gold9s3", "kasami8"])
def test_zeros_match_syndromes_on_window_columns(make):
    # the first L bits of each window of a 2T prefix, whose dual sets are
    # those of the prefix's own recurrence; T columns fit the field
    seq = make()
    n = 2 * seq.period
    _, short, e, f = _window_columns(seq.data, n)
    assert e == 0
    _assert_zeros_match_syndromes(short, f, 6, n)


def test_zeros_fall_back_with_more_columns_than_the_field():
    # a 4T prefix has 2T columns, so columns d and d + T are one field element
    seq = gold_sequence(5, periods=4)
    n = 4 * seq.period
    _, short, e, f = _window_columns(seq.data, n)
    assert e == 0
    assert zeros_field(f, len(short), 64) is None
    assert zeros_field(f, seq.period, 64) is not None
    assert low_weight_kernel_support(f, len(short), 4, 5) == full_search(short, 4, 5)


def test_zeros_run_after_a_period_breaking_first_bit():
    # flipping the first bit of a Gold prefix adds the factor x to its
    # recurrence: the windows from 1 on keep the Gold recurrence g, so the
    # search there takes the zeros path, and adding 1 back gives the full
    # search's support
    seq = gold_sequence(5)
    n = 2 * seq.period
    bits = seq.data ^ 1
    full, short, e, g = _window_columns(bits, n)
    assert e == 1 and _zeros_of(short[1:], g)
    witness = find_half_peak_witness(BitSequence.from_int(bits, n), n, 6)
    assert tuple(witness["D"]) == full_search(full, 2, 6)
    shifted = low_weight_kernel_support(g, len(short) - 1, 2, 6)
    assert tuple(d - 1 for d in witness["D"]) == shifted


ZERO_PATTERNS = [build_span(s).recurrence for s in (gold_sequence(5), gold_sequence(6),
                                                     small_kasami(4), small_kasami(6))]
# small Kasami 6 times x^2 + x + 1, the minimal polynomial of rho^21: a third
# coset, which the zeros of rho and rho^9 alone would miss
ZERO_PATTERNS.append(_clmul(ZERO_PATTERNS[3], 0b111))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.data())
def test_recurrence_changes_no_answer(l, data):
    # columns x^d mod f for a random f with f(0) = 1, or for a Gold or Kasami
    # f over fewer columns than its period: whether or not the zeros fit, the
    # recurrence changes no answer
    f = data.draw(st.integers(min_value=0, max_value=(1 << l) - 1)) | 1 | 1 << l
    if data.draw(st.booleans()):
        f = data.draw(st.sampled_from(ZERO_PATTERNS))
        l = f.bit_length() - 1
    m = data.draw(st.integers(min_value=4, max_value=40))
    assert low_weight_kernel_support(f, m, 2, 6) == full_search(_powers(f, m), 2, 6)


def test_zeros_fit_only_the_gold_pattern():
    span = build_span(gold_sequence(7))
    f = span.recurrence
    assert zeros_field(f, 127, 64)[0] == 7
    assert zeros_field(f, 128, 64) is None  # more columns than nonzero field elements
    assert zeros_field(f, 127, 6) is None  # a field above the price cap
    assert zeros_field(f << 1, 127, 64) is None  # a zero at 0
    # an m-sequence's zeros are one coset
    assert zeros_field(build_span(m_sequence(7)).recurrence, 127, 64) is None
    seq = small_kasami(6)
    assert _zeros_of(dual_syndromes(build_span(seq)), build_span(seq).recurrence)
    # small Kasami 6: rho from x^6 + x + 1, and rho^9; a third coset, rho^21,
    # leaves f(rho^9) = 0 but adds two zeros that the sums over rho and rho^9 miss
    kasami = build_span(seq).recurrence
    ell, g = zeros_field(kasami, 63, 64)
    assert g == 0b1000011
    assert gold_zeros(_clmul(kasami, 0b111), 63, ell, g) is None
    # rho^3 has degree 6 but order 21, so it gives no log table, although
    # (rho^3)^9 = rho^27 is the other zero
    g3 = _minimal_polynomial(6, 3)
    assert g3.bit_length() - 1 == 6
    assert gold_zeros(_clmul(g3, _minimal_polynomial(6, 27)), 63, 6, g3) is None


@pytest.mark.parametrize("ell,shifts", [
    (11, (0, 1, 3, 1777, 1924)),
    (13, (0, 1, 2, 118, 5474)),
    (15, (0, 1, 5, 25469, 32346)),
])
def test_large_gold_certificates_are_minimal(ell, shifts):
    # re-verified over a whole period; weights 2 and 3 exhaust the syndrome
    # levels' heads and weight 4 the zeros level's, so weight 5 is the minimum
    span = build_span(gold_sequence(ell))
    cert = find_periodic_peak(span, 7)
    assert cert.shifts == shifts
    assert abs(periodic_correlation(span.block, span.period, shifts)) == span.period
    assert low_weight_kernel_support(span.recurrence, span.period, 2, 3) is None
    zeros = _zeros_of(dual_syndromes(span), span.recurrence)
    assert zeros_level(zeros, 2, [(0, d) for d in range(1, span.period)]) is None
