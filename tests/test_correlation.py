import itertools
import math
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from seqmeter import correlation
from seqmeter.bitseq import BitSequence, fold_extensions, mask
from seqmeter.correlation import (
    BudgetExceededError,
    _closest_extremes,
    _walk_extremes,
    aperiodic_measure,
    correlation_at,
    delta_under_flips,
    periodic_measure,
    periodic_search_cost,
    search_cost,
)
from seqmeter.generators import m_sequence


def periodic_autocorrelation(seq: BitSequence, shift: int) -> int:
    """Order-2 periodic sum at one shift, computed bit by bit as a cross-check."""
    if seq.period is None:
        raise ValueError("needs a declared period")
    t = seq.period
    acc = 0
    for i in range(t):
        acc += 1 if seq.bit(i) == seq.bit((i + shift) % t) else -1
    return acc


def brute_aperiodic(data, n, k):
    best = 0
    for d in itertools.combinations(range(n), k):
        fold = 0
        for dj in d:
            fold ^= data >> dj
        for u in range(1, n - d[-1] + 1):
            v = u - 2 * (fold & mask(u)).bit_count()
            best = max(best, abs(v))
    return best


def oracle_aperiodic(bits, n, k):
    """Smallest (-|v|, U, D) over every window and shift set, summed from the definition."""
    s = [(bits >> i) & 1 for i in range(n)]
    best = None
    for d in itertools.combinations(range(n), k):
        v = 0
        for u in range(1, n - d[-1] + 1):
            v += (-1) ** sum(s[u - 1 + dj] for dj in d)
            key = (-abs(v), u, d)
            if best is None or key < best:
                best = key
    return best


def oracle_periodic(bits, t, k):
    """Smallest (-|v|, D) over full-period sums with d_1 = 0, from the definition."""
    s = [(bits >> i) & 1 for i in range(t)]
    rotations = [s[d:] + s[:d] for d in range(t)]  # rotations[d][i] = s[(i + d) % t]
    best = None
    for rest in itertools.combinations(range(1, t), k - 1):
        d = (0,) + rest
        v = sum((-1) ** sum(column) for column in zip(*(rotations[dj] for dj in d)))
        key = (-abs(v), d)
        if best is None or key < best:
            best = key
    return best


def aperiodic_key(bits, n, k):
    r = aperiodic_measure(BitSequence.from_int(bits, n), k)
    return (-r.value, r.witness_u, tuple(r.witness_d))


def test_all_zero_hits_the_ceiling():
    s = BitSequence.from_int(0, 12)
    for k in (1, 2, 3):
        r = aperiodic_measure(s, k)
        assert r.value == 12 - k + 1
        assert r.classification == "full-peak"
        assert r.witness_u == 12 - k + 1
        assert tuple(r.witness_d) == tuple(range(k))


def test_msequence_periodic_flat():
    seq = m_sequence(3)
    assert periodic_autocorrelation(seq, 0) == 7
    for d in range(1, 7):
        assert periodic_autocorrelation(seq, d) == -1
    r = periodic_measure(seq, 2)
    assert r.value == 1
    assert r.classification == "none"


def test_msequence_periodic_order3_full_peak():
    # x^3 + x + 1 recurrence makes shifts (0,1,3) sum to zero everywhere
    r = periodic_measure(m_sequence(3), 3)
    assert r.value == 7
    assert tuple(r.witness_d) == (0, 1, 3)
    assert r.classification == "full-peak"


def test_witness_reproduces_reported_value():
    seq = m_sequence(3)
    r = aperiodic_measure(seq, 2)
    v = correlation_at(seq, r.witness_u, r.witness_d)
    assert abs(v) == r.value


def test_correlation_at_validates():
    s = BitSequence.from_int(0b1011, 4)
    with pytest.raises(ValueError):
        correlation_at(s, 3, (0, 2))  # 2 + 3 > 4
    with pytest.raises(ValueError):
        correlation_at(s, 0, (0,))
    with pytest.raises(ValueError):
        correlation_at(s, 1, (0, 5), n=4)


def test_result_dict_shape():
    d = aperiodic_measure(BitSequence.from_int(0b101, 3), 1).as_dict()
    assert set(d) == {"k", "value", "U", "D", "classification", "n", "periodic"}


def test_budget_enforced_before_work():
    s = BitSequence.from_int(0, 64)
    cost = search_cost(64, 5)
    with pytest.raises(BudgetExceededError) as exc:
        aperiodic_measure(s, 5, budget=cost - 1)
    assert exc.value.cost == cost
    aperiodic_measure(BitSequence.from_int(0, 10), 2, budget=search_cost(10, 2))


def test_search_cost_closed_form_equals_term_sum():
    # the term sum the closed form replaces: C(n-u, k-1) * (n-u+1) over u = 1..n-k+1
    for n in range(80):
        for k in range(n + 2):
            terms = 0 if k < 1 else sum(
                math.comb(n - u, k - 1) * (n - u + 1) for u in range(1, n - k + 2))
            assert search_cost(n, k) == terms, (n, k)


def test_periodic_budget():
    seq = m_sequence(5)  # T = 31
    assert periodic_search_cost(31, 3) == 435 * 31
    with pytest.raises(BudgetExceededError):
        periodic_measure(seq, 3, budget=100)


def test_periodic_measure_needs_a_full_period():
    with pytest.raises(ValueError, match="3 of 7 bits stored"):
        periodic_measure(BitSequence([1, 0, 1], period=7), 2)
    one = BitSequence(list(m_sequence(3))[:7], period=7)
    for k in range(1, 8):
        assert periodic_measure(one, k) == periodic_measure(m_sequence(3), k)


def test_delta_under_flips():
    assert delta_under_flips(2, 1) == 4
    assert delta_under_flips(3, 2) == 12


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=2, max_value=11), st.integers(min_value=1, max_value=3), st.data())
def test_matches_bruteforce(n, k, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    if k > n:
        return
    r = aperiodic_measure(BitSequence.from_int(bits, n), k)
    assert r.value == brute_aperiodic(bits, n, k)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=3), st.data())
def test_complement_invariance(n, k, data):
    # flipping every bit negates each summand at odd k, fixes it at even k;
    # the maximum absolute value is unchanged either way
    if k > n:
        return
    bits = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    a = aperiodic_measure(BitSequence.from_int(bits, n), k)
    b = aperiodic_measure(BitSequence.from_int(bits ^ mask(n), n), k)
    assert a.value == b.value


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=4, max_value=12), st.data())
def test_flip_perturbation_ceiling(n, data):
    k = 2
    bits = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    flips = data.draw(st.integers(min_value=1, max_value=2))
    positions = data.draw(
        st.lists(st.integers(min_value=0, max_value=n - 1),
                 min_size=flips, max_size=flips, unique=True))
    flipped = bits
    for p in positions:
        flipped ^= 1 << p
    a = aperiodic_measure(BitSequence.from_int(bits, n), k).value
    b = aperiodic_measure(BitSequence.from_int(flipped, n), k).value
    assert abs(a - b) <= delta_under_flips(k, flips)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.data())
def test_periodic_matches_bitloop(t, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << t) - 1))
    s = BitSequence.from_int(bits, t, period=t)
    best = max(abs(periodic_autocorrelation(s, d)) for d in range(1, t)) if t > 1 else 0
    r = periodic_measure(s, 2)
    assert r.value == best


def bit_walk(row, length):
    """Positions 0..length of the +-1 walk over row's low bits, one bit at a time."""
    walk = [0]
    for i in range(length):
        walk.append(walk[-1] + (-1 if (row >> i) & 1 else 1))
    return walk


def test_walk_extremes_match_bit_walk():
    for length in range(1, 12):
        for row in range(1 << length):
            walk = bit_walk(row, length)
            assert _walk_extremes(row, length) == (max(walk), min(walk)), (row, length)
    for row in range(1 << 16):  # two whole bytes: the running walk carries across
        walk = bit_walk(row, 16)
        assert _walk_extremes(row, 16) == (max(walk), min(walk)), row


def thirds_bound(row, length):
    """The scan's thirds bound (module docstring) on the range of row's walk."""
    t = length // 3
    o1 = (row & mask(t)).bit_count()
    o3 = (row >> (length - t)).bit_count()
    o2 = row.bit_count() - o1 - o3
    z1, z2, z3 = t - o1, length - 2 * t - o2, t - o3
    return max(z1 + z2, z2 + z3, z1 + z2 + z3 - o2, o1 + o2, o2 + o3, o1 + o2 + o3 - z2)


def test_row_bound_covers_every_window():
    # the scan skips a row when its count bound max(zeros, ones) is below the best
    # value: no window of the row reaches it, so the skip never drops a maximum or a tie
    for length in range(1, 13):
        for row in range(1 << length):
            walk = bit_walk(row, length)
            ones = row.bit_count()
            assert max(walk) - min(walk) <= max(ones, length - ones), (row, length)


def test_midpoint_row_bound_covers_every_window():
    # the thirds bound takes the place of the prefix scan's midpoint bound (one cut
    # cannot tighten a range's count bound): it covers every window of the row, and
    # it is never looser than the count bound
    for length in range(1, 13):
        for row in range(1 << length):
            walk = bit_walk(row, length)
            ones = row.bit_count()
            bound = thirds_bound(row, length)
            assert max(walk) - min(walk) <= bound, (row, length)
            assert bound <= max(ones, length - ones), (row, length)


def test_closest_extremes_match_every_window():
    # the smallest (U, d_1) over the windows of a row whose sum reaches its range
    for length in range(1, 12):
        for row in range(1 << length):
            walk = bit_walk(row, length)
            value = max(walk) - min(walk)
            brute = min((j - i, i) for i in range(length) for j in range(i + 1, length + 1)
                        if abs(walk[j] - walk[i]) == value)
            assert _closest_extremes(row, length, max(walk), min(walk)) == brute, (row, length)


def test_witness_is_re_verified():
    s = BitSequence.from_int(0b1011001110001011, 16)
    r = aperiodic_measure(s, 2)
    wrong = (-r.value, r.witness_u, (0, 1))  # the true value is not reached at (0, 1)
    assert abs(correlation_at(s, r.witness_u, (0, 1))) != r.value
    with mock.patch.object(correlation, "_scan_gaps", return_value=wrong):
        with pytest.raises(AssertionError):
            aperiodic_measure(s, 2)


def test_periodic_witness_is_re_verified():
    s = m_sequence(4)
    r = periodic_measure(s, 3)
    wrong = (-(r.value + 2), r.witness_d)  # the witness's fold gives r.value, not this
    with mock.patch.object(correlation, "_scan_periodic", return_value=wrong):
        with pytest.raises(AssertionError, match="re-verification"):
            periodic_measure(s, 3)


def test_aperiodic_witness_matches_oracle_exhaustive():
    for n in range(1, 10):
        for k in range(1, min(4, n) + 1):
            for bits in range(1 << n):
                assert aperiodic_key(bits, n, k) == oracle_aperiodic(bits, n, k), (n, k, bits)


def test_order_2_witness_matches_oracle_exhaustive_at_10_bits():
    # rows whose range sits exactly on one term of the thirds bound, and tie the
    # best value there, first show up at 10 bits
    for bits in range(1 << 10):
        assert aperiodic_key(bits, 10, 2) == oracle_aperiodic(bits, 10, 2), bits


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_aperiodic_witness_matches_oracle(k, data):
    # n up to 40 puts every window tail length u_max mod 8 in reach; the oracle
    # visits C(n+1, k+1) windows, so order 4 stops at 24
    n = data.draw(st.integers(min_value=k, max_value=40 if k < 4 else 24))
    bits = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    assert aperiodic_key(bits, n, k) == oracle_aperiodic(bits, n, k)


@st.composite
def tie_heavy_bits(draw, n):
    """Periodic, constant or sparse n-bit inputs, whose rows tie often."""
    kind = draw(st.sampled_from(["periodic", "constant", "sparse"]))
    if kind == "periodic":
        t = draw(st.integers(min_value=1, max_value=6))
        block = draw(st.integers(min_value=0, max_value=(1 << t) - 1))
        return sum(((block >> (i % t)) & 1) << i for i in range(n))
    if kind == "constant":
        return draw(st.sampled_from([0, mask(n)]))
    ones = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=3))
    return sum(1 << i for i in set(ones))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_aperiodic_witness_matches_oracle_on_ties(k, data):
    n = data.draw(st.integers(min_value=k, max_value=16))
    bits = data.draw(tie_heavy_bits(n))
    assert aperiodic_key(bits, n, k) == oracle_aperiodic(bits, n, k)


def test_periodic_witness_matches_oracle_exhaustive():
    for t in range(1, 11):
        for k in range(1, min(4, t) + 1):
            for bits in range(1 << t):
                r = periodic_measure(BitSequence.from_int(bits, t, period=t), k)
                assert (-r.value, tuple(r.witness_d)) == oracle_periodic(bits, t, k), (t, k, bits)


def full_periodic_scan(block, t, k):
    """Smallest (-|v|, D) over every D = (0, d_2, ..., d_k) in lexicographic order."""
    two = block | (block << t)
    shifted = [(two >> j) & mask(t) for j in range(t)]
    best_value, best_d = -1, None
    for prefix, fold in fold_extensions(shifted, (0,), k - 1, 1, t - 1):
        for last in range(prefix[-1] + 1, t):
            value = abs(t - 2 * (fold ^ shifted[last]).bit_count())
            if value > best_value:
                best_value, best_d = value, prefix + (last,)
                if value == t:
                    return -best_value, best_d
    return -best_value, best_d


def test_periodic_rotation_cut_matches_full_scan_exhaustively():
    # the scan visits only the shift sets that open with their smallest cyclic gap.
    # Rotated and complemented blocks have the same full-period sums, so the full
    # scan runs once per class; at T = 12 only the smallest block of each rotation
    # class is scanned, which keeps the test to a few seconds
    reference = {}
    for t in range(3, 13):
        for bits in range(1 << t):
            rotations = [((bits >> r) | (bits << (t - r))) & mask(t) for r in range(t)]
            if t == 12 and bits != min(rotations):
                continue
            cls = min(rotations + [x ^ mask(t) for x in rotations])
            s = BitSequence.from_int(bits, t, period=t)
            for k in range(2, t):
                if (t, cls, k) not in reference:
                    reference[t, cls, k] = full_periodic_scan(cls, t, k)
                r = periodic_measure(s, k)
                assert (-r.value, r.witness_d) == reference[t, cls, k], (t, bits, k)


def test_single_shift_set_orders_run_in_linear_memory():
    # k = N aperiodic and k in {1, T} periodic each have one shift set, and k = 1
    # aperiodic reads one row: no N-deep recursion, and no table of N shifted
    # N-bit copies (N**2 / 16 bytes, 25 MB here)
    n = 20000
    s = BitSequence.from_int(mask(n), n, period=n)
    tracemalloc.start()
    try:
        answers = [periodic_measure(s, 1), periodic_measure(s, n), aperiodic_measure(s, n),
                   aperiodic_measure(s, 1)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(r.value, r.witness_d[-1]) for r in answers] == [(n, 0), (n, n - 1), (1, n - 1),
                                                              (n, 0)]
    assert peak < 4 << 20

