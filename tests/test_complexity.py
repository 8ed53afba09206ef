import itertools

import pytest
from hypothesis import given, settings, strategies as st

from seqmeter import complexity
from seqmeter.bitseq import BitSequence, mask
from seqmeter.budget import BudgetExceededError
from seqmeter.complexity import (
    _berlekamp_massey,
    _data_n,
    _moc_profile,
    linear_complexity,
    linear_complexity_bruteforce,
    linear_complexity_profile,
    kerror_linear_complexity,
    max_order_complexity,
    max_order_complexity_bruteforce,
    max_order_complexity_profile,
)
from seqmeter.generators import m_sequence


def seq(bits):
    return BitSequence([int(b) for b in bits])


def recurrence_holds(seq: BitSequence | int, coeffs: tuple[int, ...], n: int | None = None) -> bool:
    """Check s[i+L] == sum_m c_m s[i+m] for all 0 <= i < n-L."""
    data, n = _data_n(seq, n)
    l = len(coeffs)
    cmask = 0
    for m, c in enumerate(coeffs):
        cmask |= c << m
    for i in range(n - l):
        pred = (cmask & (data >> i)).bit_count() & 1
        if pred != (data >> (i + l)) & 1:
            return False
    return True


# Conventions: all-zero -> 0, a lone trailing 1 -> N.
def test_lc_conventions():
    assert linear_complexity(seq("0000"))[0] == 0
    assert linear_complexity(seq("0001"))[0] == 4
    assert linear_complexity(seq("1"))[0] == 1
    assert linear_complexity(BitSequence([]))[0] == 0


def test_lc_known_values():
    # x^3 + x + 1 register: s_{i+3} = s_{i+1} + s_i
    assert linear_complexity(seq("10010111001011"))[0] == 3
    assert linear_complexity(seq("1111"))[0] == 1
    assert linear_complexity(seq("1010101"))[0] == 2


def test_lc_returned_recurrence_generates():
    s = seq("110101100101")
    L, coeffs = linear_complexity(s)
    assert recurrence_holds(s, coeffs)


def test_profile_monotone_and_final():
    s = seq("10010111001011")
    prof = linear_complexity_profile(s).values
    assert len(prof) == s.n
    assert all(a <= b for a, b in zip(prof, prof[1:]))
    assert prof[-1] == linear_complexity(s)[0]
    # profile jump rule: if L <= N/2 changes, it jumps to N+1-L
    for i, (a, b) in enumerate(zip(prof, prof[1:]), start=1):
        if a != b:
            assert b == i + 1 - a


def bm_reference(bits, n):
    """Textbook Berlekamp-Massey, one bit at a time with no look-ahead.

    The bits and the polynomials C and B are lists of 0/1, so nothing is
    shared with the packed register of `_bm_run`.  Returns the profile and
    the connection polynomial (bit j = C_j).
    """
    s = [(bits >> i) & 1 for i in range(n)]
    c, b, l, m = [1], [1], 0, -1
    profile = []
    for i in range(n):
        d = 0
        for j in range(min(i + 1, len(c))):
            d ^= c[j] & s[i - j]
        if d:
            t = c[:]
            c += [0] * (len(b) + i - m - len(c))
            for j, bj in enumerate(b):
                c[j + i - m] ^= bj
            if 2 * l <= i:
                l, m, b = i + 1 - l, i, t
        profile.append(l)
    return profile, sum(cj << j for j, cj in enumerate(c))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=24), st.integers(min_value=0, max_value=400),
       st.lists(st.integers(min_value=0, max_value=399), max_size=3), st.data())
def test_bm_look_ahead_matches_reference(l, n, flips, data):
    # a recurrence of order l run over n bits stays quiet long enough for the
    # look-ahead product; flipped bits put discrepancies after the quiet stretches
    taps = data.draw(st.integers(min_value=0, max_value=(1 << l) - 1))
    bits = data.draw(st.integers(min_value=0, max_value=(1 << l) - 1))
    for i in range(l, n):
        bits |= ((taps & (bits >> (i - l))).bit_count() & 1) << i
    for f in flips:
        bits ^= 1 << f
    bits &= mask(n)
    profile, conn = bm_reference(bits, n)
    got = linear_complexity_profile(bits, n)
    final = profile[-1] if profile else 0
    assert list(got.values) == profile
    assert got.coefficients == tuple((conn >> (final - j)) & 1 for j in range(final))
    if 0 < n <= 80:
        # the k-error walk's unflipped tails jump too
        lc = lambda d: (bm_reference(d, n)[0] or [0])[-1]
        assert kerror_linear_complexity(bits, n, errors=1) == kerror_by_patterns(bits, n, 1, lc)[-1]


def test_bm_look_ahead_jumps_a_long_quiet_stretch():
    # 10,060 quiet bits of an order-5 recurrence, then one flip: the run
    # jumps the stretch once, and the length change at the flip reads the
    # register back to its start
    n, flip = 10_075, 10_060
    bits = m_sequence(5, periods=325).data ^ (1 << flip)
    profile, conn = bm_reference(bits, n)
    assert profile[flip - 1:] == [5] + [flip + 1 - 5] * (n - flip)
    got = linear_complexity_profile(bits, n)
    assert list(got.values) == profile
    assert got.coefficients == tuple((conn >> (profile[-1] - j)) & 1 for j in range(profile[-1]))


def _bm_matches_reference(bits, n):
    profile = []
    l, conn = _berlekamp_massey(bits, n, profile)
    return (profile, conn) == bm_reference(bits, n)


def test_bm_cut_register_matches_reference_exhaustive(monkeypatch):
    # with no slack, rev is cut to l bits at every length change where it is longer
    monkeypatch.setattr(complexity, "_SLACK", 0)
    for n in range(15):
        for bits in range(1 << n):
            assert _bm_matches_reference(bits, n), (n, bits)


@st.composite
def bm_inputs(draw):
    """(bits, n) up to n = 2000: random, 0...01, a long run inside random bits,
    or a recurrence with a few flips, whose quiet stretches take the look-ahead."""
    n = draw(st.integers(min_value=0, max_value=2000))
    kind = draw(st.sampled_from(["random", "impulse", "run", "recurrence"]))
    if kind == "random":
        return draw(st.integers(min_value=0, max_value=mask(n))), n
    if kind == "impulse":
        return (1 << n - 1 if n else 0), n
    if kind == "run":
        lo = draw(st.integers(min_value=0, max_value=n))
        hi = draw(st.integers(min_value=lo, max_value=n))
        bits = draw(st.integers(min_value=0, max_value=mask(n))) & ~(mask(hi) ^ mask(lo))
        return bits | (mask(hi) ^ mask(lo)) * draw(st.integers(0, 1)), n
    l = draw(st.integers(min_value=1, max_value=min(64, max(n, 1))))
    taps = draw(st.integers(min_value=0, max_value=mask(l)))
    bits = draw(st.integers(min_value=0, max_value=mask(l)))
    for i in range(l, n):
        bits |= ((taps & (bits >> (i - l))).bit_count() & 1) << i
    for f in draw(st.lists(st.integers(min_value=0, max_value=max(n - 1, 0)), max_size=3)):
        bits ^= 1 << f
    return bits & mask(n), n


@settings(max_examples=60, deadline=None)
@given(bm_inputs())
def test_bm_cut_register_matches_reference(case):
    bits, n = case
    assert _bm_matches_reference(bits, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexity, "_SLACK", 0)
        assert _bm_matches_reference(bits, n)


def test_moc_conventions():
    assert max_order_complexity(seq("0000")) == 0
    assert max_order_complexity(seq("1111")) == 0  # constants need no window
    assert max_order_complexity(seq("0101")) == 1
    assert max_order_complexity(seq("0001")) == 3
    assert max_order_complexity(BitSequence([])) == 0
    # M ~ N: only the two longest windows disagree
    assert max_order_complexity(BitSequence.from_int(1 << 4999, 5000)) == 4999
    assert max_order_complexity(BitSequence.from_int((1 << 4999) - 1, 5000)) == 4999


def test_moc_profile():
    s = seq("0001101")
    prof = max_order_complexity_profile(s).values
    assert len(prof) == s.n
    assert all(a <= b for a, b in zip(prof, prof[1:]))
    assert prof[-1] == max_order_complexity(s)


def _moc_profile_matches_bruteforce(bits, n):
    values = max_order_complexity_profile(BitSequence.from_int(bits, n)).values
    return list(values) == [
        max_order_complexity_bruteforce(bits & ((1 << i) - 1), i) for i in range(1, n + 1)
    ]


def test_moc_profile_prefixes_exhaustive():
    for n in range(11):
        for bits in range(1 << n):
            assert _moc_profile_matches_bruteforce(bits, n), (n, bits)


@settings(max_examples=300)
@given(st.integers(min_value=1, max_value=24), st.data())
def test_moc_profile_prefixes_equal_bruteforce(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    assert _moc_profile_matches_bruteforce(bits, n)


def moc_profile_reference(data, n, period=None):
    """The automaton pass before its sentinel state, kept as the reference.

    It tests p >= 0 on every suffix-link and clone-redirect step and
    appends M after every bit.
    """
    stop = n if period is None else min(n, 2 * period - 1)
    size = 2 * stop + 1
    length = [0] * size
    link = [0] * size
    link[0] = -1
    zero = [-1] * size
    one = [-1] * size
    succ = (zero, one)
    last, states, m = 0, 1, 0
    values = []
    for i in range(stop):
        c = (data >> i) & 1
        own, other = succ[c], succ[1 - c]
        cur = states
        states += 1
        length[cur] = length[last] + 1
        own[last] = cur
        p = link[last]
        while p >= 0 and own[p] < 0:
            own[p] = cur
            if other[p] >= 0:
                if length[p] >= m:
                    m = length[p] + 1
                p = link[p]
                while p >= 0 and own[p] < 0:
                    own[p] = cur
                    p = link[p]
                break
            p = link[p]
        if p >= 0:
            q = own[p]
            lp = length[p] + 1
            if length[q] == lp:
                link[cur] = q
            else:
                clone = states
                states += 1
                length[clone] = lp
                link[clone] = link[q]
                zero[clone] = zero[q]
                one[clone] = one[q]
                while p >= 0 and own[p] == q:
                    own[p] = clone
                    p = link[p]
                link[q] = link[cur] = clone
        last = cur
        values.append(m)
    return values + [m] * (n - stop)


def test_moc_sentinel_pass_matches_reference_exhaustive():
    for n in range(15):
        for data in range(1 << n):
            assert _moc_profile(data, n) == moc_profile_reference(data, n), (n, data)
    # declared periods: every block of period T <= 7 over every n <= 14
    for t in range(1, 8):
        for block in range(1 << t):
            declared, _ = _periodic(block, t, 14)
            for n in range(15):
                data = declared.data & mask(n)
                assert _moc_profile(data, n, t) == moc_profile_reference(data, n, t), (t, block, n)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=3000), st.data())
def test_moc_sentinel_pass_matches_reference(n, data):
    # a declared period asserts that the bits repeat with it, as in BitSequence
    bits = data.draw(st.integers(min_value=0, max_value=mask(n)))
    period = data.draw(st.none() | st.integers(min_value=1, max_value=max(n, 1)))
    if period is not None:
        bits = _periodic(bits & mask(period), period, n)[0].data
    assert _moc_profile(bits, n, period) == moc_profile_reference(bits, n, period)


def test_moc_period_stop_matches_old_cut_exhaustive():
    # every block of period T <= 10 at every n <= 3T: the pass that stops at
    # T + M equals the reference cut at 2T - 1 bits, and reads no bit from
    # T + M on, so flipping those bits changes nothing
    for t in range(1, 11):
        top = 3 * t
        for block in range(1 << t):
            full = _periodic(block, t, top)[0].data
            for n in range(top + 1):
                data = full & mask(n)
                values = _moc_profile(data, n, t)
                assert values == moc_profile_reference(data, n, t), (t, block, n)
                unread = mask(n) & ~mask(t + (values[-1] if values else 0))
                assert _moc_profile(data ^ unread, n, t) == values, (t, block, n)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.data())
def test_moc_period_stop_matches_old_cut(t, data):
    block = data.draw(st.integers(min_value=0, max_value=mask(t)))
    n = data.draw(st.integers(min_value=0, max_value=3 * t + 2))
    bits = _periodic(block, t, n)[0].data
    values = _moc_profile(bits, n, t)
    assert values == moc_profile_reference(bits, n, t)
    unread = mask(n) & ~mask(t + (values[-1] if values else 0))
    assert _moc_profile(bits ^ unread, n, t) == values


def _periodic(block, t, n):
    """The n-bit prefix of block repeated with period t, as (declared, plain) sequences."""
    data = 0
    for r in range(n // t + 1):
        data |= block << (r * t)
    data &= mask(n)
    return BitSequence.from_int(data, n, t), BitSequence.from_int(data, n)


def test_moc_period_cut_exhaustive():
    # every block of period T <= 10 and every n <= 4T + 1; the declared-period
    # pass reads only min(n, 2T - 1) bits
    for t in range(1, 11):
        top = 4 * t + 1
        for block in range(1 << t):
            declared, plain = _periodic(block, t, top)
            full = max_order_complexity_profile(plain).values
            for i in range(1, min(top, 16) + 1):
                assert full[i - 1] == max_order_complexity_bruteforce(plain.data & mask(i), i)
            for n in range(top + 1):
                assert max_order_complexity_profile(declared, n).values == full[:n], (t, block, n)
                assert max_order_complexity(declared, n) == (full[n - 1] if n else 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=64), st.data())
def test_moc_period_cut_equals_full_pass(t, data):
    block = data.draw(st.integers(min_value=0, max_value=(1 << t) - 1))
    n = data.draw(st.integers(min_value=0, max_value=6 * t + 2))
    declared, plain = _periodic(block, t, n)
    assert max_order_complexity_profile(declared) == max_order_complexity_profile(plain)


def test_moc_period_cut_at_explicit_n():
    ms = m_sequence(6, periods=4)  # T = 63, M = 6
    t = ms.period
    plain = BitSequence.from_int(ms.data, ms.n)
    for n in (1, t - 1, t, 2 * t - 2, 2 * t - 1, 2 * t, 3 * t + 5, ms.n):
        expected = max_order_complexity_profile(plain, n).values
        assert max_order_complexity_profile(ms, n).values == expected, n
        assert max_order_complexity(ms, n) == expected[-1] == max_order_complexity(plain, n)
    assert max_order_complexity(ms) == 6


@settings(max_examples=300)
@given(st.integers(min_value=1, max_value=14), st.data())
def test_bm_equals_bruteforce(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    s = BitSequence.from_int(bits, n)
    assert linear_complexity(s)[0] == linear_complexity_bruteforce(s)


@settings(max_examples=300)
@given(st.integers(min_value=1, max_value=24), st.data())
def test_moc_equals_bruteforce(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    s = BitSequence.from_int(bits, n)
    assert max_order_complexity(s) == max_order_complexity_bruteforce(s)


@settings(max_examples=300)
@given(st.integers(min_value=1, max_value=32), st.data())
def test_moc_never_exceeds_lc(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    s = BitSequence.from_int(bits, n)
    assert max_order_complexity(s) <= linear_complexity(s)[0]


def test_kerror_zero_errors_is_plain_lc():
    s = seq("1011001110001011")
    assert kerror_linear_complexity(s, errors=0) == linear_complexity(s)[0]


def test_kerror_monotone_in_errors():
    s = seq("1011001110001011")
    values = [kerror_linear_complexity(s, errors=e) for e in range(4)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_kerror_reaches_zero():
    # weight-1 sequence: one flip zeroes it
    s = seq("0000100000000000")
    assert kerror_linear_complexity(s, errors=1) == 0


def test_kerror_answers_long_prefix_within_budget():
    # one flip at N = 40 costs 40 * 41 BM bit-steps
    s = BitSequence.from_int((m_sequence(5).data & mask(40)) ^ (1 << 17), 40)
    best = min(linear_complexity(BitSequence.from_int(s.data ^ f, 40))[0]
               for f in (0, *(1 << i for i in range(40))))
    assert kerror_linear_complexity(s, errors=1) == best <= 5


def test_kerror_rejects_over_budget():
    s = BitSequence.from_int(0, 40)
    with pytest.raises(BudgetExceededError) as exc:
        kerror_linear_complexity(s, errors=1, budget=40 * 41 - 1)
    assert (exc.value.cost, exc.value.budget) == (40 * 41, 40 * 41 - 1)
    assert kerror_linear_complexity(s, errors=1, budget=40 * 41) == 0


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=10), st.data())
def test_kerror_bruteforce_definition(n, data):
    # library result == min BM over every flip pattern of weight <= e
    bits = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    e = data.draw(st.integers(min_value=0, max_value=min(2, n)))
    s = BitSequence.from_int(bits, n)
    best = min(
        linear_complexity(BitSequence.from_int(bits ^ f, n))[0]
        for f in range(1 << n)
        if bin(f).count("1") <= e
    )
    assert kerror_linear_complexity(s, errors=e) == best


def kerror_by_patterns(bits, n, errors, lc):
    """[min L over flip patterns of weight <= e for e in 0..errors], one pattern at a time.

    lc(data) is the linear complexity of an n-bit word; the enumeration
    shares nothing between patterns and never stops early.
    """
    best = [lc(bits)]
    for w in range(1, errors + 1):
        flips = (sum(1 << p for p in pos) for pos in itertools.combinations(range(n), w))
        best.append(min(best[-1], min(lc(bits ^ f) for f in flips)))
    return best


def test_kerror_walk_matches_pattern_enumeration_exhaustive():
    for n in range(13):
        table = [linear_complexity(bits, n)[0] for bits in range(1 << n)]
        for bits in range(1 << n):
            want = kerror_by_patterns(bits, n, min(3, n), table.__getitem__)
            got = [kerror_linear_complexity(bits, n, errors=e) for e in range(len(want))]
            assert got == want, (n, bits)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=20), st.data())
def test_kerror_walk_matches_pattern_enumeration(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    e = data.draw(st.integers(min_value=0, max_value=min(3, n)))
    want = kerror_by_patterns(bits, n, e, lambda d: linear_complexity(d, n)[0])[-1]
    assert kerror_linear_complexity(bits, n, errors=e) == want


def test_kerror_walk_at_full_depth():
    # every error count up to F = N = 16: the walk may place a flip at every position
    n = 16
    table = [linear_complexity(bits, n)[0] for bits in range(1 << n)]
    for bits in (0b1011001110001011, 0b0110100110010110, 0xFFFF):
        want = kerror_by_patterns(bits, n, n, table.__getitem__)
        assert [kerror_linear_complexity(bits, n, errors=e) for e in range(n + 1)] == want
        assert want[-1] == 0
