"""Nth linear complexity and Nth maximum-order complexity.

Conventions used throughout:

* L(S,N) = 0 for an all-zero prefix, and L(S,N) = N when the prefix is
  0...01.  The returned coefficients c_0..c_{L-1} satisfy
  s[i+L] = c_{L-1} s[i+L-1] + ... + c_0 s[i] over GF(2) for 0 <= i < N-L.
* M(S,N) is the smallest M >= 0 such that equal length-M windows inside
  the first N bits never disagree on the following bit.  The all-zero
  (or any constant) prefix therefore gets M = 0, mirroring the linear
  complexity convention for the degenerate case.

L comes from Berlekamp-Massey, which reads the prefix through a
reversed register cut to the bits that later steps can still read: l
never falls, and a length change at step i sets l = i + 1 - l, so no
later step reads a bit before s_{i+1-l}.  M is 1 plus the length of the
longest string followed by both bits in the prefix (0 when there is
none): every suffix of such a string is followed by both bits too, so
shorter windows conflict and longer ones do not.  One online pass over
the suffix automaton (DAWG) of the prefix finds these strings as they
appear, for every N at once and in linear time (Blumer et al. 1985;
Jansen & Boekee, CRYPTO '89).  The alphabet is binary, so the automaton
keeps one successor list per bit, and each appended bit picks its own
list and the other one once for its whole suffix-link walk.  A sentinel
state at index -1, the root's suffix link, has both successors set, so
the walk stops at it on the successor test alone.

A declared period T stops that pass once the prefix length reaches
T + m, m the value so far.  Take any string x followed by both bits in a
T-periodic word.  Shifting each occurrence back by a multiple of T until
it starts before T keeps its successor, so x is followed by both bits
inside the first T + |x| bits.  Every suffix of x is followed by both
bits too.  So if no string of length m is followed by both bits in the
first T + m bits, no longer one is anywhere, M(S, N) = m, and the
profile repeats m from there on.  A string of length T or more is
followed only by its own bit T back, so m <= T and the pass reads at
most 2T bits.  Raw int inputs carry no period and always take the full
pass.

The k-error L is the minimum L over every flip pattern of weight <= k.
A depth-first walk over the patterns steps the same Berlekamp-Massey
routine, `_bm_run`, that computes L, so patterns sharing their first
flips share those steps, and a branch ends once its L reaches the best.

Both measures come with small-scale exhaustive oracles so the fast paths
can be checked against the bare definitions.
"""

import math
from typing import NamedTuple

from .bitseq import BitSequence, mask, unpack
from .budget import DEFAULT_BUDGET, BudgetExceededError


class ComplexityProfile(NamedTuple):
    """Per-N values of a complexity measure over prefixes 1..N."""

    values: tuple[int, ...]
    coefficients: tuple[int, ...] | None = None  # linear: recurrence for the full prefix

    @property
    def final(self) -> int:
        return self.values[-1] if self.values else 0


def _data_n(seq: BitSequence | int, n: int | None):
    if isinstance(seq, BitSequence):
        if n is None:
            n = seq.n
        elif not 0 <= n <= seq.n:
            raise ValueError(f"prefix length {n} out of range 0..{seq.n}")
        return seq.data & mask(n), n
    if n is None:
        raise ValueError("raw int input needs an explicit length")
    return seq & mask(n), n


_BM_START = (1, 1, 0, -1, 0)  # (c, b, l, m, rev) before the first bit
_JUMP = 32  # quiet bits beyond l after which one product looks ahead
_SLACK = 64  # bits rev may carry beyond l before a length change cuts it
_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")
_TO_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def _bit_bytes(data: int, n: int) -> bytes:
    """Bits 0..n-1 of data as one byte each, 0 or 1, bit 0 first."""
    return unpack(data, n).encode().translate(_TO_BITS)


def _bm_run(bits, start: int, state: tuple, stop: int, profile: list | None = None):
    """Berlekamp-Massey from `state` over bits, the first of them at position start.

    bits is a sequence of 0/1 ints (bytes, list or tuple).  Returns the
    state after the last bit, or None as soon as l reaches stop.  A state
    is (c, b, l, m, rev).  The connection polynomial c has bit j =
    coefficient of x^j, with C(x) = 1 + C_1 x + ... annihilating the
    prefix: s[i] = sum_j C_j s[i-j].  b and m are the polynomial and the
    position of the last length change, and the reversed-prefix register
    rev holds s_i..s_0, most recent at bit 0, so each discrepancy is one
    AND plus one popcount on packed words.  l changes only at a length
    change, and never decreases, so only there is it checked against
    stop.  profile, when given, receives l after each bit.

    After a length change at step i, which sets l = i + 1 - l_old >=
    l_old, later steps read only the low l bits of rev.  Step j reads bits
    0..deg c of its register, with deg c <= l_{j-1} <= max(l, j - l)
    (each later change sets l to j' + 1 - l' with j' < j and l' >= l),
    and its register holds rev shifted up by j - i bits.  So it reads
    rev's bits up to max(l - (j - i), i - l) <= l - 1, as i - l = l_old -
    1.  A length change cuts rev to those l bits once it has grown _SLACK
    bits beyond them, so a step shifts and ANDs about l bits, not i.  The
    k-error walk's one-bit runs pay only the length test, at length
    changes.

    The discrepancy at position i is bit i of the carry-less product
    c * s, and c only changes where it is nonzero.  So once _JUMP + l bits
    in a row have had none, `_quiet` computes that product over every
    remaining bit at once, and the run restarts its loop on a slice from
    the next nonzero one, or ends, appending l to profile for each bit it
    skips.  The wait of at least l bits pays for the product's one shift
    per term of c.  The jump does not cut rev: with l unchanged, the next
    length change, at some step j, sets l to j + 1 - l, and the steps
    after it read back to about bit j - l.
    """
    c, b, l, m, rev = state
    ahead = start + l + _JUMP
    while True:
        for i, bit in enumerate(bits, start):
            rev = (rev << 1) | bit
            if (c & rev).bit_count() & 1:
                t = c
                c ^= b << (i - m)
                if 2 * l <= i:
                    l, m, b = i + 1 - l, i, t
                    if l >= stop:
                        return None
                    if rev.bit_length() > l + _SLACK:
                        rev &= (1 << l) - 1
                ahead = i + l + _JUMP
            elif i >= ahead:
                rest = bytes(bits[i + 1 - start:])
                skip = _quiet(c, rev, rest)
                if skip:
                    rev = (rev << skip) | int(rest[:skip].translate(_TO_CHARS), 2)
                    if profile is not None:
                        profile.extend([l] * (skip + 1))
                    bits, start = rest[skip:], i + 1 + skip
                    break
            if profile is not None:
                profile.append(l)
        else:
            return c, b, l, m, rev


def _quiet(c: int, rev: int, rest: bytes) -> int:
    """How many of the bits in rest, which follow rev's, have zero discrepancy under c.

    With r = deg c, the packed word f holds the last r bits of rev in
    order, then rest, so bit r + x of the carry-less product c * f is the
    discrepancy at rest[x]: one shifted copy of f per term of c.
    """
    r = c.bit_length() - 1
    f = int(rest[::-1].translate(_TO_CHARS) or b"0", 2) << r
    if r:
        f |= int(unpack(rev & mask(r), r), 2)  # int(.., 2) reads bit 0 as the top bit
    product = 0
    for j, term in enumerate(unpack(c, r + 1)):
        if term == "1":
            product ^= f << j
    ahead = (product >> r) & mask(len(rest))
    return (ahead & -ahead).bit_length() - 1 if ahead else len(rest)


def _berlekamp_massey(data: int, n: int, profile: list | None = None) -> tuple[int, int]:
    """(L, connection polynomial bitmask) of the n-bit prefix; the bits are read once."""
    conn, _, l, _, _ = _bm_run(_bit_bytes(data, n), 0, _BM_START, n + 1, profile)
    return l, conn


def _recurrence_from_connection(conn: int, l: int) -> tuple[int, ...]:
    # c_m = C_{L-m}: coefficient of s[i+m] in the prediction of s[i+L]
    return tuple(unpack(conn, l + 1)[:0:-1].encode().translate(_TO_BITS))


def linear_complexity(seq: BitSequence | int, n: int | None = None) -> tuple[int, tuple[int, ...]]:
    """Nth linear complexity with a witnessing recurrence.

    Returns (L, (c_0, ..., c_{L-1})).  The coefficient tuple is empty for
    the all-zero prefix.
    """
    data, n = _data_n(seq, n)
    l, conn = _berlekamp_massey(data, n)
    return l, _recurrence_from_connection(conn, l)


def linear_complexity_profile(seq: BitSequence | int, n: int | None = None) -> ComplexityProfile:
    data, n = _data_n(seq, n)
    profile = []
    l, conn = _berlekamp_massey(data, n, profile)
    return ComplexityProfile(tuple(profile), _recurrence_from_connection(conn, l))


def linear_complexity_bruteforce(seq: BitSequence | int, n: int | None = None) -> int:
    """Definition-level oracle: try every (L, coefficient vector) in increasing L.

    Exponential in L; intended for cross-checking at toy sizes.
    """
    data, n = _data_n(seq, n)
    if data == 0:
        return 0
    for l in range(1, n + 1):
        w = n - l
        wins = [(data >> i) & mask(l) for i in range(w)]
        succ = [(data >> (i + l)) & 1 for i in range(w)]
        for c in range(1 << l):
            for win, s in zip(wins, succ):
                if (c & win).bit_count() & 1 != s:
                    break
            else:
                return l
    return n


def _moc_profile(data: int, n: int, period: int | None = None) -> list[int]:
    """M(S, i) for i = 1..n from one online suffix-automaton pass.

    The automaton (Blumer et al. 1985) lives in flat lists sized to its
    2n + 1 state bound plus a sentinel: state p has length[p], link[p] and
    one successor list per bit, zero[p] and one[p], -1 when absent.  The
    sentinel is the last entry, index -1, so the root's link -1 names it.
    Both its successors are 0, the root, which is no state's successor:
    the suffix-link walk (own[p] < 0) and the clone redirect (own[p] ==
    q) both stop at it without testing p >= 0.  For each appended
    bit c the pass names own = the list for c and other = the list for
    1 - c once, so the suffix-link walk indexes both with p alone.
    All strings of a state end at the same positions, so they are followed
    by the same bits: the state's longest string, of length[p], is followed
    by both bits exactly when p has both successors, and M(S, i) is 1 plus
    the largest such length.  Successors are never removed.  A state gains
    one only on the suffix-link walk of an appended bit c, or as a clone,
    which copies those of a longer state.  So M >= length[p] + 1 whenever
    the walk gives p successor c while it already has 1 - c, and nothing
    else can raise M.  The walk visits strictly shorter strings, and a
    suffix of a string followed by 1 - c is followed by 1 - c too, so only
    the first such p can raise M; the rest of the walk just sets own.  The
    state of the whole prefix, last, has no successor yet, so it takes own
    before the walk starts at its link.  The bits are read once, as one
    byte each: shifting the n-bit int at each step would make the pass
    quadratic again.  Each rise of M is kept as (prefix length, new M),
    and the profile is built from those once at the end.

    With a declared period T the pass stops once the prefix length
    reaches T + m, or n, and repeats its last value; the module docstring
    says why that is exact.  m only grows, so the bits are read in
    segments, each up to T + m for the m at its start, and the loop over
    one segment carries no test of its own.
    """
    top = n if period is None else min(n, 2 * period)
    stop = n if period is None else min(n, period)
    size = 2 * top + 2
    length = [0] * size
    link = [0] * size
    link[0] = -1
    zero = [-1] * size
    one = [-1] * size
    zero[-1] = one[-1] = 0  # the sentinel
    succ = (zero, one)
    last = 0
    states = 1
    m = 0
    rises = [(1, 0)]
    bits = _bit_bytes(data & mask(top), top)
    done = 0
    while done < stop:
        for c in bits[done:stop]:
            own = succ[c]
            other = succ[1 - c]
            cur = states
            states += 1
            length[cur] = length[last] + 1
            own[last] = cur
            p = link[last]
            while own[p] < 0:
                own[p] = cur
                if other[p] >= 0:
                    if length[p] >= m:
                        m = length[p] + 1
                        rises.append((length[cur], m))
                    p = link[p]
                    while own[p] < 0:
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
                    while own[p] == q:
                        own[p] = clone
                        p = link[p]
                    link[q] = link[cur] = clone
            last = cur
        done = stop
        if period is not None:
            stop = min(n, period + m)
    rises.append((n + 1, m))
    values = []
    for (start, value), (end, _) in zip(rises, rises[1:]):
        values += [value] * (end - start)
    return values


def _moc_values(seq: BitSequence | int, n: int | None) -> list[int]:
    """The `_moc_profile` of the n-bit prefix, cut at T + M bits for a declared period T."""
    data, n = _data_n(seq, n)
    period = seq.period if isinstance(seq, BitSequence) else None
    return _moc_profile(data, n, period)


def max_order_complexity(seq: BitSequence | int, n: int | None = None) -> int:
    """Nth maximum-order complexity: the last value of the automaton pass.

    Linear in n, and in min(n, T + M) when seq declares a period T; see
    the module docstring for why the conflict rule and the cut are exact.
    """
    values = _moc_values(seq, n)
    return values[-1] if values else 0


def max_order_complexity_profile(seq: BitSequence | int, n: int | None = None) -> ComplexityProfile:
    """M(S,N) for every prefix length 1..N, from the same pass.

    The value only grows with N (a window followed by both bits stays so),
    so the pass records its running maximum after each bit.
    """
    return ComplexityProfile(tuple(_moc_values(seq, n)))


def max_order_complexity_bruteforce(seq: BitSequence | int, n: int | None = None) -> int:
    """Definition-level oracle: materialize every (window, successor) pair.

    A window size is conflicting iff two equal windows carry different
    successors, which sorting makes adjacent.  No shared machinery with
    the suffix-automaton pass above.
    """
    data, n = _data_n(seq, n)
    for m in range(n):
        pairs = sorted(
            (((data >> i) & mask(m)) << 1) | ((data >> (i + m)) & 1)
            for i in range(n - m)
        )
        if all(
            a >> 1 != b >> 1 or a == b
            for a, b in zip(pairs, pairs[1:])
        ):
            return m
    return 0 if n == 0 else n


def _kerror_walk(bits: bytes, start: int, state: tuple, flips: int, best: int) -> int:
    """Smallest final l below best over every way to flip at most `flips` of bits[start:].

    state is the BM state before bit start, with l < best; returns best
    when no pattern goes below it.  Patterns are walked depth first with
    their flips in increasing order: at each position the flipped bit's
    subtree first, then the unflipped bit, so the patterns that agree
    below a position share the BM steps up to it.  l never decreases as
    bits are added, so a branch ends once its l reaches best.
    """
    if not flips:
        end = _bm_run(bits[start:], start, state, best)
        return best if end is None else end[2]
    for i in range(start, len(bits)):
        flipped = _bm_run((1 - bits[i],), i, state, best)
        if flipped is not None:
            best = _kerror_walk(bits, i + 1, flipped, flips - 1, best)
        state = _bm_run((bits[i],), i, state, best)
        if state is None or state[2] >= best:
            return best
    return state[2]


def kerror_linear_complexity(
    seq: BitSequence | int,
    n: int | None = None,
    errors: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Minimum L(S',N) over all S' within Hamming distance `errors` of the prefix.

    Exact by a depth-first walk over the flip patterns of weight <=
    errors (`_kerror_walk`), seeded with the unflipped L, which shares BM
    steps between patterns and cuts every branch whose L already reaches
    the best found.  The price is the worst case without that sharing
    or cutting, N * sum_{i <= errors} C(N, i) BM bit-steps, one pass per
    pattern; BudgetExceededError is raised before any work when it
    exceeds budget.
    """
    data, n = _data_n(seq, n)
    if errors < 0 or errors > n:
        raise ValueError(f"error count {errors} out of range 0..{n}")
    cost = n * sum(math.comb(n, w) for w in range(errors + 1))
    if cost > budget:
        raise BudgetExceededError(cost, budget, "BM bit-steps")
    bits = _bit_bytes(data, n)
    best = _bm_run(bits, 0, _BM_START, n + 1)[2]
    if errors and best:
        best = _kerror_walk(bits, 0, _BM_START, errors, best)
    return best
