"""Nth linear complexity and the k-error linear complexity.

Convention: L(S,N) = 0 for an all-zero prefix, and L(S,N) = N when the
prefix is 0...01.  The returned coefficients c_0..c_{L-1} satisfy
s[i+L] = c_{L-1} s[i+L-1] + ... + c_0 s[i] over GF(2) for 0 <= i < N-L.

L comes from Berlekamp-Massey, which reads the prefix through a
reversed register cut to the bits that later steps can still read: l
never falls, and a length change at step i sets l = i + 1 - l, so no
later step reads a bit before s_{i+1-l}.

The k-error L is the minimum L over every flip pattern of weight <= k.
A depth-first walk over the patterns steps the same Berlekamp-Massey
routine, `_bm_run`, that computes L, so patterns sharing their first
flips share those steps, and a branch ends once its L reaches the best.

Maximum-order complexity, the other measure, lives in `seqmeter.moc`,
so a call that runs one measure compiles only its own module.  The
definition-level oracle that Berlekamp-Massey is checked against is
`verify.linear_complexity_bruteforce`.
"""

import math

from .bitseq import _TO_BITS, BitSequence, ComplexityProfile, _bit_bytes, _data_n, mask, unpack
from .budget import DEFAULT_BUDGET, BudgetExceededError


_BM_START = (1, 1, 0, -1, 0)  # (c, b, l, m, rev) before the first bit
_JUMP = 32  # quiet bits beyond l after which one product looks ahead
_SLACK = 64  # bits rev may carry beyond l before a length change cuts it
_TO_CHARS = bytes.maketrans(b"\x00\x01", b"01")


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


def _minimal_polynomial(data: int, n: int) -> tuple[int, int]:
    """(L, f) for the n-bit prefix, f = x^L + sum_r c_r x^r with bit r = c_r.

    f is the connection polynomial reversed over its L + 1 coefficients.
    """
    l, conn = _berlekamp_massey(data, n)
    return l, int(unpack(conn, l + 1), 2)  # int(.., 2) reads bit 0 as the top bit


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
