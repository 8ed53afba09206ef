"""Nth linear complexity and Nth maximum-order complexity.

Conventions used throughout:

* L(S,N) = 0 for an all-zero prefix, and L(S,N) = N when the prefix is
  0...01.  The returned coefficients c_0..c_{L-1} satisfy
  s[i+L] = c_{L-1} s[i+L-1] + ... + c_0 s[i] over GF(2) for 0 <= i < N-L.
* M(S,N) is the smallest M >= 0 such that equal length-M windows inside
  the first N bits never disagree on the following bit.  The all-zero
  (or any constant) prefix therefore gets M = 0, mirroring the linear
  complexity convention for the degenerate case.

L comes from Berlekamp-Massey.  M is 1 plus the length of the longest
string followed by both bits in the prefix (0 when there is none): every
suffix of such a string is followed by both bits too, so shorter windows
conflict and longer ones do not.  One online pass over the suffix
automaton (DAWG) of the prefix finds these strings as they appear, for
every N at once and in linear time (Blumer et al. 1985; Jansen & Boekee,
CRYPTO '89).

Both measures come with small-scale exhaustive oracles so the fast paths
can be checked against the bare definitions.
"""

import math
from itertools import combinations
from typing import NamedTuple

from .bitseq import BitSequence, mask, unpack
from .budget import DEFAULT_BUDGET, BudgetExceededError


class ComplexityProfile(NamedTuple):
    """Per-N values of a complexity measure over prefixes 1..N."""

    kind: str  # "linear" or "maximum-order"
    values: tuple[int, ...]
    coefficients: tuple[int, ...] | None = None  # recurrence for the full prefix

    @property
    def final(self) -> int:
        return self.values[-1] if self.values else 0


def _data_n(seq: BitSequence | int, n: int | None, fallback_n: int | None = None):
    if isinstance(seq, BitSequence):
        if n is None:
            n = seq.n
        elif not 0 <= n <= seq.n:
            raise ValueError(f"prefix length {n} out of range 0..{seq.n}")
        return seq.data & mask(n), n
    if n is None:
        n = fallback_n
    if n is None:
        raise ValueError("raw int input needs an explicit length")
    return seq & mask(n), n


def _berlekamp_massey(data: int, n: int, want_profile: bool = False):
    """Core synthesis. Returns (L, connection poly as bitmask, profile or None).

    The connection polynomial bitmask has bit j = coefficient of x^j, with
    C(x) = 1 + C_1 x + ... annihilating the prefix: s[i] = sum_j C_j s[i-j].
    The reversed-prefix register makes each discrepancy one AND plus one
    popcount on packed words; the bits are read once, through `unpack`.
    """
    c, b = 1, 1
    l, m = 0, -1
    rev = 0  # bits s_i..s_0, most recent at bit 0
    profile = [] if want_profile else None
    for i, bit in enumerate(map(int, unpack(data, n))):
        rev = (rev << 1) | bit
        if (c & rev).bit_count() & 1:
            t = c
            c ^= b << (i - m)
            if 2 * l <= i:
                l, m, b = i + 1 - l, i, t
        if profile is not None:
            profile.append(l)
    return l, c, profile


def _recurrence_from_connection(conn: int, l: int) -> tuple[int, ...]:
    # c_m = C_{L-m}: coefficient of s[i+m] in the prediction of s[i+L]
    return tuple(map(int, unpack(conn, l + 1)[:0:-1]))


def linear_complexity(seq: BitSequence | int, n: int | None = None) -> tuple[int, tuple[int, ...]]:
    """Nth linear complexity with a witnessing recurrence.

    Returns (L, (c_0, ..., c_{L-1})).  The coefficient tuple is empty for
    the all-zero prefix.
    """
    data, n = _data_n(seq, n)
    l, conn, _ = _berlekamp_massey(data, n)
    return l, _recurrence_from_connection(conn, l)


def linear_complexity_profile(seq: BitSequence | int, n: int | None = None) -> ComplexityProfile:
    data, n = _data_n(seq, n)
    l, conn, prof = _berlekamp_massey(data, n, want_profile=True)
    return ComplexityProfile("linear", tuple(prof), _recurrence_from_connection(conn, l))


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


def _moc_profile(data: int, n: int) -> list[int]:
    """M(S, i) for i = 1..n from one online suffix-automaton pass.

    The automaton (Blumer et al. 1985) lives in flat lists: state p has
    length[p], link[p] and successors succ[2*p + bit], -1 when absent.
    All strings of a state end at the same positions, so they are followed
    by the same bits: the state's longest string, of length[p], is followed
    by both bits exactly when p has both successors, and M(S, i) is 1 plus
    the largest such length.  Successors are never removed.  A state gains
    one only on the suffix-link walk of an appended bit c, or as a clone,
    which copies those of a longer state.  So M >= length[p] + 1 whenever
    the walk gives p successor c while it already has 1 - c, and nothing
    else can raise M.  The bits are read once, through `unpack`: shifting
    the n-bit int at each step would make the pass quadratic again.
    """
    length = [0]
    link = [-1]
    succ = [-1, -1]
    last = 0
    m = 0
    values = []
    for c in map(int, unpack(data, n)):
        cur = len(length)
        length.append(length[last] + 1)
        link.append(0)
        succ += (-1, -1)
        p = last
        while p >= 0:
            i = 2 * p + c
            if succ[i] >= 0:
                break
            succ[i] = cur
            if succ[i ^ 1] >= 0 and length[p] >= m:
                m = length[p] + 1
            p = link[p]
        if p >= 0:
            q = succ[i]
            if length[q] == length[p] + 1:
                link[cur] = q
            else:
                clone = len(length)
                length.append(length[p] + 1)
                link.append(link[q])
                succ += succ[2 * q:2 * q + 2]
                while p >= 0 and succ[2 * p + c] == q:
                    succ[2 * p + c] = clone
                    p = link[p]
                link[q] = link[cur] = clone
        last = cur
        values.append(m)
    return values


def max_order_complexity(seq: BitSequence | int, n: int | None = None) -> int:
    """Nth maximum-order complexity: the last value of the automaton pass.

    Linear in n; see `_moc_profile` for why the conflict rule is exact.
    """
    data, n = _data_n(seq, n)
    values = _moc_profile(data, n)
    return values[-1] if values else 0


def max_order_complexity_profile(seq: BitSequence | int, n: int | None = None) -> ComplexityProfile:
    """M(S,N) for every prefix length 1..N, from the same pass.

    The value only grows with N (a window followed by both bits stays so),
    so the pass records its running maximum after each bit.
    """
    data, n = _data_n(seq, n)
    return ComplexityProfile("maximum-order", tuple(_moc_profile(data, n)))


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


def kerror_linear_complexity(
    seq: BitSequence | int,
    n: int | None = None,
    errors: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Minimum L(S',N) over all S' within Hamming distance `errors` of the prefix.

    Exhaustive over every flip pattern of weight <= errors, one BM pass of
    N bit-steps each.  Raises BudgetExceededError before any work when
    those N * sum_{i <= errors} C(N, i) bit-steps exceed budget.
    """
    data, n = _data_n(seq, n)
    if errors < 0 or errors > n:
        raise ValueError(f"error count {errors} out of range 0..{n}")
    cost = n * sum(math.comb(n, w) for w in range(errors + 1))
    if cost > budget:
        raise BudgetExceededError(cost, budget, "BM bit-steps")
    best = _berlekamp_massey(data, n)[0]
    for w in range(1, errors + 1):
        if best == 0:
            break
        for pos in combinations(range(n), w):
            flip = 0
            for p in pos:
                flip |= 1 << p
            l = _berlekamp_massey(data ^ flip, n)[0]
            if l < best:
                best = l
                if best == 0:
                    break
    return best
