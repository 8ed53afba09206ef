"""Nth maximum-order complexity.

M(S,N) is the smallest M >= 0 such that equal length-M windows inside
the first N bits never disagree on the following bit.  The all-zero (or
any constant) prefix therefore gets M = 0, mirroring the linear
complexity convention for the degenerate case.

M is 1 plus the length of the longest string followed by both bits in
the prefix (0 when there is none): every suffix of such a string is
followed by both bits too, so shorter windows conflict and longer ones
do not.  One online pass over the suffix automaton (DAWG) of the prefix
finds these strings as they appear, for every N at once and in linear
time (Blumer et al. 1985; Jansen & Boekee, CRYPTO '89).  The alphabet is
binary, so the automaton keeps one successor list per bit, and each
appended bit picks its own list once for its whole suffix-link walk.  A
sentinel state at index -1, the root's suffix link, has both successors
set, so the walk stops at it on the successor test alone.

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

The definition-level oracle that the pass is checked against is
`verify.max_order_complexity_bruteforce`.
"""

from .bitseq import BitSequence, ComplexityProfile, _bit_bytes, _data_n, mask


def _moc_profile(data: int, n: int, period: int | None = None) -> list[int]:
    """M(S, i) for i = 1..n from one online suffix-automaton pass.

    The automaton (Blumer et al. 1985) lives in flat lists sized to its
    2n + 1 state bound plus a sentinel: state p has length[p], link[p] and
    one successor list per bit, zero[p] and one[p], -1 when absent.  The
    sentinel is the last entry, index -1, so the root's link -1 names it.
    Both its successors are 0, the root, which is no state's successor:
    the suffix-link walk (own[p] < 0) and the clone redirect (own[p] ==
    q) both stop at it without testing p >= 0.  For each appended
    bit c the pass names own = the list for c once, so the suffix-link
    walk indexes it with p alone.
    All strings of a state end at the same positions, so they are followed
    by the same bits: the state's longest string, of length[p], is followed
    by both bits exactly when p has both successors, and M(S, i) is 1 plus
    the largest such length.  Successors are never removed.  A state gains
    one only on the suffix-link walk of an appended bit c, or as a clone,
    which copies those of a longer state.  So M >= length[p] + 1 whenever
    the walk gives p successor c while it already has 1 - c, and nothing
    else can raise M.  The state of the whole prefix, last, has no
    successor yet, so it takes own before the walk starts at its link p.
    That p is the root of a nonempty prefix, or holds the longest suffix
    that also ends earlier, so it has a successor: if it lacks c, it has
    1 - c.  Only it can raise M, because the walk visits strictly shorter
    strings and a suffix of a string followed by 1 - c is followed by
    1 - c too; the rest of the walk just sets own.  The first bit's walk
    starts at the sentinel and does not run.  The bits are read once, as
    one byte each: shifting the n-bit int at each step would make the
    pass quadratic again.  Each rise of M is kept as (prefix length, new
    M), and the profile is built from those once at the end.

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
            cur = states
            states += 1
            length[cur] = length[last] + 1
            own[last] = cur
            p = link[last]
            if own[p] < 0:  # then p has successor 1 - c: see the docstring
                if length[p] >= m:
                    m = length[p] + 1
                    rises.append((length[cur], m))
                while own[p] < 0:
                    own[p] = cur
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
