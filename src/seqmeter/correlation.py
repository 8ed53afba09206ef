"""Correlation measures of order k, exact and exhaustive.

The order-k measure of a length-N prefix is the maximum over window
lengths U >= 1 and strictly increasing shift tuples D = (d_1 < ... < d_k)
with d_k <= N - U of

    | sum_{n < U} (-1)**(s[n+d_1] + ... + s[n+d_k]) |.

The periodic variant sums over one full period with all shifts inside the
period; by shift invariance of the full-period sum the search fixes
d_1 = 0.

Search is exhaustive and exponential in k, so every entry point is gated
by an explicit summand budget, priced for the full search.  The price is
a worst-case ceiling: the stops below visit less without changing what
the budget admits.

Both scans share one shift-set enumerator, `bitseq.fold_extensions`,
which the dual search in `codes` walks its supports with too.  A slice
shifts the packed sequence once per offset; the copies hold about as
many bits as the search has summands at most, so the budget bounds them
too.  The enumerator yields the first k-1 shifts in lexicographic order,
keeping the folds of shared leading shifts, and the scan loops over the
last shift itself: one XOR per shift set.  The periodic scan popcounts
that fold.  The aperiodic scan enumerates gap tuples G = (0, a_1, ...,
a_{k-1}) instead: D = d_1 + G sums the row Y = XOR of s >> a over G
from position d_1 on, so one row serves every d_1 and U, and its best
value is the range of Y's +-1 walk, read a byte at a time through
precomputed tables (`_scan_gaps`).  That is C(N-1, k-1) rows of at
most N/8 table steps, where a row per shift set would be ~C(N, k).

Stops skip work without changing the answer.  The aperiodic scan ends a
last-gap loop once the row is shorter than the best value, because rows
only shrink as the last gap grows, and for the same reason ends each
first gap's prefixes below N - best value.  It skips a row without
walking it when its count of ones and its count of zeros, which bound
every window sum, are both below the best value, and then when its
popcounts by thirds do.  Cut the row of L bits at t = L // 3 and L - t
into parts with z_i zeros (up steps) and o_i ones: a rise from part a
to part b takes at most the zeros of a and b and the net z_i - o_i of
each part between, so no rise exceeds z_1 + z_2, z_2 + z_3 or z_1 + z_2
+ z_3 - o_2, and no fall the same with zeros and ones swapped.  One cut
alone could not tighten the count bound, because a walk that falls,
rises through the cut and falls again reaches it.  The periodic scan
visits only the shift sets that open with their smallest cyclic gap,
which hold the lexicographically smallest rotation of every set
(`_scan_periodic`), and a slice returns at its first full peak, which
no later shift set of the slice can beat.
"""

import math
from itertools import accumulate
from typing import NamedTuple

from .bitseq import BitSequence, as_shifts, fold_extensions, mask, periodic_correlation, unpack
from .budget import DEFAULT_BUDGET, BudgetExceededError  # re-exported
from .parallel import map_min


def search_cost(n: int, k: int) -> int:
    """Summand-evaluation count for the exhaustive order-k search at length n."""
    if k < 1 or k > n:
        return 0
    # sum_{m=k-1}^{n-1} C(m, k-1) * (m+1) = k * sum_{j=k}^{n} C(j, k), hockey-stick identity
    return k * math.comb(n + 1, k + 1)


def periodic_search_cost(t: int, k: int) -> int:
    """Summand count for the periodic search: C(T-1, k-1) shift tuples, T terms each.

    A worst-case ceiling: the scan visits only the tuples that open with
    their smallest cyclic gap, about a k-th of them.
    """
    if k < 1 or k > t:
        return 0
    return math.comb(t - 1, k - 1) * t


class CorrelationResult(NamedTuple):
    order: int
    value: int
    witness_u: int
    witness_d: tuple[int, ...]
    classification: str  # "full-peak" | "half-peak" | "none"
    length: int  # analysis length N, or the period for the periodic measure
    periodic: bool = False

    def as_dict(self) -> dict:
        return {
            "k": self.order,
            "value": self.value,
            "U": self.witness_u,
            "D": list(self.witness_d),
            "classification": self.classification,
            "n": self.length,
            "periodic": self.periodic,
        }


def _classify(value: int, k: int, n: int, periodic: bool) -> str:
    top = n if periodic else n - k + 1
    if value == top:
        return "full-peak"
    if 2 * value >= n:
        return "half-peak"
    return "none"


def correlation_at(seq: BitSequence, u: int, shifts, n: int | None = None) -> int:
    """Signed correlation sum over the window: sum_{i<u} (-1)**(s[i+d_1]+...+s[i+d_k]).

    All accessed indices must fall inside the first n bits.
    """
    d = as_shifts(shifts)
    if n is None:
        n = seq.n
    elif n > seq.n:
        raise ValueError(f"n={n} exceeds sequence length {seq.n}")
    if u < 1:
        raise ValueError(f"window must be >= 1, got {u}")
    if d[-1] + u > n:
        raise ValueError(f"window {u} with shift {d[-1]} exceeds n={n}")
    fold = 0
    for dj in d:
        fold ^= seq.data >> dj
    return u - 2 * (fold & mask(u)).bit_count()


def _prefix_tables() -> list[list[tuple[int, int, int]]]:
    """tables[r][b] summarises the +-1 walk over the r low bits of b, bit 0 first.

    A 0 bit steps +1 and a 1 bit steps -1.  Each entry is (net, hi, lo):
    the walk's end value and its highest and lowest values over positions
    0..r, position 0 being the empty walk, value 0.  tables[8] serves
    whole bytes and tables[1..7] the last partial byte of a row.
    """
    tables = [[(0, 0, 0)]]
    for r in range(1, 9):
        row = []
        for step in (1, -1):  # bit r-1 clear: entries b < 2**(r-1); set: the rest
            for net, hi, lo in tables[-1]:
                net += step
                row.append((net, max(hi, net), min(lo, net)))
        tables.append(row)
    return tables


_TABLES = _prefix_tables()
_BYTE = _TABLES[8]


def _walk_extremes(row: int, length: int) -> tuple[int, int]:
    """Highest and lowest value of the +-1 walk of _prefix_tables over row's length bits.

    Bits of row at and above length must be clear.  The row is read a
    byte at a time: each byte's table entry, offset by the walk so far,
    updates the running extremes, which the empty walk seeds at 0.
    """
    full = length >> 3
    window = row.to_bytes(full + 1, "little")
    s = hi = lo = 0
    for net, b_hi, b_lo in map(_BYTE.__getitem__, window[:full]):
        if s + b_hi > hi:
            hi = s + b_hi
        if s + b_lo < lo:
            lo = s + b_lo
        s += net
    rem = length & 7
    if rem:
        _, b_hi, b_lo = _TABLES[rem][window[full]]
        hi = max(hi, s + b_hi)
        lo = min(lo, s + b_lo)
    return hi, lo


def _closest_extremes(row: int, length: int, hi: int, lo: int) -> tuple[int, int]:
    """Smallest (j - i, i) over walk positions i < j, one at hi and the other at lo.

    With hi and lo the walk's extremes, these are the windows whose sum
    reaches the range.  A closest pair is adjacent among the positions
    at either extreme, since one between them would pair closer.
    """
    steps = (1 if c == "0" else -1 for c in unpack(row, length))
    ends = [(j, p) for j, p in enumerate(accumulate(steps, initial=0)) if p == hi or p == lo]
    return min((j - i, i) for (i, a), (j, b) in zip(ends, ends[1:]) if a != b)


def _scan_gaps(data: int, n: int, k: int, firsts: list[int]):
    """Minimal (-value, U, D) key over the D whose first gap d_2 - d_1 is in firsts.

    D = d_1 + G for a gap tuple G = (0, a_1, ..., a_{k-1}); at k = 1,
    firsts is [0] and G = (0,).  The row of G has n - a_{k-1} bits, and
    a window's sum is the difference of the row's walk at d_1 + U and
    d_1, so the row's value is the walk's range and its witnesses the
    closest extremes, found only for a row reaching the best value.
    The stops are the module docstring's; all are strict, so a row that
    may tie the value with a smaller (U, D) still runs.  Pure function
    of the arguments, safe to ship to worker processes.
    """
    m = mask(n - k + 1)  # no row is longer
    shifted = [(data >> j) & m for j in range(n)]
    best = None
    best_value = 0
    for a1 in firsts:
        head = (0, a1)[:k - 1]  # k = 2 picks a_1 itself as the last gap
        for prefix, fold in fold_extensions(shifted, head, k - 1, a1 + 1, n - max(best_value, 1)):
            for last in range(prefix[-1] + 1, n) if k > 2 else (a1,):
                length = n - last
                if length < best_value:
                    break
                row = (fold ^ shifted[last]) & ((1 << length) - 1)
                ones = row.bit_count()
                if ones < best_value and length - ones < best_value:
                    continue
                t = length // 3  # the thirds bound of the module docstring
                o1 = (row & ((1 << t) - 1)).bit_count()
                o3 = (row >> (length - t)).bit_count()
                o2 = ones - o1 - o3
                z1, z2, z3 = t - o1, length - 2 * t - o2, t - o3
                if (z1 + z2 < best_value and z2 + z3 < best_value
                        and length - ones - o2 < best_value and o1 + o2 < best_value
                        and o2 + o3 < best_value and ones - z2 < best_value):
                    continue
                hi, lo = _walk_extremes(row, length)
                if hi - lo >= best_value:
                    u, d1 = _closest_extremes(row, length, hi, lo)
                    key = (lo - hi, u, tuple(d1 + a for a in prefix + (last,)))
                    if best is None or key < best:
                        best, best_value = key, hi - lo
    return best


def aperiodic_measure(
    seq: BitSequence,
    k: int,
    n: int | None = None,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> CorrelationResult:
    """Exact order-k correlation measure of the length-n prefix, with witness.

    Ties among maximizing witnesses go to the lexicographically smallest
    (U, D).  Raises BudgetExceededError before doing any work if the
    search space, priced at search_cost, is too large.  The witness is
    re-verified with correlation_at.
    """
    if n is None:
        n = seq.n
    elif not 1 <= n <= seq.n:
        raise ValueError(f"n must be in 1..{seq.n}, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    cost = search_cost(n, k)
    if cost > budget:
        raise BudgetExceededError(cost, budget)
    data = seq.data & mask(n)
    firsts = list(range(1, n - k + 2)) if k >= 2 else [0]
    # the fork's price: the rows hold C(n, k) bits in all, each folded from k shifts
    best = map_min(_scan_gaps, (data, n, k), firsts, jobs, k * math.comb(n, k))
    value, u, d = -best[0], best[1], best[2]
    if abs(correlation_at(seq, u, d, n)) != value:
        raise AssertionError(f"witness U={u}, D={d} failed re-verification")
    return CorrelationResult(k, value, u, d, _classify(value, k, n, False), n)


def periodic_measure(
    seq: BitSequence,
    k: int,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> CorrelationResult:
    """Exact periodic order-k measure over one full period, d_1 fixed at 0.

    The witness is re-verified by folding D over two copies of the block.
    """
    block, t = seq.period_block(), seq.period
    if not 1 <= k <= t:
        raise ValueError(f"k must be in 1..{t}, got {k}")
    cost = periodic_search_cost(t, k)
    if cost > budget:
        raise BudgetExceededError(cost, budget)
    if k in (1, t):
        # the only shift set is (0, ..., k-1), and the re-verifying fold below
        # gives its value: too little work to pay for the scan's table of T
        # shifted copies
        value, d = None, tuple(range(k))
    else:
        # the scan picks the last shift itself; heads fix d_1 = 0 and, from k = 3,
        # the smallest gap d_2 = g <= T/k as well, to give the fan-out its slices
        heads = [(0, g) for g in range(1, t // k + 1)] if k >= 3 else [(0,)]
        # C(T - kg + k - 2, k - 2) shift sets open with g: the k - 1 gaps after
        # the first are each at least g and sum to T - g
        work = t * sum(math.comb(t - k * g + k - 2, k - 2) for g in range(1, t // k + 1))
        best = map_min(_scan_periodic, (block, t, k), heads, jobs, work)
        value, d = -best[0], best[1]
    folded = abs(periodic_correlation(block, t, d))
    if value is None:
        value = folded
    elif folded != value:
        raise AssertionError(f"witness D={d} failed re-verification")
    return CorrelationResult(k, value, t, d, _classify(value, k, t, True), t, periodic=True)


def _scan_periodic(block: int, t: int, k: int, heads: list[tuple[int, ...]]):
    """Minimal (-|v|, D) key over the D that extend one of heads and open with their smallest gap.

    The cyclic gaps of D are d_{i+1} - d_i and T - d_k.  Rotating D so
    that another element sits at 0 keeps the full-period sum, and the
    lexicographically smallest rotation opens with the smallest gap, so
    the smallest maximizing D is such a set.  At k = 2 these are (0, d)
    with d <= T/2.  From k = 3 a head (0, g) fixes d_2 = g, and every
    later shift lies at least g above the one before, the last at most
    T - g.  Shift sets are visited in lexicographic order, so the first
    full peak (|v| = T, the largest value possible) is this slice's
    answer and the scan returns on it; the minimum over slices is then
    the same for any split of the heads.
    """
    m = mask(t)
    two = block | (block << t)  # two periods: shifts up to t-1 never wrap
    shifted = [(two >> j) & m for j in range(t)]
    best_value, best_d = -1, None
    for head in heads:
        g, stop = (head[1], t - head[1] + 1) if k > 2 else (1, t // 2 + 1)
        for prefix, fold in fold_extensions(shifted, head, k - 1, 2 * g, t - 2 * g + 1):
            # d_3 >= 2g comes from start; below k = 5 no later gap is in the prefix
            if k > 4 and any(b - a < g for a, b in zip(prefix[2:], prefix[3:])):
                continue
            for last in range(prefix[-1] + g, stop):
                value = abs(t - 2 * (fold ^ shifted[last]).bit_count())
                if value > best_value:  # a tie keeps the earlier, smaller D
                    best_value, best_d = value, prefix + (last,)
                    if value == t:
                        return -best_value, best_d
    return -best_value, best_d


def delta_under_flips(k: int, flips: int) -> int:
    """Certified ceiling on |C_k(S') - C_k(S)| when S' differs in <= flips bits.

    Each flipped position enters at most k summands of any fixed (U, D),
    and a summand changes by at most 2.
    """
    if k < 1 or flips < 0:
        raise ValueError("need k >= 1 and flips >= 0")
    return 2 * k * flips
