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
that fold.  The aperiodic scan needs every window U of the row, and
`_row_best` walks them a byte at a time through precomputed prefix
tables, so a row costs ~U/8 table steps.

Four stops skip work without changing the answer.  The aperiodic scan
ends a last-shift loop once the longest window left is shorter than the
best value, because windows only shrink as the last shift grows, and
for the same reason ends a head's prefixes below N - best value.  It
skips a row without walking its windows when two popcounts bound them
all below the best value: a +-1 walk has |v_U| <= U and |v_U| <= |v_j|
+ |U - j| for every j, so with m = u_max and its midpoint h = m // 2 no
window up to h exceeds (h + |v_h|)/2 and none from h on exceeds (|v_h|
+ |v_m| + m - h)/2; both are at most (m + |v_m|)/2, the end point's
bound.  The periodic scan visits only the shift sets that open with
their smallest cyclic gap, which hold the lexicographically smallest
rotation of every set (`_scan_periodic`), and a slice returns at its
first full peak, which no later shift set of the slice can beat.
"""

import math
from typing import NamedTuple

from .bitseq import BitSequence, as_shifts, fold_extensions, mask
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


def _prefix_tables() -> list[list[tuple[int, int, int, int, int]]]:
    """tables[r][b] summarises the +-1 walk over the r low bits of b, bit 0 first.

    A 0 bit steps +1 and a 1 bit steps -1.  Each entry is (net, hi, hi_at,
    lo, lo_at): the walk's end value, its highest and lowest values over
    positions 0..r (position 0 being the empty walk, value 0), and the
    first position reaching each.  tables[8] serves whole bytes and
    tables[1..7] the last partial byte of a window.
    """
    tables = [[(0, 0, 0, 0, 0)]]
    for r in range(1, 9):
        row = []
        for step in (1, -1):  # bit r-1 clear: entries b < 2**(r-1); set: the rest
            for net, hi, hi_at, lo, lo_at in tables[-1]:
                net += step
                if net > hi:
                    hi, hi_at = net, r
                if net < lo:
                    lo, lo_at = net, r
                row.append((net, hi, hi_at, lo, lo_at))
        tables.append(row)
    return tables


_TABLES = _prefix_tables()
_BYTE = _TABLES[8]


def _row_best(fold: int, u_max: int) -> tuple[int, int]:
    """Largest |v_U| over 1 <= U <= u_max and the smallest U reaching it.

    v_U = U - 2 * popcount(fold & mask(U)) is the walk of _prefix_tables
    after U bits.  The window is read a byte at a time: each byte's table
    entry, offset by the walk so far, updates the running highest and
    lowest values, kept at their first position by strict comparisons.
    The empty walk seeds both at 0; since v_1 = +-1 the larger of hi and
    -lo is at least 1 and always a real window, and when they are equal
    the earlier of the two positions is the smallest U.
    """
    full = u_max >> 3
    window = (fold & ((1 << u_max) - 1)).to_bytes(full + 1, "little")
    s = hi = hi_at = lo = lo_at = base = 0
    for net, b_hi, b_hi_at, b_lo, b_lo_at in map(_BYTE.__getitem__, window[:full]):
        if s + b_hi > hi:
            hi, hi_at = s + b_hi, base + b_hi_at
        if s + b_lo < lo:
            lo, lo_at = s + b_lo, base + b_lo_at
        s += net
        base += 8
    rem = u_max & 7
    if rem:
        _, b_hi, b_hi_at, b_lo, b_lo_at = _TABLES[rem][window[full]]
        if s + b_hi > hi:
            hi, hi_at = s + b_hi, base + b_hi_at
        if s + b_lo < lo:
            lo, lo_at = s + b_lo, base + b_lo_at
    if hi > -lo:
        return hi, hi_at
    if hi < -lo:
        return -lo, lo_at
    return hi, min(hi_at, lo_at)


def _scan_tails(data: int, n: int, k: int, heads: list[tuple[int, ...]]):
    """Minimal (-value, U, D) key over every D that extends one of heads to k shifts.

    For each prefix of k-1 shifts the last shift runs upward, so the row's
    longest window u_max = n - last shrinks; the loop stops at the first
    u_max below the best value so far, since no later row can reach it.
    For the same reason each head's prefixes end below n - best value.
    A row is skipped when the midpoint bound of the module docstring is
    below twice the best value; the end point's bound, which it implies,
    is tried first because it needs one popcount less.  All tests are
    strict, so a row that may tie the value with a smaller U still runs.
    Pure function of the arguments, safe to ship to worker processes.
    """
    m = mask(n - k + 1)  # no window is longer
    shifted = [(data >> j) & m for j in range(n)]
    best = None
    best_value = 0
    for head in heads:
        start = head[-1] + 1 if head else 0
        for prefix, fold in fold_extensions(shifted, head, k - 1, start, n - max(best_value, 1)):
            for last in range(prefix[-1] + 1 if prefix else 0, n):
                u_max = n - last
                if u_max < best_value:
                    break
                row = fold ^ shifted[last]
                v_m = abs(u_max - 2 * (row & ((1 << u_max) - 1)).bit_count())
                if u_max + v_m < 2 * best_value:
                    continue
                h = u_max >> 1
                v_h = abs(h - 2 * (row & ((1 << h) - 1)).bit_count())
                if h + v_h < 2 * best_value and v_h + v_m + u_max - h < 2 * best_value:
                    continue
                value, u = _row_best(row, u_max)
                if value >= best_value:
                    key = (-value, u, prefix + (last,))
                    if best is None or key < best:
                        best, best_value = key, value
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
    search space is too large.
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
    heads = [(d1,) for d1 in range(n - k + 1)] if k >= 2 else [()]
    best = map_min(_scan_tails, (data, n, k), heads, jobs, cost)
    value, u, d = -best[0], best[1], best[2]
    return CorrelationResult(k, value, u, d, _classify(value, k, n, False), n)


def periodic_measure(
    seq: BitSequence,
    k: int,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> CorrelationResult:
    """Exact periodic order-k measure over one full period, d_1 fixed at 0."""
    if seq.period is None:
        raise ValueError("periodic measure needs a declared period")
    t = seq.period
    if not 1 <= k <= t:
        raise ValueError(f"k must be in 1..{t}, got {k}")
    cost = periodic_search_cost(t, k)
    if cost > budget:
        raise BudgetExceededError(cost, budget)
    block = seq.data & mask(t)
    if k in (1, t):
        # the only shift set is (0, ..., k-1): one sum, too little work to pay
        # for the scan's table of T shifted copies
        d = tuple(range(k))
        two, fold = block | (block << t), 0
        for dj in d:
            fold ^= two >> dj
        value = abs(t - 2 * (fold & mask(t)).bit_count())
    else:
        # the scan picks the last shift itself; heads fix d_1 = 0 and, from k = 3,
        # the smallest gap d_2 = g <= T/k as well, to give the fan-out its slices
        heads = [(0, g) for g in range(1, t // k + 1)] if k >= 3 else [(0,)]
        # C(T - kg + k - 2, k - 2) shift sets open with g: the k - 1 gaps after
        # the first are each at least g and sum to T - g
        work = t * sum(math.comb(t - k * g + k - 2, k - 2) for g in range(1, t // k + 1))
        best = map_min(_scan_periodic, (block, t, k), heads, jobs, work)
        value, d = -best[0], best[1]
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
            if any(b - a < g for a, b in zip(prefix[2:], prefix[3:])):
                continue
            for last in range(prefix[-1] + g, stop):
                value = abs(t - 2 * (fold ^ shifted[last]).bit_count())
                if value > best_value:  # a tie keeps the earlier, smaller D
                    best_value, best_d = value, prefix + (last,)
                    if value == t:
                        return -best_value, best_d
    return -best_value, best_d


def periodic_autocorrelation(seq: BitSequence, shift: int) -> int:
    """Order-2 periodic sum at one shift, computed bit by bit as a cross-check."""
    if seq.period is None:
        raise ValueError("needs a declared period")
    t = seq.period
    acc = 0
    for i in range(t):
        acc += 1 if seq.bit(i) == seq.bit((i + shift) % t) else -1
    return acc


def delta_under_flips(k: int, flips: int) -> int:
    """Certified ceiling on |C_k(S') - C_k(S)| when S' differs in <= flips bits.

    Each flipped position enters at most k summands of any fixed (U, D),
    and a summand changes by at most 2.
    """
    if k < 1 or flips < 0:
        raise ValueError("need k >= 1 and flips >= 0")
    return 2 * k * flips
