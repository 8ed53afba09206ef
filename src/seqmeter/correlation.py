"""Correlation measures of order k, exact and exhaustive.

The order-k measure of a length-N prefix is the maximum over window
lengths U >= 1 and strictly increasing shift tuples D = (d_1 < ... < d_k)
with d_k <= N - U of

    | sum_{n < U} (-1)**(s[n+d_1] + ... + s[n+d_k]) |.

The periodic variant sums over one full period with all shifts inside the
period; by shift invariance of the full-period sum the search fixes
d_1 = 0.

Search is exhaustive and exponential in k, so every entry point is gated
by an explicit summand budget.  The kernel XORs shifted copies of the
packed sequence and popcounts words, so the per-(U, D) cost is ~N/64 word
operations plus one table update per window growth.
"""

import math
from dataclasses import dataclass

from .bitseq import BitSequence, ShiftSet, as_shifts, mask
from .parallel import map_min

DEFAULT_BUDGET = 10**9


class BudgetExceededError(RuntimeError):
    """Search-space size above the configured budget, raised before the search runs."""

    def __init__(self, cost: int, budget: int, unit: str = "summand evaluations"):
        self.cost = cost
        self.budget = budget
        super().__init__(f"search needs ~{cost} {unit}, budget is {budget}")


def search_cost(n: int, k: int) -> int:
    """Summand-evaluation count for the exhaustive order-k search at length n."""
    if k < 1 or k > n:
        return 0
    return sum(math.comb(n - u, k - 1) * (n - u + 1) for u in range(1, n - k + 2))


def periodic_search_cost(t: int, k: int) -> int:
    """Summand count for the periodic search: C(T-1, k-1) shift tuples, T terms each."""
    if k < 1 or k > t:
        return 0
    return math.comb(t - 1, k - 1) * t


@dataclass(frozen=True)
class CorrelationResult:
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


def _scan_tails(data: int, n: int, k: int, tail_range: int, heads: list[tuple[int, ...]]):
    """Best (value, U, D) over all D = head + (k-len(head)) more shifts below tail_range.

    Returns the minimal (-value, U, D) key.  heads are tuples of already
    fixed leading shifts (possibly empty).  Pure function of the arguments,
    safe to ship to worker processes.
    """
    from itertools import combinations

    best = None
    for head in heads:
        fold_head = 0
        for dj in head:
            fold_head ^= data >> dj
        lo = head[-1] + 1 if head else 0
        need = k - len(head)
        if need == 0:
            combos = [()]
        else:
            combos = combinations(range(lo, tail_range), need)
        for tail in combos:
            d = head + tail
            u_max = n - d[-1] if d else 0
            if u_max < 1:
                continue
            if best is not None and u_max < -best[0]:
                continue  # cannot beat the current best value
            fold = fold_head
            for dj in tail:
                fold ^= data >> dj
            ones = 0
            row_best = None
            for u in range(1, u_max + 1):
                ones += (fold >> (u - 1)) & 1
                v = u - 2 * ones
                key = (-abs(v), u, d)
                if row_best is None or key < row_best:
                    row_best = key
            if best is None or row_best < best:
                best = row_best
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
    heads = [(d1,) for d1 in range(0, n - k + 1)]
    best = map_min(_scan_tails, (data, n, k, n), heads, jobs)
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
    data2 = block | (block << t)  # two periods: shifts up to t-1 never wrap
    heads = [(0, d2) for d2 in range(1, t - k + 2)] if k >= 2 else [(0,)]
    best = map_min(_scan_periodic, (data2, t, k), heads, jobs)
    value, d = -best[0], best[1]
    return CorrelationResult(k, value, t, d, _classify(value, k, t, True), t, periodic=True)


def _scan_periodic(data2: int, t: int, k: int, heads: list[tuple[int, ...]]):
    from itertools import combinations

    best = None
    m = mask(t)
    for head in heads:
        fold_head = 0
        for dj in head:
            fold_head ^= data2 >> dj
        need = k - len(head)
        lo = head[-1] + 1
        combos = [()] if need == 0 else combinations(range(lo, t), need)
        for tail in combos:
            fold = fold_head
            for dj in tail:
                fold ^= data2 >> dj
            v = t - 2 * (fold & m).bit_count()
            key = (-abs(v), head + tail)
            if best is None or key < best:
                best = key
    return best


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
