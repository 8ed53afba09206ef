"""Sphere-packing counts: how many shift sets force a peak.

Each function compares a count of small subsets with the size of a
state space, in exact integers.  A leaf module importing only math, so
`bounds table1` and the threshold checks load no search module.  These
names live only here; `seqmeter.<name>` loads this module alone.
"""

import math


def half_peak_threshold(n: int, l: int) -> tuple[int, int] | None:
    """Smallest t with C(floor(n/2), t) >= 2**l, and the order cap 2t.

    When it exists, a half peak C_k >= n/2 is guaranteed for some order
    1 < k <= 2t.  None when no t works (the binomial peaks at n/4 and
    may never reach 2**l).
    """
    if l < 0 or n < 2:
        raise ValueError("need l >= 0 and n >= 2")
    goal = 1 << l
    half = n // 2
    for t in range(1, half + 1):
        if math.comb(half, t) >= goal:
            return t, 2 * t
    return None


def full_peak_threshold(t: int, l: int) -> int | None:
    """Smallest weight cap tt >= 2 with sum_{i <= (tt-1)//2} C(t, i) >= 2**l.

    Sphere-packing contrapositive: at this cap a dual vector of weight
    <= tt must exist, a fold of all zeros, so the sequence has a full
    periodic peak of some order k <= tt.  None when l >= t: at l = t the
    dual is {0}, so the count gives no cap (the full peak is then the
    fold of all t shifts, codes.find_periodic_peak), and for l > t the
    sum never reaches 2**l.
    """
    if not 0 <= l:
        raise ValueError("dimension must be non-negative")
    if l >= t:
        return None
    goal = 1 << l
    total = 1  # i = 0 term
    if total >= goal:
        return 2
    j = 0
    while True:
        j += 1
        total += math.comb(t, j)
        if total >= goal:
            return 2 * j + 1


def hamming_condition(p: int, t: int, dim: int, w: int) -> bool:
    """Sphere-packing test: sum_{i <= (w-1)//2} C(t,i)(p-1)^i > p^(t-dim), exact ints."""
    if w < 1:
        raise ValueError("weight must be >= 1")
    if not 0 <= dim <= t:
        raise ValueError(f"dimension must be in 0..{t}")
    total = sum(math.comb(t, i) * (p - 1) ** i for i in range((w - 1) // 2 + 1))
    return total > p ** (t - dim)
