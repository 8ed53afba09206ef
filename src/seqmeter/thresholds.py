"""Sphere-packing counts: how many shift sets force a peak.

Each function compares a count of small subsets with the size of a
state space, in exact integers, walking the binomials C(n, j) each
from the one before.  A leaf module that imports nothing, so `bounds
table1` and the threshold checks load no search module.  These names
live only here; `seqmeter.<name>` loads this module alone.
"""


def _binomials(n: int, stop: int):
    """(j, C(n, j)) for j < stop, each from the one before by a small product and quotient."""
    c = 1
    for j in range(stop):
        yield j, c
        c = c * (n - j) // (j + 1)


def half_peak_threshold(n: int, l: int) -> tuple[int, int] | None:
    """Smallest t with C(floor(n/2), t) >= 2**l, and the order cap 2t.

    When it exists, a half peak C_k >= n/2 is guaranteed for some order
    1 < k <= 2t.  None when no t works: the binomials rise up to
    t = ceil(h/2), h = floor(n/2), and fall after it, and none reaches
    2**h, since they sum to it with C(h, 0) = 1.
    """
    if l < 0 or n < 2:
        raise ValueError("need l >= 0 and n >= 2")
    half = n // 2
    if l >= half:
        return None
    goal = 1 << l
    for t, c in _binomials(half, (half + 1) // 2 + 1):
        if t and c >= goal:
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
    total = 0
    for j, c in _binomials(t, t + 1):
        total += c
        if total >= goal:
            return 2 * j + 1 if j else 2
    return None  # unreachable: the whole sum is 2**t > 2**l
