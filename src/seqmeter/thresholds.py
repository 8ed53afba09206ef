"""Sphere-packing counts: how many shift sets force a peak, and Table 1.

Each function compares a count of small subsets with the size of a
state space, in exact integers, walking the binomials C(n, j) each
from the one before.  Table 1 (`table1`, one row per family and
degree) tabulates `full_peak_threshold` against each family's claimed
cap, so it lives here too.  A leaf module that imports no other
seqmeter module, so `bounds table1` and the threshold checks load no
search module.  These names live only here; `seqmeter.<name>` loads
this module alone.
"""

from typing import NamedTuple


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


# Table of sequence families: validity predicate, dimension formula, and the
# claimed order cap for a full periodic peak.  Claims for three families
# disagree with the exact threshold; see README.  large-kasami (ell >= 6) claims
# 9 where the exact cap is 7, so the claim holds but is looser than exact.
# Two claims sit below the exact cap at every degree, so exact counting does
# not support them: 5-term-trace claims 11 (exact 13 from ell = 11 on), and
# welch-gong claims the non-integer (2^(ell/3)+1)/ell.
class FamilyRow(NamedTuple):
    key: str
    valid: object  # ell -> bool
    dimension: object  # ell -> int
    claimed: object  # ell -> int | float


TABLE_FAMILIES: tuple[FamilyRow, ...] = (
    FamilyRow("m-sequence", lambda e: e >= 2, lambda e: e, lambda e: 3),
    FamilyRow("small-kasami", lambda e: e >= 4 and e % 2 == 0, lambda e: 3 * e // 2, lambda e: 5),
    FamilyRow("gold", lambda e: e >= 3 and e % 4 != 0, lambda e: 2 * e, lambda e: 7),
    FamilyRow("large-kasami", lambda e: e >= 4 and e % 2 == 0, lambda e: 5 * e // 2, lambda e: 9),
    FamilyRow("3-term-trace", lambda e: e >= 5 and e % 2 == 1, lambda e: 3 * e, lambda e: 9),
    FamilyRow("5-term-trace", lambda e: e >= 5 and e % 2 == 1, lambda e: 5 * e, lambda e: 11),
    FamilyRow("welch-gong", lambda e: e >= 6 and e % 3 == 0, lambda e: (1 << (e // 3)) + 1,
              lambda e: ((1 << (e // 3)) + 1) / e),
)


def table1_row(family: str, ell: int) -> dict:
    """One family/degree cell: period, dimension, exact threshold, claimed cap."""
    row = next((f for f in TABLE_FAMILIES if f.key == family), None)
    if row is None:
        raise ValueError(f"unknown family {family!r}")
    if not row.valid(ell):
        raise ValueError(f"ell={ell} is not valid for family {family!r}")
    t = (1 << ell) - 1
    l = row.dimension(ell)
    threshold = full_peak_threshold(t, l)
    claimed = row.claimed(ell)
    return {
        "family": family,
        "ell": ell,
        "period": t,
        "dimension": l,
        "threshold": threshold,
        "claimed": claimed,
        "matches": threshold == claimed,
    }


def table1(ell_max: int = 20) -> list[dict]:
    out = []
    for row in TABLE_FAMILIES:
        for ell in range(2, ell_max + 1):
            if row.valid(ell):
                out.append(table1_row(row.key, ell))
    return out
