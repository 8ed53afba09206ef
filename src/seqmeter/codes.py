"""Cyclic-shift spans over GF(2) and low-weight dual vectors.

A T-periodic sequence's period block and its T cyclic rotations span a
linear code C of dimension equal to the sequence's linear complexity.
A weight-k vector in the dual code is exactly a shift set D for which
sum_j s[n + d_j] = 0 for every n, i.e. a shift set whose periodic
order-k correlation hits the full peak T.

Rows and codewords are packed ints, bit j = coordinate j.  The search
for a minimum-weight dual vector works on the coordinate syndromes
against the span basis: a support D is dual iff the XOR of its columns'
syndromes vanishes.

low_weight_kernel_support is the one syndrome search, level by level in
the weight: weights 2 and 3 scan against a position index of the
columns, and from 4 up a meet-in-the-middle split hashes the lower
halves of the supports and probes with the upper halves.  In anchored
mode it looks only at supports that contain coordinate 0.  A support
holding 0 sorts before every support that does not, so the anchor is
exact whenever every minimum-weight support can be moved to one holding
0 without changing its weight.  Two kinds of columns allow that:

* cyclic columns: C is cyclic, so its dual is cyclic too, and a rotation
  takes any dual support to one holding 0 (find_periodic_peak);
* the sliding windows col_j = s[j .. j+w-1] of a prefix whose shortest
  recurrence runs backwards, i.e. its connection polynomial has degree
  exactly L (c_0 = 1), with L <= w.  If the windows over D fold to zero
  and min D > 0, so do those over D - 1: bits 1..w-1 of the new fold are
  bits 0..w-2 of the old, and bit 0 is a combination of the old bits
  0..L-1 (bounds.find_half_peak_witness).

Other columns, such as the windows of a prefix whose recurrence cannot
be reversed, keep the full search.
"""

import math
from bisect import bisect_right
from itertools import combinations
from typing import NamedTuple

from .bitseq import BitSequence, as_shifts, mask, pack, unpack
from .budget import DEFAULT_BUDGET, BudgetExceededError
from .parallel import map_min


class CyclicSpan(NamedTuple):
    """Row space of the T cyclic rotations of one period block."""

    period: int
    dimension: int
    basis: tuple[int, ...]  # reduced rows, lowest set bit of each is its pivot
    pivots: tuple[int, ...]
    block: int  # the period itself, for certificate verification

    def contains(self, vector: int) -> bool:
        v = vector
        for row, p in zip(self.basis, self.pivots):
            if (v >> p) & 1:
                v ^= row
        return v == 0


class PeakCertificate(NamedTuple):
    """A verified full peak in the periodic correlation measure."""

    order: int
    shifts: tuple[int, ...]
    kind: str  # "periodic-full"
    verified_value: int
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "k": self.order,
            "shifts": list(self.shifts),
            "kind": self.kind,
            "theta": self.verified_value,
            "verified": True,
            "note": self.note,
        }


def _rotations(block: int, t: int):
    m = mask(t)
    v = block & m
    for _ in range(t):
        yield v
        v = (v >> 1) | ((v & 1) << (t - 1))


def build_span(seq: BitSequence) -> CyclicSpan:
    """Gaussian elimination over the T cyclic rotations of the period block."""
    if seq.period is None:
        raise ValueError("span construction needs a declared period")
    t = seq.period
    basis: list[int] = []
    pivots: list[int] = []
    for row in _rotations(seq.data, t):
        for b, p in zip(basis, pivots):
            if (row >> p) & 1:
                row ^= b
        if row:
            p = (row & -row).bit_length() - 1
            # keep rows reduced against each other so pivots stay unique
            basis = [b ^ row if (b >> p) & 1 else b for b in basis]
            basis.append(row)
            pivots.append(p)
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return CyclicSpan(
        period=t,
        dimension=len(basis),
        basis=tuple(basis[i] for i in order),
        pivots=tuple(pivots[i] for i in order),
        block=seq.data & mask(t),
    )


def dual_syndromes(span: CyclicSpan) -> list[int]:
    """Per-coordinate syndromes: bit r of syndrome j is basis[r]'s bit j.

    A support D indexes a dual vector iff XOR of its syndromes is zero.
    Syndrome j is column j of the unpacked basis rows.
    """
    rows = [unpack(row, span.period) for row in span.basis]
    if not rows:
        return [0] * span.period
    return [pack("".join(col)) for col in zip(*rows)]


def _scan_level(cols: list[int], w: int, firsts, index: dict[int, list[int]]):
    """Min support of weight w with first element in firsts, by scanning its first w-1.

    index maps each column value to its ascending positions.  The first
    w-1 elements run in lexicographic order and the last is the smallest
    position after them holding their XOR, so the first hit is the
    minimum.  It costs up to C(m-1, w-2) lookups per first element,
    which is below a meet-in-the-middle level only for w <= 3.
    """
    m = len(cols)
    for first in firsts:
        for rest in combinations(range(first + 1, m), w - 2) if w > 2 else ((),):
            acc = cols[first]
            for j in rest:
                acc ^= cols[j]
            last = index.get(acc, ())
            k = bisect_right(last, rest[-1] if rest else first)
            if k < len(last):
                return (first, *rest, last[k])
    return None


def _mitm_level(cols: list[int], b: int, a: int, lower_firsts, upper_firsts):
    """Min support of weight b+a with lower half first in lower_firsts, upper in upper_firsts.

    The lower half of a sorted support is its first b elements; hashing
    those and probing with the upper halves decomposes every support
    exactly once because lower[-1] < upper[0].  Each bucket lists its
    lower halves in lexicographic order, so a probe's first fitting
    entry is its smallest candidate.
    """
    m = len(cols)
    table: dict[int, list[tuple[int, ...]]] = {}
    for first in lower_firsts:
        for rest in combinations(range(first + 1, m), b - 1):
            acc = cols[first]
            for j in rest:
                acc ^= cols[j]
            table.setdefault(acc, []).append((first, *rest))
    best: tuple[int, ...] | None = None
    for first in upper_firsts:
        for rest in combinations(range(first + 1, m), a - 1):
            acc = cols[first]
            for j in rest:
                acc ^= cols[j]
            for lower in table.get(acc, ()):
                if lower[-1] < first:
                    cand = (*lower, first, *rest)
                    if best is None or cand < best:
                        best = cand
                    break
    return best


def low_weight_kernel_support(
    cols: list[int],
    w_min: int = 1,
    w_max: int | None = None,
    budget: int = DEFAULT_BUDGET,
    anchored: bool = False,
    jobs: int = 1,
) -> tuple[int, ...] | None:
    """Smallest support D in [w_min, w_max] with XOR of cols[j] over D zero.

    w_min >= 1.  Ties at the winning weight go to the lexicographically
    smallest support.  The full search (anchored=False) is complete over
    arbitrary columns: it returns None only when no such support exists.
    anchored=True searches only supports that contain 0, which gives the
    same answer for the columns named in the module docstring; callers
    set it from the structure of their columns.

    Weights 2 and 3 scan their first w-1 elements and look the last up
    in a position index of the columns; they cost at most C(m, 2)
    lookups and run in this process.  From w = 4 a meet-in-the-middle
    level hashes a lower half of b elements and probes with the upper
    w - b; anchored, the lower half starts at 0 and b is ceil(w/2),
    otherwise b is floor(w/2).  Each such level checks its hash entries
    plus probes against budget before it allocates, raising
    BudgetExceededError when over, and jobs > 1 splits its probes by
    their first element.
    """
    m = len(cols)
    w_max = m if w_max is None else min(w_max, m)
    firsts = [0] if anchored else range(m)
    index: dict[int, list[int]] = {}
    for j, c in enumerate(cols):
        index.setdefault(c, []).append(j)
    for w in range(w_min, w_max + 1):
        if w == 1:
            best = next(((j,) for j in firsts if cols[j] == 0), None)
        elif w <= 3:
            best = _scan_level(cols, w, firsts, index)
        else:
            b = (w + 1) // 2 if anchored else w // 2
            a = w - b
            entries = math.comb(m - 1, b - 1) if anchored else math.comb(m, b)
            cost = entries + math.comb(m - 1, a)
            if cost > budget:
                raise BudgetExceededError(cost, budget, "hash-table entries and probes")
            best = map_min(_mitm_level, (cols, b, a, firsts), list(range(1, m)), jobs)
        if best is not None:
            return best
    return None


def find_periodic_peak(
    source: CyclicSpan | BitSequence,
    t_max: int,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> PeakCertificate | None:
    """Find the minimum-weight shift set (weight <= t_max) with a full periodic peak.

    Complete up to t_max, so None means no dual vector of weight <= t_max
    exists.  Ties go to the lexicographically smallest shift set.  The
    search looks only at shift sets that contain 0, which is exact because
    the dual of a cyclic span is cyclic.  The window columns of a prefix
    allow the same anchor only when its recurrence runs backwards (see
    the module docstring).  Raises BudgetExceededError before a
    meet-in-the-middle level whose hash entries plus probes exceed budget.
    Every returned certificate is re-verified exhaustively: the folded
    rotations must sum to zero at all T positions.
    """
    span = source if isinstance(source, CyclicSpan) else build_span(source)
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    if span.dimension == 0:
        # degenerate: every vector is dual; report the smallest honest witness
        return PeakCertificate(1, (0,), "periodic-full", span.period,
                               note="degenerate zero sequence, weight-1 dual")
    support = low_weight_kernel_support(dual_syndromes(span), 2, t_max, budget,
                                        anchored=True, jobs=jobs)
    if support is None:
        return None
    verified = _verify_full_peak(span.block, span.period, support)
    if not verified:
        raise AssertionError(f"unverified dual support {support}")  # pragma: no cover
    return PeakCertificate(len(support), as_shifts(support), "periodic-full", span.period)


def _verify_full_peak(block: int, t: int, support: tuple[int, ...]) -> bool:
    data2 = (block & mask(t)) | ((block & mask(t)) << t)
    fold = 0
    for d in support:
        fold ^= data2 >> d
    return fold & mask(t) == 0


def full_peak_threshold(t: int, l: int) -> int | None:
    """Smallest weight cap tt >= 2 with sum_{i <= (tt-1)//2} C(t, i) >= 2**l.

    Sphere-packing contrapositive: at this cap a dual vector of weight
    <= tt must exist, so the sequence has a full periodic peak of some
    order 1 < k <= tt.  None when l >= t: at l = t the span is the whole
    space, its dual is {0} and no full peak exists, and for l > t the sum
    never reaches 2**l.
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


def dual_basis(span: CyclicSpan) -> list[int]:
    """Basis of the dual code, via the standard-form construction on syndromes."""
    cols = dual_syndromes(span)
    free = [j for j in range(span.period) if j not in span.pivots]
    out = []
    for j in free:
        v = 1 << j
        syn = cols[j]
        for r, p in enumerate(span.pivots):
            if (syn >> r) & 1:
                v |= 1 << p
        out.append(v)
    return out


def minimum_dual_weight_bruteforce(span: CyclicSpan) -> int | None:
    """Oracle: enumerate the entire dual code. Exponential, test sizes only."""
    base = dual_basis(span)
    if len(base) > 24:
        raise ValueError("dual too large to enumerate")
    best = None
    for m in range(1, 1 << len(base)):
        v = 0
        mm = m
        while mm:
            v ^= base[(mm & -mm).bit_length() - 1]
            mm &= mm - 1
        w = v.bit_count()
        if best is None or w < best:
            best = w
    return best
