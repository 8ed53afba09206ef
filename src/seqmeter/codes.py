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

C is cyclic, so its dual is cyclic too: rotating a dual support gives
another dual support of the same weight, and every minimum-weight one
can be rotated to contain coordinate 0.  A support holding 0 sorts
before every support that does not, so the lexicographically smallest
minimum-weight support contains 0, and find_periodic_peak searches only
those.  Weight 2 is one scan, weight 3 one dictionary pass, and from 4
up a meet-in-the-middle split hashes the half that holds 0.  The
anchor is exact only for cyclic columns: low_weight_kernel_support
keeps the full search for column sets without that symmetry, such as
the sliding windows of the aperiodic half-peak witness.
"""

import math
from dataclasses import dataclass
from itertools import combinations

from .bitseq import BitSequence, as_shifts, mask
from .correlation import DEFAULT_BUDGET, BudgetExceededError
from .parallel import map_min

HASH_GATE = 1 << 28  # refuse meet-in-the-middle tables larger than this


@dataclass(frozen=True)
class CyclicSpan:
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


@dataclass(frozen=True)
class PeakCertificate:
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
    """
    return [
        sum(((row >> j) & 1) << r for r, row in enumerate(span.basis))
        for j in range(span.period)
    ]


def _mitm_level(cols: list[int], b: int, a: int, lower_firsts, upper_firsts):
    """Min support of weight b+a with lower half first in lower_firsts, upper in upper_firsts.

    The lower half of a sorted support is its first b elements; hashing
    those and probing with the upper halves decomposes every support
    exactly once because lower[-1] < upper[0].
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
    return best


def low_weight_kernel_support(
    cols: list[int],
    w_min: int = 1,
    w_max: int | None = None,
    hash_gate: int = HASH_GATE,
) -> tuple[int, ...] | None:
    """Smallest support D in [w_min, w_max] with XOR of cols[j] over D zero.

    Complete search over arbitrary columns: returns None only when no
    such support exists.  Ties at the winning weight go to the
    lexicographically smallest support.  Raises BudgetExceededError
    before building a meet-in-the-middle table of more than hash_gate
    entries.
    """
    m = len(cols)
    if w_max is None:
        w_max = m
    for w in range(w_min, min(w_max, m) + 1):
        if w <= 3:
            for d in combinations(range(m), w):
                acc = 0
                for j in d:
                    acc ^= cols[j]
                if acc == 0:
                    return d  # lex order of combinations makes this the min
            continue
        b = w // 2
        entries = math.comb(m, b)
        if entries > hash_gate:
            raise BudgetExceededError(entries, hash_gate, "hash-table entries")
        best = _mitm_level(cols, b, w - b, range(m), range(m))
        if best is not None:
            return best
    return None


def _anchored_support(
    cols: list[int], w_max: int, budget: int, jobs: int
) -> tuple[int, ...] | None:
    """Lexicographically smallest min-weight support in [2, w_max] that contains 0.

    For cyclic columns this equals low_weight_kernel_support(cols, 2, w_max)
    (see the module docstring).  Each level w >= 4 hashes the C(m-1,
    ceil(w/2)-1) lower halves that start at 0 and probes the C(m-1,
    floor(w/2)) upper halves; that sum is checked against budget before
    the level runs.  jobs > 1 splits the probes by their first element.
    """
    m = len(cols)
    w_max = min(w_max, m)
    if w_max < 2:
        return None
    c0 = cols[0]
    for j in range(1, m):
        if cols[j] == c0:
            return (0, j)
    if w_max < 3:
        return None
    index: dict[int, list[int]] = {}
    for j in range(1, m):
        index.setdefault(cols[j], []).append(j)
    for j in range(1, m):
        for k in index.get(c0 ^ cols[j], ()):
            if k > j:
                return (0, j, k)
    for w in range(4, w_max + 1):
        b = w - w // 2
        a = w // 2
        cost = math.comb(m - 1, b - 1) + math.comb(m - 1, a)
        if cost > budget:
            raise BudgetExceededError(cost, budget, "hash-table entries and probes")
        best = map_min(_mitm_level, (cols, b, a, [0]), list(range(1, m)), jobs)
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
    the dual of a cyclic span is cyclic; it would not be for the window
    columns of an aperiodic prefix.  Raises BudgetExceededError before a
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
    support = _anchored_support(dual_syndromes(span), t_max, budget, jobs)
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
    order 1 < k <= tt.  None when l > t (the sum can never reach 2**l;
    no dual guarantee at any weight).
    """
    if not 0 <= l:
        raise ValueError("dimension must be non-negative")
    if l > t:
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
