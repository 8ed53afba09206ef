"""Cyclic-shift spans over GF(2) and low-weight constant folds.

A T-periodic sequence's period block and its T cyclic rotations span a
linear code C of dimension equal to the sequence's linear complexity.
A shift set D has a full periodic peak T exactly when its fold
sum_{d in D} s[n + d] is constant in n: all zeros, a dual vector of C,
or all ones.  That is when g divides sum_{d in D} x^d (_peak_recurrence).

Rows and codewords are packed ints, bit j = coordinate j.  The search
for a minimum-weight support works on the columns x^j mod g: D
qualifies iff the XOR of its columns vanishes.

Both steps before the search use the span's dimension L, not its period
T.  build_span eliminates rotations only until the first one that
depends on the earlier ones, at most L+1 of them.  The span is the set
of T-periodic sequences that satisfy one recurrence of length L, so its
first L coordinates are an information set: the pivots are 0..L-1, and
the syndrome of coordinate j against the basis is x^j mod f (_powers).

low_weight_kernel_support is the one syndrome search, one level per
weight: it hashes the supports' tails and walks their heads in
lexicographic order, so the first head that meets a tail gives the
level's minimum.  Both walks come from bitseq.fold_extensions, with the
last element looped over directly, so each head or tail costs one XOR
and one dict probe.  One-element tails are not walked: the map
dict(zip(cols, range(m))), built in C, sends each column to its last
index.  A head ending at last fits iff its fold's entry is above last,
and its tail is then cols.index(fold, last + 1), the first later index,
which is the lexicographically least fit even where columns repeat.
_tails hashes only tails of two or more elements.

The search takes a polynomial g with g(0) = 1 and a length m, and
builds the columns x^j mod g, j < m, itself.  It looks only at supports
that contain coordinate 0, and that is exact by one rule: g(0) = 1
makes x invertible modulo g, so if min D > 0 then D - min D is dual
too, of the same weight and with the same gaps.  A support holding 0
sorts before every support that does not, so the anchored minimum is
the full one.  Both forced peaks are such supports:

* a full periodic peak of a cyclic span, with g from _peak_recurrence
  and m = T (find_periodic_peak);
* a window collision of a prefix whose recurrence is x^e g, with
  m = floor(n/2) - e (bounds.find_half_peak_witness).

A search with no more multiples q g (deg q < m - deg g) than a level
costs walks them all (_multiples).  When g's zeros are those of a Gold
or small-Kasami span, each level from weight 4 walks only its heads and
solves for the last two elements from field tables (seqmeter.zeros),
which is loaded only then.  Every other zero pattern, and every level
below 4, keeps the syndrome search.
"""

import math
from bisect import bisect_right
from typing import NamedTuple

from .bitseq import BitSequence, as_shifts, fold_extensions, periodic_correlation
from .budget import DEFAULT_BUDGET, BudgetExceededError
from .parallel import map_min

# Fan-out work of one hash-table entry, probe or zeros-level head, in the
# summands of `parallel.FORK_BREAK_EVEN`.  Measured like that constant: an
# anchored weight-6 level over 200 random 40-bit columns (price 1.3e6)
# took 170 ms alone and 147 ms on 2 workers, while levels priced up to
# 6.4e5 lost to the fork and to pickling their tail tables (weight 5 over
# 800 columns: 469 -> 518 ms).  An entry costs 130-900 ns, a summand 0.7-13.
_ENTRY_WORK = 10


class CyclicSpan(NamedTuple):
    """Row space of the T cyclic rotations of one period block."""

    period: int
    dimension: int
    basis: tuple[int, ...]  # reduced rows, lowest set bit of each is its pivot
    pivots: tuple[int, ...]
    block: int  # the period itself, for certificate verification


class PeakCertificate(NamedTuple):
    """A verified full peak: the fold of shifts is constant, so |Theta| = period."""

    shifts: tuple[int, ...]
    period: int

    @property
    def order(self) -> int:
        return len(self.shifts)

    def as_dict(self) -> dict:
        return {
            "k": self.order,
            "shifts": list(self.shifts),
            "kind": "periodic-full",
            "theta": self.period,
            "verified": True,
            "note": "",
        }


def build_span(seq: BitSequence) -> CyclicSpan:
    """Gaussian elimination over the cyclic rotations of the period block.

    Rotation j+1 is the cyclic shift of rotation j, so once one rotation
    reduces to zero against the earlier ones every later rotation lies in
    their span too.  The loop stops there, after at most L+1 rotations.
    Rows are kept reduced against each other, each with its lowest set
    bit as its pivot, and the reduced echelon basis of a space is unique,
    so basis and pivots are those of all T rotations.  The sequence must
    store a full period (BitSequence.period_block).
    """
    row = block = seq.period_block()
    t = seq.period
    basis: list[int] = []
    pivots: list[int] = []
    for _ in range(t):
        v = row
        for b, p in zip(basis, pivots):
            if (v >> p) & 1:
                v ^= b
        if not v:
            break
        p = (v & -v).bit_length() - 1
        # keep rows reduced against each other so pivots stay unique
        basis = [b ^ v if (b >> p) & 1 else b for b in basis]
        basis.append(v)
        pivots.append(p)
        row = (row >> 1) | ((row & 1) << (t - 1))
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return CyclicSpan(
        period=t,
        dimension=len(basis),
        basis=tuple(basis[i] for i in order),
        pivots=tuple(pivots[i] for i in order),
        block=block,
    )


def _powers(g: int, m: int) -> list[int]:
    """x^j mod g for j < m; for a span's recurrence f, bit r of x^j mod f is basis[r]'s bit j."""
    deg = g.bit_length() - 1
    out, u = [], 1
    for _ in range(m):
        if u >> deg:
            u ^= g
        out.append(u)
        u <<= 1
    return out


def _recurrence(span: CyclicSpan) -> int:
    """f = x^L + sum_r c_r x^r, with c column L of the basis (bit r = c_r).

    Any L consecutive coordinates of a cyclic span of dimension L are an
    information set, so the pivots are 0..L-1, basis[r] starts with the
    unit vector e_r, and its bit L is c_r in s_{i+L} = sum_r c_r s_{i+r}.
    Bit L is read cyclically, so a full-rank span gets f = x^T + 1.
    """
    l = span.dimension
    if span.pivots != tuple(range(l)):
        raise ValueError(f"pivots {span.pivots} are not 0..{l - 1}; not a cyclic span")
    f = 1 << l
    for r, row in enumerate(span.basis):
        f |= ((row >> (l % span.period)) & 1) << r
    return f


def _peak_recurrence(span: CyclicSpan) -> int:
    """g = f / gcd(f, x + 1) for the span's recurrence f.

    A fold is constant iff it equals its own rotation, that is, iff f
    divides (x + 1) sum_{d in D} x^d, or g divides sum_{d in D} x^d.
    x + 1 divides f iff f has an even number of terms, and then g's
    coefficient j is the sum of f's above j.
    """
    f = _recurrence(span)
    if f.bit_count() & 1:
        return f
    g = 0
    while f := f >> 1:
        g ^= f
    return g


def _tails(cols: list[int], a: int) -> dict[int, list[tuple[int, ...]]]:
    """Every a-element support in 1..m-1 (a >= 2), bucketed by its columns' XOR, in lex order."""
    m = len(cols)
    index = list(range(m))  # one int per column, shared by every tail that holds it
    table: dict[int, list[tuple[int, ...]]] = {}
    for prefix, fold in fold_extensions(cols, (), a - 1, 1, m - 1):
        for last in index[prefix[-1] + 1:]:
            key = fold ^ cols[last]
            bucket = table.get(key)
            if bucket is None:
                table[key] = [prefix + (last,)]
            else:
                bucket.append(prefix + (last,))
    return table


def _level(cols: list[int], a: int, h: int, tails, prefixes) -> tuple[int, ...] | None:
    """Lex-min support of weight h+a whose first h elements extend one of prefixes.

    A sorted support splits into its head, the first h elements, and its
    tail, the last a.  Heads are walked in lexicographic order, and a
    head fits the first tail whose columns XOR to the head's fold and
    that starts after the head ends.  tails is the level's table, or
    None to build it here.  For a = 1 it is dict(zip(cols, range(m))),
    which maps each column to its last index: a head ending at last,
    with fold f, fits iff f's last index is above last, and its tail is
    then cols.index(f, last + 1), the first later index, even where
    columns repeat.  For a >= 2 it is _tails, whose buckets are bisected
    for the first tail after last.  A head's last element loops
    on its own below m - a, leaving room for a tail: one XOR and one
    probe per head.  prefixes are in lexicographic order and each head
    adds elements above its prefix, so the heads arrive in the supports'
    order and the first fit is the minimum.  low_weight_kernel_support's
    prefixes hold 0; the empty prefix walks every head.
    """
    m = len(cols)
    if tails is None:
        tails = dict(zip(cols, range(m))) if a == 1 else _tails(cols, a)
    probe = tails.get
    for prefix in prefixes:
        fixed = len(prefix) == h  # weight 2, whose one head is (0,)
        lead = prefix[:-1] if fixed else prefix
        start = lead[-1] + 1 if lead else 0
        for head, fold in fold_extensions(cols, lead, h - 1, start, m - a - 1):
            lasts = prefix[-1:] if fixed else range(head[-1] + 1 if head else 0, m - a)
            if a == 1:
                for last in lasts:
                    key = fold ^ cols[last]
                    if probe(key, -1) > last:
                        return head + (last, cols.index(key, last + 1))
            else:
                for last in lasts:
                    bucket = probe(fold ^ cols[last])
                    if bucket:
                        k = bisect_right(bucket, (last, m))
                        if k < len(bucket):
                            return head + (last,) + bucket[k]
    return None


def low_weight_kernel_support(
    g: int,
    m: int,
    w_min: int = 1,
    w_max: int | None = None,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> tuple[int, ...] | None:
    """Smallest support D in 0..m-1, of weight in [w_min, w_max], with g | sum_{d in D} x^d.

    w_min >= 1.  Ties at the winning weight go to the lexicographically
    smallest support.  g is a polynomial (bit r = coefficient of x^r)
    with g(0) = 1, and the columns are its syndromes x^j mod g
    (_powers), so D qualifies iff their XOR over D vanishes.  The search
    is anchored at 0, which gives the full search's answer (see the
    module docstring); an even g raises ValueError, because x would then
    not be invertible and the anchor could miss every dual support.

    Each weight w from 2 up is one head/tail level: a tail of
    a = max(1, ceil(w/2) - 1) elements and a head of the rest, which
    starts at 0.  A level costs its tails plus its heads.  The levels
    with one-element tails (2, 3 and 4) share one map of each column to
    its last index: a head fits iff its fold's last index is above the
    head's end, and takes the first later index (see _level).  Only
    longer tails are hashed, per level, by _tails.
    Levels 2 and 3 cost linear work and run unpriced; every other level
    checks its cost against budget before it allocates, raising
    BudgetExceededError when over.  Levels below 4 are one slice; from 4
    jobs > 1 splits a level's heads by their first free element once its
    price passes the fork break-even of `parallel.map_min`.

    The dual supports are the multiples q g with deg q < m - deg g.
    From the first level that costs no less than their number,
    2^(m - deg g), _multiples walks them all, priced where that level
    is.  Each level from 4 whose Gold zeros (seqmeter.zeros) fit, and
    whose price, C(m-1, w-3) heads plus 2^ell field-table entries, is no
    more than the syndrome level's, walks its heads with zeros_level
    instead, after checking that price against budget.  The answer is
    the same either way, and no budget refuses a level that the syndrome
    price would let through.
    """
    if not g & 1:
        raise ValueError(f"recurrence {g:#x} has g(0) = 0; the anchor at 0 needs g(0) = 1")
    cols = _powers(g, m)
    w_max = m if w_max is None else min(w_max, m)
    free = m - g.bit_length() + 1  # deg q < m - deg g
    ones = None  # the column -> last-index map, shared by the levels with a = 1
    field = zeros = None  # the Gold zeros of g, looked for at the first level from 4
    for w in range(w_min, w_max + 1):
        if w == 1:
            best = (0,) if cols[0] == 0 else None
        else:
            a = max(1, (w + 1) // 2 - 1)
            h = w - a
            level = None
            cost = math.comb(m - 1, a) + math.comb(m - 1, h - 1)
            priced = w >= 4  # levels 2 and 3 walk at most m heads and tails
            if free < cost.bit_length():
                cost = 1 << max(free, 0)
                if priced and cost > budget:
                    raise BudgetExceededError(cost, budget, "multiples of the recurrence")
                return _multiples(g, m, w, w_max)
            if priced:
                if field is None:
                    from . import zeros as gf  # only levels from 4 load it

                    field = gf.zeros_field(g, m, cost.bit_length()) or False
                if field and (price := math.comb(m - 1, w - 3) + (1 << field[0])) <= cost:
                    if price > budget:
                        raise BudgetExceededError(price, budget, "heads and field-table entries")
                    zeros = zeros or gf.gold_zeros(g, m, *field)
                    if zeros:
                        level = gf.zeros_level, (zeros, w - 2)
                        cost = price
                    else:
                        field = False  # the zeros do not fit; every later level hashes syndromes
                if level is None and cost > budget:
                    raise BudgetExceededError(cost, budget, "hash-table entries and probes")
            if level is None:
                if a == 1 and ones is None:
                    ones = dict(zip(cols, range(m)))
                level = _level, (cols, a, h, ones if a == 1 else None)
            # from 4 the heads are split by their first free element; below, one slice
            prefixes = [(0, d) for d in range(1, m)] if w >= 4 else [(0,)]
            best = map_min(*level, prefixes, jobs, cost * _ENTRY_WORK)
        if best is not None:
            return best
    return None


def _multiples(g: int, m: int, w_min: int, w_max: int) -> tuple[int, ...] | None:
    """Lex-min support of least weight in [w_min, w_max] among the q g, 0 <= deg q < m - deg g.

    A Gray-code walk flips one coefficient of q per step: one shifted XOR
    of g.  Of two supports of one weight, the lexicographically smaller
    holds the lowest coordinate where they differ.
    """
    best, v, least = 0, 0, w_max + 1
    for i in range(1, 1 << max(m - g.bit_length() + 1, 0)):
        v ^= g << ((i & -i).bit_length() - 1)
        w = v.bit_count()
        if w_min <= w <= w_max and (w < least or w == least and (d := v ^ best) & -d & v):
            best, least = v, w
    return tuple(j for j in range(m) if best >> j & 1) or None


def find_periodic_peak(
    span: CyclicSpan,
    t_max: int | None,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> PeakCertificate | None:
    """Find the minimum-weight shift set (weight <= t_max) with a full periodic peak of span.

    A full peak is a fold that is constant over one period, so the search
    is low_weight_kernel_support from weight 1 over T columns x^j mod g
    of _peak_recurrence, anchored at 0 because g(0) = 1, and raises
    BudgetExceededError as it does.  A constant block has g = 1 and
    answers (0,); a full-rank span has g = 1 + x + ... + x^(T-1), and
    all T shifts fold to its odd weight.  t_max=None caps nothing, and
    then some certificate exists; otherwise None means none of weight
    <= t_max.  Ties go to the lexicographically smallest shift set.
    Every returned certificate is re-verified exhaustively: the folded
    rotations must be constant at all T positions.
    """
    if t_max is not None and t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    g = _peak_recurrence(span)
    support = low_weight_kernel_support(g, span.period, 1, t_max, budget, jobs)
    if support is None:
        return None
    if abs(periodic_correlation(span.block, span.period, support)) != span.period:
        raise AssertionError(f"unverified full-peak support {support}")  # pragma: no cover
    return PeakCertificate(as_shifts(support), span.period)
