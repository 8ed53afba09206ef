"""Lower bounds linking complexity measures to correlation measures.

Two classical relations are evaluated by a self-consistent ascending
scan (the unknown appears on both sides of each inequality, so the scan
returns the weakest certified reading):

    L(S,N) >= N - max_{1<=k<=L+1} C_k(S,N)
    M(S,N) >= N - 2**(M+1) * max_{1<=k<=M+1} C_k(S,N)

The sphere-packing thresholds turn the same correlation data around:
once enough shift sets exist to exhaust the recurrence's state space, a
peak is forced.  All fired/not-fired decisions use exact integers; only
display values are floats.  The thresholds themselves, and Table 1
built from them, live in `seqmeter.thresholds`.

Convention: every logarithm here is log base 2.

Each function imports the search modules (codes, complexity, moc,
correlation) it calls, so the pure-arithmetic calculators load none of
them.
"""

import math
from typing import NamedTuple

from .bitseq import BitSequence, _data_n, mask
from .budget import DEFAULT_BUDGET

# exhaustive order-k search is only attempted below this many summands
# before falling back to the constructive window-collision argument
EXHAUSTIVE_FALLBACK_COST = 250_000


class BoundReport(NamedTuple):
    name: str
    inputs: dict
    value: float | int | None
    fired: bool
    commentary: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "inputs": self.inputs,
            "value": self.value,
            "fired": self.fired,
            "commentary": self.commentary,
        }


def _scan(name: str, corr: dict, n: int, holds, note) -> BoundReport:
    """The first x = 0, 1, ... with holds(x, c), c = max C_k over k <= x+1, as a fired report.

    corr must cover k = 1..K, so the scan stops at x = K-1; note(x, c) is
    the commentary of the point found.
    """
    if not corr:
        raise ValueError("empty correlation map")
    ks = sorted(corr)
    if ks != list(range(1, len(ks) + 1)):
        raise ValueError(f"correlation map must cover k = 1..K, got keys {ks}")
    running = 0
    for x in range(len(ks)):
        running = max(running, corr[x + 1])
        if holds(x, running):
            return BoundReport(name, {"N": n, "K": len(ks), "max_corr": running}, x, True,
                               note(x, running))
    return BoundReport(name, {"N": n, "K": len(ks)}, None, False,
                       "no self-consistent point within the supplied correlation orders")


def lc_correlation_bound(corr: dict, n: int) -> BoundReport:
    """Certified lower bound on linear complexity from correlation data.

    Ascending scan: the smallest l with l >= n - max_{k<=l+1} C_k is
    self-consistent, hence certified (any smaller complexity would
    violate the relation).  Needs corr to reach k = l+1, so the scan is
    limited to l <= K-1.
    """
    return _scan("lc-from-correlation", corr, n, lambda l, c: l >= n - c,
                 lambda l, c: f"L >= {l}: max C_k over k <= {l + 1} is {c}")


def moc_correlation_bound(corr: dict, n: int) -> BoundReport:
    """Analogous certified bound on maximum-order complexity."""
    return _scan("moc-from-correlation", corr, n, lambda m, c: m + (1 << (m + 1)) * c >= n,
                 lambda m, c: f"M >= {m}: {m} + 2^{m + 1}*{c} >= {n}")


def log_complexity_bound(k: int, n: int) -> float:
    """(K/2)(log2 N + 1 - log2 K) - (1/2) log2 K.

    The asymptotic form of the Hamming-bound count: L(S,N) is at least
    this, up to an unpinned additive constant, when C_j(S,N) < N/2 for
    every j <= K.  It is not a bound at every N: at K = 2, N = 12 and
    N = 13, 14 sequences each meet the hypothesis with L up to 0.2 below
    it.  Asking only j < K is refuted outright: 0110110110110110 has
    C_1 = 6 < 8 but L = 2 < 3.5, the value at K = 2, N = 16.
    """
    if k < 2:
        raise ValueError(f"K must be >= 2, got {k}")
    if k * k >= n:
        raise ValueError(f"need K^2 < N, got K={k}, N={n}")
    return 0.5 * k * (math.log2(n) + 1 - math.log2(k)) - 0.5 * math.log2(k)


def find_half_peak_witness(
    seq: BitSequence,
    n: int,
    k_max: int,
    budget: int = DEFAULT_BUDGET,
) -> dict | None:
    """A verified witness of C_k(S,n) >= n/2 for some 2 <= k <= k_max.

    Orders whose exhaustive search is cheap are searched outright.  Above
    the fallback cost the witness is built constructively: the windows
    (s_j, ..., s_{j+w-1}), w = ceil(n/2), j < floor(n/2), span a space of
    dimension <= L(S,n), so a low-weight XOR collision among them gives
    a shift set whose summands are all +1 on a window of length w.

    When L <= w the shortest recurrence f = x^L + sum_r c_r x^r holds
    across every window, so the window at j is A^j times the first one,
    where A is the companion matrix of f.  The first window's
    annihilator is f itself, or the prefix would satisfy a shorter
    recurrence, so the windows over D fold to zero exactly when f
    divides sum_{d in D} x^d.  Write f = x^e g with g(0) = 1: then D
    must have min D >= e, and D is a collision exactly when g divides
    sum_{d in D} x^(d - e).  So the search is
    low_weight_kernel_support(g, floor(n/2) - e): its columns x^j mod g
    have the dual sets of the windows from e on, it is anchored there
    (see the codes module docstring), Gold-like prefixes take its zeros
    path, and e is added back to its support.  Periodic prefixes have
    e = 0.  Whenever the threshold
    fires, C(floor(n/2), t) >= 2**L forces L <= floor(n/2) <= w, so every
    firing prefix takes this search; a prefix with L > w gets None after
    its exhaustive orders.  The search raises BudgetExceededError before
    a level whose price exceeds budget.  Both paths re-verify the
    witness with correlation_at.
    """
    from .correlation import aperiodic_measure, correlation_at, search_cost

    data, n = _data_n(seq, n)
    exhausted_all = True
    for k in range(2, k_max + 1):
        if search_cost(n, k) > min(EXHAUSTIVE_FALLBACK_COST, budget):
            exhausted_all = False
            break
        r = aperiodic_measure(seq, k, n, budget=budget)
        if 2 * r.value >= n:
            return {
                "k": k,
                "U": r.witness_u,
                "D": list(r.witness_d),
                "value": r.value,
                "method": "exhaustive",
            }
    if exhausted_all:
        return None
    from .complexity import _minimal_polynomial

    width = n - n // 2  # ceil(n/2)
    l, f = _minimal_polynomial(data, n)
    if l > width:
        return None
    from .codes import low_weight_kernel_support  # constructive path only

    e = (f & -f).bit_length() - 1  # f = x^e g with g(0) = 1
    support = low_weight_kernel_support(f >> e, n // 2 - e, 2, k_max, budget)
    if support is None:
        return None
    support = tuple(d + e for d in support)
    value = correlation_at(seq, width, support, n)
    if value != width:
        raise AssertionError(f"window collision {support} failed re-verification")
    return {
        "k": len(support),
        "U": width,
        "D": list(support),
        "value": value,
        "method": "constructive",
    }


def moc_half_peak_check(
    seq: BitSequence,
    n: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> BoundReport:
    """Low maximum-order complexity forces an order-2 half peak.

    Fires when 2**(M+2) <= n (exact-integer reading of M <= log2(n) - 2).
    On firing, C_2 is computed exhaustively and an agreeing shift pair
    d_1 < d_2 <= 2**M with s[i+d_1] = s[i+d_2] on the whole overlap is
    located; such a pair exists by pigeonhole on the 2**M + 1 windows of
    length M starting at 0..2**M.
    """
    from .correlation import aperiodic_measure
    from .moc import max_order_complexity

    data, n = _data_n(seq, n)
    m = max_order_complexity(seq, n)
    inputs = {"N": n, "M": m}
    if (1 << (m + 2)) > n:
        return BoundReport("moc-half-peak", inputs, None, False,
                           f"not fired: 2^(M+2) = {1 << (m + 2)} > {n}")
    r = aperiodic_measure(seq, 2, n, budget=budget)
    inputs["C2"] = r.value
    d1, d2 = _agreeing_pair(data, m)
    inputs["witness"] = [d1, d2]
    held = 2 * r.value >= n
    note = (f"C_2 = {r.value}, need >= {n}/2: {'holds' if held else 'VIOLATED'}"
            f"; windows at {d1} and {d2} agree on all {n - d2} overlapping bits")
    if d2 == 1 << m:
        note += " (pair sits at 2^M exactly, not strictly below)"
    return BoundReport("moc-half-peak", inputs, r.value, True, note)


def _agreeing_pair(data: int, m: int) -> tuple[int, int]:
    """The least d2 <= 2**M whose M-bit window occurs at some d1 < d2, with that d1.

    M is the maximum-order complexity of the prefix, so one feedback
    function of order M extends every window: two positions whose
    M-windows agree agree on their whole overlap, and once the check fires
    (2**(M+2) <= N) that overlap is at least 3 * 2**M >= M bits long, so
    the converse holds too.  The first repeated window is then the pair
    with the least d2 and, for it, the least d1.
    """
    data &= mask((1 << m) + m)
    low = mask(m)
    first = {}
    for d2 in range((1 << m) + 1):  # 2**M + 1 windows of M bits: one repeats
        d1 = first.setdefault((data >> d2) & low, d2)
        if d1 != d2:
            break
    return d1, d2


def kerror_bound(
    seq: BitSequence,
    n: int | None = None,
    k: int = 2,
    flips: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> BoundReport:
    """Lower bound on the linear complexity surviving up to `flips` bit changes.

    Exhaustive C_j for j = 1..k, each inflated by the certified flip
    ceiling 2jF, then the self-consistent scan runs on the inflated map.
    The result holds for every sequence within Hamming distance F of the
    prefix.  When every inflated C_j, j <= k, stays below N/2, with
    k >= 2 and k^2 < N, the commentary adds log_complexity_bound(k, N):
    an asymptotic formula with an unpinned constant, not a bound.
    """
    from .correlation import aperiodic_measure, delta_under_flips

    if k < 1:
        raise ValueError("k must be >= 1")
    n = _data_n(seq, n)[1]
    corr = {}
    inflated = {}
    for j in range(1, k + 1):
        corr[j] = aperiodic_measure(seq, j, n, budget=budget).value
        inflated[j] = min(corr[j] + delta_under_flips(j, flips), n - j + 1)
    base = lc_correlation_bound(corr, n)
    worst = lc_correlation_bound(inflated, n)
    inputs = {"N": n, "k": k, "flips": flips, "corr": corr, "inflated": inflated}
    notes = [
        f"unperturbed scan bound {base.value}",
        f"surviving bound {worst.value} for every sequence within {flips} flips",
    ]
    if k >= 2 and k * k < n and all(2 * v < n for v in inflated.values()):
        logb = log_complexity_bound(k, n)
        notes.append(f"inflated map stays below N/2 for j <= {k}; order-{k} log formula "
                     f"{logb:.3f} (asymptotic, up to an additive constant)")
    return BoundReport("kerror-lc", inputs, worst.value, worst.fired, "; ".join(notes))
