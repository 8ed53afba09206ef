"""Self-contained verification harness behind `seqmeter verify all`.

Each check is one externally stated guarantee of this tool, run end to
end at desk scale with exact arithmetic.  Checks return CheckResult
rather than raising, so a single run reports every failure at once.
The random corpus uses random.Random (portable Mersenne Twister), so a
seed reproduces failures bit for bit on any platform.

The definition-level oracles of both complexity measures live here,
beside the check that compares them with the fast paths, and not in
`complexity` or `moc`, so only `verify` compiles them.
"""

import random
import time
from itertools import combinations
from typing import NamedTuple

from .bitseq import BitSequence, _data_n, mask, pack, periodic_correlation
from .bounds import find_half_peak_witness, kerror_bound, moc_half_peak_check
from .codes import build_span, find_periodic_peak
from .complexity import kerror_linear_complexity, linear_complexity
from .correlation import aperiodic_measure, delta_under_flips
from .generators import (
    fermat_threshold,
    gold_sequence,
    hall_sextic,
    lfsr_cycle,
    m_sequence,
    small_kasami,
)
from .moc import max_order_complexity
from .thresholds import full_peak_threshold, half_peak_threshold, table1

DEFAULT_SEED = 20240917


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    runtime: float
    budget_seconds: float
    cases: int = 0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: {self.detail} "
                f"({self.cases} cases, {self.runtime:.2f}s / budget {self.budget_seconds:.0f}s)")


def _result(name, budget_s, started, failures, cases, detail) -> CheckResult:
    """The check's verdict: passed with detail when failures is empty, else its first four failures."""
    if failures:
        detail = "; ".join(failures[:4])
    return CheckResult(name, not failures, detail, time.perf_counter() - started, budget_s, cases)


# expected exact thresholds per family; claimed values that the exact
# computation contradicts are listed under their computed value instead
# (large-kasami: the radius-3 ball over 2^ell - 1 points outgrows 2^(5 ell/2)
# from ell = 6 on, e.g. 41728 >= 2^15 at ell = 6, so the cap is 7, not 9)
EXPECTED_THRESHOLDS = {
    "m-sequence": lambda e: 3,
    "small-kasami": lambda e: 5,
    "gold": lambda e: 7,
    "large-kasami": lambda e: 9 if e < 6 else 7,
    "3-term-trace": lambda e: 9,
    "5-term-trace": lambda e: 13 if e >= 11 else None,
    "welch-gong": lambda e: {6: 3, 9: 3, 12: 5, 15: 7, 18: 9}.get(e),
}


def check_table1(scale: str = "full", seed: int = DEFAULT_SEED) -> CheckResult:
    """Thresholds across the shipped families match their expected column."""
    start = time.perf_counter()
    ell_max = 8 if scale == "quick" else 20
    failures = []
    cases = 0
    for row in table1(ell_max):
        family, ell = row["family"], row["ell"]
        if ell < 4:
            continue
        if family == "3-term-trace" and ell < 12:
            continue
        expected = EXPECTED_THRESHOLDS[family](ell)
        if expected is None:
            continue
        cases += 1
        if row["threshold"] != expected:
            failures.append(f"{family} ell={ell}: threshold {row['threshold']} != {expected}")
    return _result("table-thresholds", 1.0, start, failures, cases, "all thresholds as expected")


def check_periodic_peaks(scale: str = "full", seed: int = DEFAULT_SEED) -> CheckResult:
    """Every generated instance yields a verified full periodic peak within its threshold."""
    start = time.perf_counter()
    instances = [("m-sequence", m_sequence(e)) for e in range(2, 8 if scale != "quick" else 6)]
    # Gold peaks have weight 5 and come from the zeros path
    instances.append(("gold-5", gold_sequence(5)))
    instances.append(("gold-7", gold_sequence(7)))
    instances.append(("small-kasami-4", small_kasami(4)))
    # full rank, a fold of all ones at order 3, and a constant block
    instances += [("hall-7", hall_sextic(7)), ("hall-31", hall_sextic(31)),
                  ("constant-5", BitSequence.from_int(mask(10), 10, period=5))]
    if scale != "quick":
        instances.append(("gold-9", gold_sequence(9)))
        instances.append(("small-kasami-6", small_kasami(6)))
    failures = []
    for name, seq in instances:
        span = build_span(seq)
        t_cap = full_peak_threshold(seq.period, span.dimension)  # None at full rank: no cap
        cert = find_periodic_peak(span, t_cap)
        if cert is None:
            failures.append(f"{name}: no full peak of order <= {t_cap}")
            continue
        # one shift folds to a constant only when g = 1, for a constant block
        lowest = 1 if span.block in (0, mask(seq.period)) else 2
        # re-fold the shifts over two periods: a full peak has |Theta| = T
        theta = periodic_correlation(span.block, seq.period, cert.shifts)
        if not (lowest <= cert.order <= (t_cap or seq.period) and abs(theta) == seq.period):
            failures.append(f"{name}: bad certificate {cert}, Theta = {theta}")
    return _result("periodic-peaks", 30.0, start, failures, len(instances),
                   "all peaks found and verified")


def _recurrence_block(rng: random.Random) -> tuple[int, int]:
    """Period T and one period of a random recurrence of degree 7 or 8 with c_0 = 1.

    c_0 = 1 makes the state map invertible, so the sequence from any
    nonzero state is periodic from its start.
    """
    deg = rng.randint(7, 8)
    taps = rng.getrandbits(deg - 1) << 1 | 1
    bits = lfsr_cycle(deg, taps, rng.getrandbits(deg) or 1)
    return len(bits), pack(bits)


def check_half_peak_random(scale: str = "full", seed: int = DEFAULT_SEED) -> CheckResult:
    """Random corpus: every fired threshold is matched by a real half peak.

    Even cases are two periods of a random block, T <= 20 and N = 2T.
    Odd cases put one period-breaking bit in front of two periods of a
    random recurrence of degree 7 or 8 (T up to 255, N = 2T + 1), so
    the prefix's shortest recurrence x^e g gains the factor x.  Their
    complexity is low enough that the threshold usually fires, and
    from N = 93 on the exhaustive order-2 search costs more than its
    fallback, so most of them get a constructive witness from the
    windows from coordinate e = 1 on.  The detail counts the
    constructive witnesses of prefixes with e > 0.
    """
    start = time.perf_counter()
    rng = random.Random(seed)
    count = 50 if scale == "quick" else 200
    fired = factored = 0
    failures = []
    for i in range(count):
        if i % 2:
            t, block = _recurrence_block(rng)
            n = 2 * t + 1
            breaking = 1 - (block >> (t - 1) & 1)  # s_{-1} of the periodic extension is bit t-1
            seq = BitSequence.from_int((block | block << t) << 1 | breaking, n)
        else:
            t = rng.randint(2, 20)
            block = rng.getrandbits(t)
            n = 2 * t
            seq = BitSequence.from_int(block | (block << t), n, period=t)
        l, coeffs = linear_complexity(seq, n)
        th = half_peak_threshold(n, l)
        if th is None:
            continue
        fired += 1
        _, k_cap = th
        witness = find_half_peak_witness(seq, n, k_cap)
        if witness is None:
            failures.append(f"#{i} (T={t}, L={l}): fired with cap {k_cap} but no witness")
        elif not (1 < witness["k"] <= k_cap and 2 * witness["value"] >= n):
            failures.append(f"#{i}: witness out of contract: {witness}")
        elif witness["method"] == "constructive" and l and not coeffs[0]:
            factored += 1
    return _result("half-peak-random", 120.0, start, failures, count,
                   f"{fired}/{count} fired, all witnessed ({factored} constructive with e > 0)")


def _low_moc_candidates(n: int, m_cap: int):
    """Every sequence of length n generated by some m_cap-bit-window feedback."""
    seen = set()
    for f_bits in range(1 << (1 << m_cap)):
        for init in range(1 << m_cap):
            data = init
            for i in range(m_cap, n):
                window = (data >> (i - m_cap)) & mask(m_cap)
                data |= ((f_bits >> window) & 1) << i
            seen.add(data)
    return sorted(seen)


def check_moc_half_peak(scale: str = "full", seed: int = DEFAULT_SEED) -> CheckResult:
    """All length-16 sequences with window complexity <= 2 have an order-2 half peak."""
    start = time.perf_counter()
    n = 16
    candidates = _low_moc_candidates(n, 2)
    checked = 0
    failures = []
    for data in candidates:
        seq = BitSequence.from_int(data, n)
        if max_order_complexity(seq) > 2:
            continue
        checked += 1
        report = moc_half_peak_check(seq)
        if not report.fired:
            failures.append(f"{seq.to01()}: hypothesis unexpectedly not fired")
        elif 2 * report.value < n:
            failures.append(f"{seq.to01()}: C_2 = {report.value} below half")
        elif "witness" not in report.inputs:
            failures.append(f"{seq.to01()}: no agreeing shift pair located")
    return _result("moc-half-peak", 60.0, start, failures, checked,
                   "half peak present in every low-complexity sequence")


def linear_complexity_bruteforce(seq: BitSequence | int, n: int | None = None) -> int:
    """Definition-level oracle: try every (L, coefficient vector) in increasing L.

    Exponential in L; intended for cross-checking at toy sizes.
    """
    data, n = _data_n(seq, n)
    if data == 0:
        return 0
    for l in range(1, n + 1):
        w = n - l
        wins = [(data >> i) & mask(l) for i in range(w)]
        succ = [(data >> (i + l)) & 1 for i in range(w)]
        for c in range(1 << l):
            for win, s in zip(wins, succ):
                if (c & win).bit_count() & 1 != s:
                    break
            else:
                return l
    return n


def max_order_complexity_bruteforce(seq: BitSequence | int, n: int | None = None) -> int:
    """Definition-level oracle: materialize every (window, successor) pair.

    A window size is conflicting iff two equal windows carry different
    successors, which sorting makes adjacent.  No shared machinery with
    the suffix-automaton pass in `moc`.
    """
    data, n = _data_n(seq, n)
    for m in range(n):
        pairs = sorted(
            (((data >> i) & mask(m)) << 1) | ((data >> (i + m)) & 1)
            for i in range(n - m)
        )
        if all(
            a >> 1 != b >> 1 or a == b
            for a, b in zip(pairs, pairs[1:])
        ):
            return m
    return 0 if n == 0 else n


def check_oracle_equivalence(scale: str = "full", seed: int = DEFAULT_SEED) -> CheckResult:
    """Production kernels agree with definition-level oracles; M <= L throughout."""
    start = time.perf_counter()
    n_max = 10 if scale == "quick" else 12
    failures = []
    cases = 0
    for n in range(n_max + 1):
        for v in range(1 << n):
            cases += 1
            fast, _ = linear_complexity(v, n)
            if fast != linear_complexity_bruteforce(v, n):
                failures.append(f"recurrence mismatch at n={n}, data={v:0{n}b}")
            moc = max_order_complexity(v, n)
            if v and moc > fast:
                failures.append(f"M > L at n={n}, data={v:0{n}b}")
        if failures:
            break
    rng = random.Random(seed)
    rounds = 2000 if scale == "quick" else 10_000
    for i in range(rounds):
        n = rng.randint(1, 64)
        v = rng.getrandbits(n)
        cases += 1
        a = max_order_complexity(v, n)
        if a != max_order_complexity_bruteforce(v, n):
            failures.append(f"moc mismatch #{i}: n={n}, data={v:0{n}b}")
            break
        l, _ = linear_complexity(v, n)
        if v and a > l:
            failures.append(f"M > L #{i}: n={n}, data={v:0{n}b}")
            break
    return _result("oracle-equivalence", 180.0, start, failures, cases, "oracles agree everywhere")


def check_special_sequences(scale: str = "full", seed: int = DEFAULT_SEED) -> CheckResult:
    """Residue-class and quotient-threshold families have their textbook shape."""
    start = time.perf_counter()
    failures = []
    cases = 0
    for t in (7, 13, 19, 31, 37):
        cases += 1
        h = hall_sextic(t)
        if h.minimal_period() != t:
            failures.append(f"hall {t}: minimal period {h.minimal_period()}")
        if h.prefix(t).weight() != (t - 1) // 2:
            failures.append(f"hall {t}: weight {h.prefix(t).weight()} != {(t - 1) // 2}")
    for p in (3, 5, 7, 11):
        cases += 1
        f = fermat_threshold(p)
        period = f.minimal_period()
        if period == 0 or (p * p) % period != 0:
            failures.append(f"fermat {p}: minimal period {period} does not divide {p * p}")
        if any(f.bit(k * p) for k in range(p)):
            failures.append(f"fermat {p}: nonzero at a multiple of p")
    return _result("special-sequences", 5.0, start, failures, cases, "periods and weights exact")


def check_kerror_consistency(scale: str = "full", seed: int = DEFAULT_SEED) -> CheckResult:
    """Error-tolerant bound never exceeds the true exhaustive k-error complexity."""
    start = time.perf_counter()
    rng = random.Random(seed)
    corpus = []
    for n in (8, 12, 16) if scale != "quick" else (16,):
        fixed = [0, mask(n), sum(1 << i for i in range(0, n, 2)),
                 m_sequence(4).data & mask(n)]
        randoms = [rng.getrandbits(n) for _ in range(10 if scale != "quick" else 4)]
        corpus += [(data, n) for data in fixed + randoms]
    failures = []
    cases = 0
    for data, n in corpus:
        seq = BitSequence.from_int(data, n)
        base_c2 = aperiodic_measure(seq, 2, n).value
        for flips in (0, 1, 2):
            cases += 1
            report = kerror_bound(seq, n, k=2, flips=flips)
            bound = report.value if report.fired else 0
            true_value = kerror_linear_complexity(seq, n, errors=flips)
            if true_value < bound:
                failures.append(
                    f"{data:0{n}b} F={flips}: true {true_value} < bound {bound}")
        for flips in (1, 2):
            ceiling = delta_under_flips(2, flips)
            for pos in combinations(range(n), flips):
                cases += 1
                flipped = data
                for p in pos:
                    flipped ^= 1 << p
                c2 = aperiodic_measure(BitSequence.from_int(flipped, n), 2, n).value
                if abs(c2 - base_c2) > ceiling:
                    failures.append(
                        f"{data:0{n}b} flips at {pos}: |{c2} - {base_c2}| > {ceiling}")
                    break
    return _result("kerror-consistency", 120.0, start, failures, cases,
                   "bound below truth and perturbation within ceiling everywhere")


ALL_CHECKS = (
    check_table1,
    check_periodic_peaks,
    check_half_peak_random,
    check_moc_half_peak,
    check_oracle_equivalence,
    check_special_sequences,
    check_kerror_consistency,
)


def run_all(scale: str = "full", seed: int = DEFAULT_SEED) -> list[CheckResult]:
    if scale not in ("quick", "full"):
        raise ValueError(f"scale must be quick or full, got {scale!r}")
    return [check(scale, seed) for check in ALL_CHECKS]
