#!/usr/bin/env python3
"""Compare complexity lower bounds against true values on concrete sequences.

For each sequence the script computes the exhaustive correlation map up to a
small order cap and then evaluates, side by side:

  * the self-consistent scan bound on linear complexity,
  * the logarithmic formula at order K, the highest order searched, shown
    only where C_j(S,N) < N/2 for every j <= K; it is asymptotic, with an
    unpinned additive constant, so it is not a bound at every N,
  * the scan bound on maximum-order complexity,
  * the true L(S,N) and M(S,N) from the production kernels.

Usage: python scripts/compare_bounds.py [--k-max 5] [--seed 1] [--random 4]
"""

import argparse
import random
import sys
from pathlib import Path

# run from a checkout without installing: the checkout's src/ comes first
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from seqmeter.bitseq import BitSequence
from seqmeter.bounds import log_complexity_bound, lc_correlation_bound, moc_correlation_bound
from seqmeter.complexity import linear_complexity
from seqmeter.correlation import aperiodic_measure, search_cost
from seqmeter.generators import fermat_threshold, gold_sequence, hall_sextic, m_sequence
from seqmeter.moc import max_order_complexity


def corpus(seed: int, random_count: int):
    yield "m-sequence ell=5", m_sequence(5)
    yield "m-sequence ell=6", m_sequence(6)
    yield "gold ell=5", gold_sequence(5)
    yield "hall T=37", hall_sextic(37)
    yield "fermat p=7", fermat_threshold(7)
    rng = random.Random(seed)
    for i in range(random_count):
        n = rng.randint(40, 80)
        yield f"random #{i} (n={n})", BitSequence.from_int(rng.getrandbits(n), n)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k-max", type=int, default=5, help="highest correlation order")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--random", type=int, default=4, help="random sequences to add")
    ap.add_argument("--budget", type=int, default=2 * 10**8,
                    help="summand budget per exhaustive order")
    args = ap.parse_args()

    fmt = "{:<22} {:>4} {:>4} {:>12} {:>9} {:>7} {:>9} {:>7}"
    print(fmt.format("sequence", "N", "K", "scan L >=", "log L ~", "true L",
                     "scan M >=", "true M"))
    for name, seq in corpus(args.seed, args.random):
        n = seq.n
        # largest order whose exhaustive search fits the per-order budget
        k_hi = max(k for k in range(1, args.k_max + 1)
                   if k == 1 or search_cost(n, k) <= args.budget)
        corr = {k: aperiodic_measure(seq, k, n, budget=args.budget).value
                for k in range(1, k_hi + 1)}
        scan_l = lc_correlation_bound(corr, n)
        scan_m = moc_correlation_bound(corr, n)
        # the log formula at K = k_hi needs C_j < N/2 for every j <= k_hi
        if k_hi >= 2 and k_hi * k_hi < n and all(2 * v < n for v in corr.values()):
            log_l = f"{log_complexity_bound(k_hi, n):.2f}"
        else:
            log_l = "-"
        true_l, _ = linear_complexity(seq, n)
        true_m = max_order_complexity(seq, n)
        print(fmt.format(
            name, n, k_hi,
            scan_l.value if scan_l.fired else "-",
            log_l,
            true_l,
            scan_m.value if scan_m.fired else "-",
            true_m,
        ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
