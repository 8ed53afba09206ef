"""One process fan-out for the exhaustive searches.

Every parallel search here has the same shape: a pure function scans a
slice of some leading choices (first gaps, first support elements)
and returns its best key, or None; the answer is the minimum over the
slices.  Because the keys are totally ordered and the slices partition
the choices, the result does not depend on how they are split.
"""

import os

FORK_BREAK_EVEN = 10**7  # priced summands; see map_min


def map_min(fn, args: tuple, items: list, jobs: int, work: int):
    """Minimum of the non-None results of fn(*args, chunk) over a partition of items.

    work is the caller's price for the whole call in the units of the
    correlation scans (the aperiodic scan gives k * C(N, k), the bits of
    its gap rows times k; the periodic scan its visited shift sets times
    T); other searches scale theirs to that unit.  Below FORK_BREAK_EVEN
    fn runs in this process on all of items whatever jobs asks for,
    because starting the workers would cost more than the split saves.
    Otherwise the worker count is min(jobs, os.cpu_count(), len(items)),
    so a large jobs never starts more processes than there are cores or
    slices.  With one worker fn runs in this process on all of items.
    The executor is imported here, not at module load, so single-process
    runs never pay for the multiprocessing import.

    The break-even was measured on a 2-core VM with Python 3.11, best of
    3 runs at jobs=1 and jobs=2 on random inputs.  A 2-worker pool with a
    no-op task costs about 6 ms.  Periodic scans, priced at the shift
    sets they visit, lose to the pool at 2.8e6 (k = 3, T = 255: 2.2 ms
    alone, 10.3 ms forked) and 4.3e6 (k = 4, T = 101: 9.3 -> 13.2 ms),
    break even at 1.1e7 (k = 4, T = 127: 16.6 -> 15.8 ms) and gain at
    8.6e7 (k = 5, T = 101: 187 -> 130 ms).  Aperiodic scans lose at
    1.1e7 (k = 5, N = 50: 9.0 -> 16.4 ms) and gain at 7.5e7 (k = 5,
    N = 73: 70 -> 46 ms), because each slice prunes against its own best
    value only.  At the default budget orders 1 and 2 never reach the
    break-even (k = 2 tops out at 2.1e6), order 3 reaches it from N =
    273, order 4 from N = 90 and order 5 from N = 50.  A priced unit
    costs 0.8-8 ns once pruned, so 10^7 of them are about 0.01-0.08 s of
    work.
    """
    workers = min(jobs, os.cpu_count() or 1, len(items)) if work >= FORK_BREAK_EVEN else 1
    if workers <= 1:
        return fn(*args, items)
    chunks = [items[i::workers] for i in range(workers)]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        parts = [p for p in pool.map(fn, *zip(*[(*args, c) for c in chunks])) if p is not None]
    return min(parts) if parts else None
