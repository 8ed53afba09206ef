"""One process fan-out for the exhaustive searches.

Every parallel search here has the same shape: a pure function scans a
slice of some leading choices (first shifts, first support elements)
and returns its best key, or None; the answer is the minimum over the
slices.  Because the keys are totally ordered and the slices partition
the choices, the result does not depend on how they are split.
"""

import os

FORK_BREAK_EVEN = 10**7  # priced summands; see map_min


def map_min(fn, args: tuple, items: list, jobs: int, work: int):
    """Minimum of the non-None results of fn(*args, chunk) over a partition of items.

    work is the caller's price for the whole call in summands of the
    correlation scans (`correlation.search_cost`); other searches scale
    theirs to that unit.  Below FORK_BREAK_EVEN fn runs in this process
    on all of items whatever jobs asks for, because starting the workers
    would cost more than the split saves.  Otherwise the worker count is
    min(jobs, os.cpu_count(), len(items)), so a large jobs never starts
    more processes than there are cores or slices.  With one worker fn
    runs in this process on all of items.  The executor is imported here,
    not at module load, so single-process runs never pay for the
    multiprocessing import.

    The break-even was measured on a 2-core VM with Python 3.11, best of
    2 runs at jobs=1 and jobs=2 on random inputs.  A 2-worker pool with a
    no-op task costs about 6 ms.  Aperiodic scans lose to the pool up to
    2.0e6 summands (k = 3, N = 64: 13.7 ms alone, 17.5 ms forked) and
    gain from 5.6e6 (k = 2, N = 256: 58 -> 44 ms) and 1.0e7 (k = 3,
    N = 96: 47 -> 37 ms).  Periodic scans lose at 8.2e6 (k = 3, T = 255:
    5.8 -> 9.0 ms) and gain at 1.6e7 (k = 4, T = 101: 22 -> 18 ms).  A
    priced summand costs 0.7-13 ns once pruned, so 10^7 of them are about
    0.05-0.1 s of work.
    """
    workers = min(jobs, os.cpu_count() or 1, len(items)) if work >= FORK_BREAK_EVEN else 1
    if workers <= 1:
        return fn(*args, items)
    chunks = [items[i::workers] for i in range(workers)]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        parts = [p for p in pool.map(fn, *zip(*[(*args, c) for c in chunks])) if p is not None]
    return min(parts) if parts else None
