"""One process fan-out for the exhaustive searches.

Every parallel search here has the same shape: a pure function scans a
slice of some leading choices (first shifts, first support elements)
and returns its best key, or None; the answer is the minimum over the
slices.  Because the keys are totally ordered and the slices partition
the choices, the result does not depend on how they are split.
"""

import os


def map_min(fn, args: tuple, items: list, jobs: int):
    """Minimum of the non-None results of fn(*args, chunk) over a partition of items.

    The worker count is min(jobs, os.cpu_count(), len(items)), so a large
    jobs never starts more processes than there are cores or slices.  With
    one worker fn runs in this process on all of items.  The executor is
    imported here, not at module load, so single-process runs never pay
    for the multiprocessing import.
    """
    workers = min(jobs, os.cpu_count() or 1, len(items))
    if workers <= 1:
        return fn(*args, items)
    chunks = [items[i::workers] for i in range(workers)]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        parts = [p for p in pool.map(fn, *zip(*[(*args, c) for c in chunks])) if p is not None]
    return min(parts) if parts else None
