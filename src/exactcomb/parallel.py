"""The worker pool of ``acceptance.run_battery``.

Checkers never decide worker counts themselves; only the battery fans out,
one criterion per task.
"""

from __future__ import annotations

import os


def parallel_map(fn, items, workers: int = 1) -> list:
    """Order-preserving map, fanned out over processes when workers > 1.

    Each item is one task, so items should be few and large.  The pool
    never has more processes than items or CPUs; with one process this is
    a plain list comprehension with no pool overhead.  The callable,
    every item, every result and every exception raised must be picklable.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    items = list(items)
    procs = min(workers, len(items), os.cpu_count() or 1)
    if procs <= 1:
        return [fn(x) for x in items]
    from multiprocessing import get_context  # only a pooled run pays for the import

    with get_context().Pool(processes=procs) as pool:
        return pool.map(fn, items, chunksize=1)

