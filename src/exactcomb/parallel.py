"""Worker-pool plumbing.

Verification functions accept a map-like callable; this module builds one.
Modules stay policy-free: they never decide worker counts themselves.
"""

from __future__ import annotations

import os
from functools import partial
from multiprocessing import get_context


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def parallel_map(fn, items, workers: int = 1) -> list:
    """Order-preserving map, fanned out over processes when workers > 1.

    The pool never has more processes than items or CPUs; with one process
    this is a plain list comprehension with no pool overhead.  The callable
    and every item must be picklable.
    """
    _check_workers(workers)
    items = list(items)
    procs = min(workers, len(items), os.cpu_count() or 1)
    if procs <= 1:
        return [fn(x) for x in items]
    chunk = max(1, len(items) // (procs * 4))
    with get_context().Pool(processes=procs) as pool:
        return pool.map(fn, items, chunksize=chunk)


def make_pmap(workers: int = 1):
    """A capability to hand to verify_* functions as their pmap argument."""
    _check_workers(workers)
    return map if workers == 1 else partial(parallel_map, workers=workers)
