"""Bounded worker parallelism with a deterministic, order-preserving merge."""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def run_tasks(fn: Callable[[T], R], tasks: Iterable[T], jobs: int = 1) -> list[R]:
    """Map ``fn`` over ``tasks`` with at most ``jobs`` worker processes.

    Results come back in task order for any worker count, so callers see
    identical output whether they run serial or parallel. ``fn`` must be
    picklable (a module-level function) when jobs > 1.
    """
    items: Sequence[T] = list(tasks)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # Imported here, so that serial runs do not pay for the pool modules at start-up.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    ctx = multiprocessing.get_context("fork") if "fork" in multiprocessing.get_all_start_methods() else None
    chunk = max(1, len(items) // (jobs * 8))
    with ProcessPoolExecutor(max_workers=min(jobs, len(items)), mp_context=ctx) as pool:
        return list(pool.map(fn, items, chunksize=chunk))
