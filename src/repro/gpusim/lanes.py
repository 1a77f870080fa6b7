"""Host cores as streaming multiprocessors: one walk's blocks, many threads.

On the paper's GPU a device's CUDA blocks run at the same time, spread
over its SMs, each block walking on its own (§3.2, Figure 5).  When the
host runs a device itself (sync mode), a
:class:`~repro.gpusim.engine.BulkSearchEngine` built with ``split=True``
does the same with the host's cores: it cuts the block rows of a walk
into contiguous ranges and makes one kernel call per range, all at once.
The calling thread runs the first range and the helper threads of
:data:`LANES` run the rest.  A kernel that runs off the GIL (the
``bitplane`` C calls, through :mod:`ctypes`) then uses one core per
range; the blocks are independent, so the answer is the one a single
call gives.

The pool is built on first use, sized from the CPU affinity mask
(:func:`usable_cpus`), never from a setting.  Its threads are joined
before every ``fork`` and the pool is forgotten in the child, so a
forked worker starts without helper threads and builds its own pool if
it ever needs one.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # concurrent.futures loads with the first split only
    from concurrent.futures import Future, ThreadPoolExecutor

__all__ = ["LANES", "LanePool", "usable_cpus"]


def usable_cpus() -> int:
    """Cores this process may run on: its CPU affinity mask, or
    ``os.cpu_count()`` where the platform has no mask."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


class LanePool:
    """Helper threads that run the ranges of a split walk."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None  # guarded-by: _lock

    def run(self, calls: Sequence[Callable[[], int]]) -> list[int]:
        """Run ``calls[0]`` on this thread and the rest on helpers; their
        results in order.

        Returns, or re-raises the first failure, only once every call
        has finished, so no helper still writes to the caller's arrays.
        """
        futures = self._submit(calls[1:])
        try:
            first = calls[0]()
        finally:
            for f in futures:
                f.exception()  # waits for the call; its error is raised below
        return [first, *(f.result() for f in futures)]

    def _submit(self, calls: Sequence[Callable[[], int]]) -> list[Future[int]]:
        with self._lock:
            if self._pool is None:
                from concurrent.futures import ThreadPoolExecutor

                self._pool = ThreadPoolExecutor(
                    max(1, usable_cpus() - 1), thread_name_prefix="repro-lane"
                )
            return [self._pool.submit(call) for call in calls]

    def drain(self) -> None:
        """Join the helper threads; the next split builds a new pool."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def reset_in_child(self) -> None:
        """Forget the parent's pool and lock after a ``fork``: another
        parent thread may have held the lock, and no helper survived."""
        self._lock = threading.Lock()
        with self._lock:
            self._pool = None


#: The process's one lane pool.
LANES = LanePool()

if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=LANES.drain, after_in_child=LANES.reset_in_child)
