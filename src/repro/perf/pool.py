"""A thread-local per-shape scratch-buffer pool.

:class:`BufferPool` keeps per-``(shape, dtype)`` free lists so scratch
arrays can be recycled instead of reallocated.  No hot-path kernel draws
from :data:`POOL` at present; the pool still publishes its statistics.

Free lists live in ``threading.local`` storage, so two replicas running
under the thread execution backend can never hand each other the same
scratch array — the no-cross-thread-aliasing property is structural, and
``tests/test_distributed.py`` asserts it under concurrency.

Ownership protocol
------------------
``acquire`` returns an array with *unspecified contents* (callers must
fill it); ``zeros`` returns it cleared.  ``release`` returns a buffer to
this thread's free list — only call it when no live reference to the
array (or a view of it) remains.  Arrays that are views (``arr.base is
not None``) are refused, since releasing a view could recycle memory the
base still exposes.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["BufferPool", "POOL", "POOL_BUFFERS_GAUGE", "POOL_HITS_COUNTER"]

#: Metric name for the idle-buffer gauge published by :meth:`BufferPool.publish`.
POOL_BUFFERS_GAUGE = "freeway_pool_buffers"

#: Metric name for the cumulative acquire-hit counter.
POOL_HITS_COUNTER = "freeway_pool_hits_total"


class BufferPool:
    """Per-thread free lists of numpy arrays keyed by ``(shape, dtype)``.

    Parameters
    ----------
    max_per_key:
        Cap on how many idle buffers of one shape/dtype are retained per
        thread; beyond it, released buffers are dropped for the GC.
    """

    __slots__ = ("_local", "max_per_key")

    def __init__(self, max_per_key: int = 8):
        self.max_per_key = int(max_per_key)
        self._local = threading.local()

    # -- thread-local state ---------------------------------------------------

    def _state(self) -> dict:
        state = getattr(self._local, "state", None)
        if state is None:
            state = {"free": {}, "hits": 0, "misses": 0, "released": 0}
            self._local.state = state
        return state

    # -- acquire / release ----------------------------------------------------

    def acquire(self, shape, dtype=np.float64) -> np.ndarray:
        """Return a buffer of ``shape``/``dtype`` with unspecified contents."""
        key = (tuple(int(n) for n in np.atleast_1d(shape))
               if not isinstance(shape, tuple) else shape,
               np.dtype(dtype).str)
        state = self._state()
        stack = state["free"].get(key)
        if stack:
            state["hits"] += 1
            return stack.pop()
        state["misses"] += 1
        return np.empty(key[0], dtype=dtype)

    def zeros(self, shape, dtype=np.float64) -> np.ndarray:
        """Like :meth:`acquire` but zero-filled."""
        buffer = self.acquire(shape, dtype)
        buffer[...] = 0
        return buffer

    def release(self, array: np.ndarray) -> bool:
        """Return ``array`` to this thread's free list.

        Views are refused (their base still exposes the memory); returns
        whether the buffer was actually retained.
        """
        if not isinstance(array, np.ndarray) or array.base is not None:
            return False
        state = self._state()
        key = (array.shape, array.dtype.str)
        stack = state["free"].setdefault(key, [])
        if len(stack) >= self.max_per_key:
            return False
        stack.append(array)
        state["released"] += 1
        return True

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict:
        """Hit/miss counters and idle-buffer count for *this thread*."""
        state = self._state()
        idle = sum(len(stack) for stack in state["free"].values())
        return {"hits": state["hits"], "misses": state["misses"],
                "released": state["released"], "idle_buffers": idle}

    def publish(self, registry) -> None:
        """Export this thread's pool stats into a metrics registry.

        Sets ``freeway_pool_buffers`` to the current idle-buffer count and
        adds the hits accrued since the last publish to
        ``freeway_pool_hits_total``.  Call from the thread that owns the
        hot path (the learner's run loop) — the pool is thread-local, so
        publishing from elsewhere would export an empty pool.
        """
        state = self._state()
        idle = sum(len(stack) for stack in state["free"].values())
        registry.gauge(
            POOL_BUFFERS_GAUGE, "Idle pooled scratch buffers (run-loop thread)"
        ).set(idle)
        delta = state["hits"] - state.get("published_hits", 0)
        if delta > 0:
            registry.counter(
                POOL_HITS_COUNTER, "Scratch-buffer pool acquire hits"
            ).inc(delta)
        state["published_hits"] = state["hits"]

    def clear(self) -> None:
        """Drop this thread's free lists and reset its counters."""
        self._local.state = {"free": {}, "hits": 0, "misses": 0,
                             "released": 0}


#: The process-wide pool (thread-local internally).
POOL = BufferPool()

