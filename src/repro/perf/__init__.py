"""Hot-path performance layer: the plan switch, buffer pool, stage profiler.

``repro.perf`` is deliberately a *leaf* package: it imports nothing from
:mod:`repro.nn`, :mod:`repro.core`, or :mod:`repro.shift` so those modules
can consult it without cycles.  It bundles three things:

- :data:`config` — the one hot-path switch, ``plan_capture``
  (captured-plan replay, bitwise-identical to the define-by-run path).
  ``optimizations_disabled()`` turns it off so equivalence tests can
  diff the two.  Every other fast path is switchless, with its oracle
  kept next to the tests (see ``docs/PERF.md``).
- :data:`POOL` — a thread-local per-shape scratch-buffer pool
  (:class:`BufferPool`), safe under the thread execution backend because
  free lists are never shared across threads.
- :class:`HotPathProfiler` — per-stage wall-clock aggregation for
  :meth:`Learner.process`, feeding the ``freeway_hot_path_seconds{stage}``
  histogram when an :class:`~repro.obs.Observability` facade is attached
  (see ``run --profile``).

See ``docs/PERF.md`` for the design notes and the benchmark workflow.
"""

from .config import (PerfConfig, config, configure, optimizations_disabled,
                     optimizations_enabled)
from .pool import POOL, POOL_BUFFERS_GAUGE, POOL_HITS_COUNTER, BufferPool
from .profile import HOT_PATH_HISTOGRAM, PLAN_CACHE_COUNTER, HotPathProfiler

__all__ = [
    "PerfConfig",
    "config",
    "configure",
    "optimizations_disabled",
    "optimizations_enabled",
    "BufferPool",
    "POOL",
    "POOL_BUFFERS_GAUGE",
    "POOL_HITS_COUNTER",
    "HotPathProfiler",
    "HOT_PATH_HISTOGRAM",
    "PLAN_CACHE_COUNTER",
]
