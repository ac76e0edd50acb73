"""Per-stage wall-clock profiling for the serving loop.

:class:`HotPathProfiler` aggregates ``time.perf_counter`` spans by stage
name.  The :class:`~repro.core.Learner` accepts one via ``profiler=`` and
wraps its hot-path stages (assess, select, infer, train, experience,
preserve) — ``python -m repro run --profile`` prints the breakdown after
a run.  When an :class:`~repro.obs.Observability` facade is attached,
every sample is also recorded into the
``freeway_hot_path_seconds{stage}`` histogram so dashboards see the same
numbers the profiler prints.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["HotPathProfiler", "HOT_PATH_HISTOGRAM", "PLAN_CACHE_COUNTER"]

#: Metric name for the per-stage latency histogram.
HOT_PATH_HISTOGRAM = "freeway_hot_path_seconds"

#: Metric name for plan-cache events (mirrors
#: :data:`repro.nn.plan.PLAN_CACHE_COUNTER`; duplicated here so the
#: profiler does not import the nn package).
PLAN_CACHE_COUNTER = "freeway_plan_cache"

#: Stage-name prefix of spans recorded inside another stage's span.
NESTED_PREFIX = "plan."


class _Stage:
    """Reusable-per-call context manager timing one stage span."""

    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler: "HotPathProfiler", name: str):
        self._profiler = profiler
        self._name = name
        self._start = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._profiler.record(self._name, time.perf_counter() - self._start)
        return False


class HotPathProfiler:
    """Collects per-stage wall-clock samples from the serving loop.

    Parameters
    ----------
    obs:
        Optional :class:`~repro.obs.Observability`; when enabled, each
        sample also feeds ``freeway_hot_path_seconds{stage}``.
    """

    __slots__ = ("_samples", "_obs")

    def __init__(self, obs=None):
        self._samples: dict[str, list[float]] = {}
        self._obs = obs

    # -- recording ------------------------------------------------------------

    def stage(self, name: str) -> _Stage:
        """Context manager timing one span of ``name``."""
        return _Stage(self, name)

    def record(self, name: str, seconds: float) -> None:
        """Add one wall-clock sample for ``name``."""
        self._samples.setdefault(name, []).append(float(seconds))
        obs = self._obs
        if obs is not None and obs.enabled:
            obs.registry.histogram(
                HOT_PATH_HISTOGRAM, "Serving-loop stage latency (seconds)"
            ).labels(stage=name).observe(float(seconds))

    def observe_plan_event(self, event: str, seconds: float) -> None:
        """Plan-cache observer (see :func:`repro.nn.plan.observing`).

        Timed events (capture, replay) land as ``plan.<event>`` stages so
        :meth:`render` shows them next to the serving stages; every event
        also bumps ``freeway_plan_cache{event}`` when observability is on.
        """
        if event in ("capture", "replay"):
            self.record(f"{NESTED_PREFIX}{event}", seconds)
        obs = self._obs
        if obs is not None and obs.enabled:
            obs.registry.counter(
                PLAN_CACHE_COUNTER, "Plan-cache events by type"
            ).labels(event=event).inc()

    def reset(self) -> None:
        self._samples.clear()

    # -- reporting ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-stage ``{count, total_s, mean_s, p50_s, max_s}``."""
        out = {}
        for name, samples in self._samples.items():
            arr = np.asarray(samples)
            out[name] = {
                "count": int(arr.size),
                "total_s": float(arr.sum()),
                "mean_s": float(arr.mean()),
                "p50_s": float(np.median(arr)),
                "max_s": float(arr.max()),
            }
        return out

    def render(self) -> str:
        """Aligned text table, stages sorted by total time descending.

        Shares are of the top-level stages' total, so those sum to 100%;
        a nested ``plan.*`` row shows its share of the same total.
        """
        summary = self.summary()
        if not summary:
            return "hot path: no samples recorded"
        rows = sorted(summary.items(), key=lambda kv: -kv[1]["total_s"])
        # Nested spans (plan.*) run inside the serving stages; counting
        # them in the total would understate every share.
        total = sum(stats["total_s"] for name, stats in rows
                    if not name.startswith(NESTED_PREFIX))
        width = max(len(name) for name, _ in rows)
        lines = [f"{'stage'.ljust(width)}  {'count':>6}  {'total':>9}  "
                 f"{'mean':>9}  {'p50':>9}  {'share':>6}"]
        for name, stats in rows:
            share = stats["total_s"] / total if total else 0.0
            lines.append(
                f"{name.ljust(width)}  {stats['count']:>6d}  "
                f"{stats['total_s'] * 1e3:>7.2f}ms  "
                f"{stats['mean_s'] * 1e6:>7.1f}us  "
                f"{stats['p50_s'] * 1e6:>7.1f}us  {share:>6.1%}")
        return "\n".join(lines)
