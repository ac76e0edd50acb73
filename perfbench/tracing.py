"""Span tracing from outside the program.

The benchmark never edits ``src/``: it replaces public functions and
methods of the program with timing wrappers for the length of one traced
pass and puts the originals back afterwards.  Every wrapper pushes a frame
on one span stack, so a layer's *self time* is its span's duration minus
the time its child spans cover.  The program runs on one thread (the
serving tier is one asyncio loop whose micro-batch compute is
synchronous), so one stack is enough.

:data:`SPANS` maps each wrapped callable to the metric that receives its
self time; the metric's prefix names the layer (the package under
``repro`` the callable lives in).
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

#: (module, attribute path, span name).  Class methods are patched on the
#: class that defines them, so instances built anywhere (registry
#: factories, checkpoint restores) are covered.
SPANS = (
    ("repro.core.learner", "Learner.process", "core.unattributed"),
    ("repro.core.learner", "Learner.predict", "core.predict"),
    ("repro.core.learner", "Learner.update", "core.update"),
    ("repro.core.selector", "StrategySelector.select", "core.select"),
    ("repro.core.multigranularity", "MultiGranularityEnsemble.update",
     "core.ensemble_update"),
    ("repro.core.cec", "CoherentExperienceClustering.predict", "core.cec"),
    ("repro.core.cec", "ExperienceBuffer.add", "core.experience_add"),
    ("repro.core.knowledge", "KnowledgeStore.match", "core.knowledge_match"),
    ("repro.core.knowledge", "KnowledgeStore.restore",
     "core.knowledge_restore"),
    ("repro.core.knowledge", "KnowledgeStore.preserve_at_window_end",
     "core.knowledge_preserve"),
    ("repro.shift.patterns", "PatternClassifier.assess", "shift.assess"),
    ("repro.shift.pca", "WarmupPCA.batch_embedding", "shift.embed"),
    ("repro.models.base", "NeuralStreamingModel.partial_fit", "models.fit"),
    ("repro.models.base", "NeuralStreamingModel.predict_proba",
     "models.proba"),
    ("repro.nn.plan", "fit_with_plan", "nn.plan"),
    ("repro.nn.plan", "proba_with_plan", "nn.plan"),
    ("repro.nn.modules", "Module.__call__", "nn.forward"),
    ("repro.nn.tensor", "Tensor.backward", "nn.backward"),
    ("repro.nn.optim", "SGD.step", "nn.optim"),
    ("repro.nn.optim", "Adam.step", "nn.optim"),
    ("repro.nn.stacked", "ModelStack.predict_proba", "nn.stacked"),
    ("repro.serving.stacked", "stack_models", "nn.stacked"),
    ("repro.serving.stacked", "make_stacked_optimizer", "nn.stacked"),
    ("repro.serving.stacked", "stacked_fit", "nn.stacked"),
    ("repro.serving.stacked", "unstack_models", "nn.stacked"),
    ("repro.serving.registry", "SessionRegistry.acquire", "serving.acquire"),
    ("repro.serving.registry", "MemoryCheckpointStore.save",
     "serving.checkpoint_save"),
    ("repro.serving.registry", "MemoryCheckpointStore.load",
     "serving.checkpoint_load"),
    ("repro.serving.service", "predict_and_update",
     "serving.predict_and_update"),
    ("repro.serving.service", "execute_stacked", "serving.execute_stacked"),
)

LAYERS = ("core", "shift", "models", "nn", "serving")


class Tracer:
    """Installs the :data:`SPANS` wrappers and aggregates their spans.

    ``hooks`` maps a span name to ``hook(args, result, start, end)``,
    called after each span of that name closes; workloads use hooks to
    count outcomes (strategies chosen, bytes checkpointed) and to record
    compute events without a second wrapper.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.self_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self._stack: list = []
        self._patched: list = []

    def __enter__(self) -> "Tracer":
        for module_name, path, name in SPANS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            if parents and attr not in vars(owner):
                raise AttributeError(f"{path} is not defined on its class")
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(original, name))
            self._patched.append((owner, attr, original))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, function, name):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        hook = self.hooks.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self_s[name] += elapsed - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                hook(args, result, start, end)
            return result

        traced.__wrapped__ = function
        return traced

    def snapshot(self) -> tuple[dict, Counter]:
        """Copies of the self-time and call tallies so far."""
        return dict(self.self_s), Counter(self.calls)


def program_counters() -> Counter:
    """The program's own cumulative counters: plan-cache events
    (``plan_cache_stats()``) and this thread's buffer-pool lookups
    (``POOL.stats()``).  Subtract two snapshots to cover a phase."""
    from repro.nn.plan import plan_cache_stats
    from repro.perf import POOL

    plans = plan_cache_stats()
    pool = POOL.stats()
    return Counter({
        "nn.plan.captures": plans.get("capture", 0),
        "nn.plan.replays": plans.get("replay", 0),
        "nn.plan.invalidations": plans.get("invalidate", 0),
        "nn.plan.unsupported": plans.get("unsupported", 0),
        "pool.hits": pool["hits"],
        "pool.misses": pool["misses"],
    })


def counter_metrics(counters: Counter) -> dict:
    """Plan-cache and pool metrics from a counter delta."""
    captures = counters["nn.plan.captures"]
    replays = counters["nn.plan.replays"]
    lookups = counters["pool.hits"] + counters["pool.misses"]
    return {
        "nn.plan.captures": captures,
        "nn.plan.replays": replays,
        "nn.plan.invalidations": counters["nn.plan.invalidations"],
        "nn.plan.unsupported": counters["nn.plan.unsupported"],
        "nn.plan.events": (captures + replays
                           + counters["nn.plan.invalidations"]
                           + counters["nn.plan.unsupported"]),
        "nn.plan.replay_ratio": (replays / (captures + replays)
                                 if captures + replays else 0.0),
        "nn.pool_hit_ratio": counters["pool.hits"] / lookups if lookups
        else 0.0,
    }


class StrategyCounts:
    """Hooks counting FreewayML routing outcomes at the ``core`` spans.

    ``core.strategy.<name>`` counts the strategy that answered each
    ``Learner.predict``; ``core.knowledge_reuse_ratio`` is batches
    answered from reused knowledge over the selector's reuse decisions
    (a decision whose match fails downgrades to CEC or the ensemble).
    """

    STRATEGIES = ("multi_granularity", "cec", "knowledge_reuse")

    def __init__(self):
        self.counts: Counter = Counter()

    def hooks(self) -> dict:
        return {"core.predict": self._predicted,
                "core.select": self._selected}

    def _predicted(self, args, result, start, end) -> None:
        self.counts[result.decision.strategy.value] += 1
        if result.reused_batch is not None:
            self.counts["reused"] += 1

    def _selected(self, args, result, start, end) -> None:
        if result.strategy.value == "knowledge_reuse":
            self.counts["reuse_decisions"] += 1


def strategy_metrics(counts: Counter) -> dict:
    metrics = {f"core.strategy.{name}": counts[name]
               for name in StrategyCounts.STRATEGIES}
    decisions = counts["reuse_decisions"]
    metrics["core.knowledge_reuse_ratio"] = (
        counts["reused"] / decisions if decisions else 0.0)
    return metrics


class Probe:
    """One traced pass: the span tracer, the routing counters and an
    optional workload recorder whose ``hooks()`` join the tracer's."""

    def __init__(self, recorder=None):
        self.strategies = StrategyCounts()
        self.recorder = recorder
        hooks = self.strategies.hooks()
        if recorder is not None:
            hooks.update(recorder.hooks())
        self.tracer = Tracer(hooks)

    def snapshot(self) -> dict:
        self_s, calls = self.tracer.snapshot()
        return {"self_s": self_s, "calls": calls,
                "strategies": Counter(self.strategies.counts),
                "counters": program_counters()}


def probe_metrics(state: dict, counters_before: Counter,
                  wall_s: float) -> dict:
    """Every generic per-layer metric from a :meth:`Probe.snapshot`."""
    metrics = layer_metrics(state["self_s"], state["calls"], wall_s)
    metrics.update(counter_metrics(state["counters"] - counters_before))
    metrics.update(strategy_metrics(state["strategies"]))
    return metrics


def layer_metrics(self_s: dict, calls: Counter, wall_s: float) -> dict:
    """Per-span self times, per-layer totals and the unattributed residual.

    ``unattributed_s`` is the timed wall time no span covers: the
    benchmark's own loop plus any program code outside the wrapped
    callables (the serving event loop, admission and dispatch).
    """
    metrics = {f"{name}_s": seconds for name, seconds in self_s.items()}
    for layer in LAYERS:
        prefix = layer + "."
        metrics[f"{layer}.self_s"] = sum(
            seconds for name, seconds in self_s.items()
            if name.startswith(prefix))
        metrics[f"{layer}.calls"] = sum(
            count for name, count in calls.items()
            if name.startswith(prefix))
    metrics["models.fit_calls"] = calls.get("models.fit", 0)
    metrics["models.proba_calls"] = calls.get("models.proba", 0)
    metrics["unattributed_s"] = wall_s - sum(self_s.values())
    return metrics
