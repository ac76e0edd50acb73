"""The FreewayML ``Learner`` (paper Section V, Figure 8).

Ties the whole pipeline together: the pattern classifier assesses each
batch's shift, the strategy selector picks exactly one mechanism for
inference (multi-granularity ensemble, coherent experience clustering, or
historical knowledge reuse), and every labeled batch updates the
multi-granularity models, feeds the experience buffer, and — at each ASW
completion — preserves knowledge gated by window disorder.

The paper's constructor reads::

    SML = Learner(Model=model, ModelNum=2, MiniBatch=1024,
                  KdgBuffer=20, ExpBuffer=10, alpha=1.96)

:meth:`Learner.from_paper_config` maps those names onto the native
snake_case parameters; the native constructor uses explicit keyword-only
Python parameters.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from ..analysis.checkpoint import CheckpointIncompatibleError
from ..api import BaseReport
from ..data.stream import Batch
from ..models.base import StreamingModel
from ..nn import plan as _nn_plan
from ..perf.pool import POOL
from ..obs import (
    NULL_OBS,
    CircuitOpened,
    DegradedMode,
    KnowledgeReused,
    Observability,
    ShiftAssessed,
    StrategySelected,
)
from ..resilience.degrade import CircuitBreaker
from ..shift.patterns import PatternClassifier, ShiftAssessment, ShiftPattern
from ..shift.severity import SeverityTracker
from .cec import CoherentExperienceClustering, ExperienceBuffer
from .knowledge import KnowledgeStore
from .multigranularity import MultiGranularityEnsemble
from .rate import RateAwareAdjuster
from .selector import Strategy, StrategyDecision, StrategySelector

__all__ = ["Learner", "PredictionResult", "BatchReport"]

_UNSET = object()  # sentinel distinguishing "not passed" from None


class _NullStage:
    """Zero-cost stand-in for a profiler scope (:meth:`HotPathProfiler.stage`,
    the plan-event scope) when profiling is off — entering/exiting does
    nothing."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_STAGE = _NullStage()


@dataclass
class PredictionResult:
    """Inference output plus the routing decision that produced it."""

    labels: np.ndarray
    proba: np.ndarray
    decision: StrategyDecision
    assessment: ShiftAssessment
    reused_batch: int | None = None  # knowledge origin, if reuse fired


@dataclass(kw_only=True)
class BatchReport(BaseReport):
    """Per-batch record emitted by :meth:`Learner.process`.

    Extends :class:`~repro.api.BaseReport` (``batch_index``, ``num_items``,
    ``strategy``, ``accuracy``, ``latency_s``) with the single-learner
    pipeline detail; ``latency_s`` defaults to predict + update time.
    """

    kind = "batch"

    pattern: str = "unknown"
    fallback: bool = False
    loss: float | None = None
    predict_seconds: float = 0.0
    update_seconds: float = 0.0
    reused_batch: int | None = None
    skipped_inference: bool = False

    def __post_init__(self):
        if not self.latency_s:
            self.latency_s = self.predict_seconds + self.update_seconds


class Learner:
    """Adaptive, stable streaming learner — the FreewayML public API.

    Parameters
    ----------
    model_factory:
        Zero-argument callable returning a fresh
        :class:`~repro.models.base.StreamingModel`; one copy is created per
        granularity level (they must share an architecture so checkpoints
        are interchangeable).
    num_models:
        Number of granularity levels (the paper's ``ModelNum``); sizes
        follow the ladder ``1, window_batches, 4*window_batches, ...``.
    window_batches:
        ASW capacity (in batches) of the first long-granularity level.
    alpha:
        Severity threshold for the pattern classifier (paper default 1.96).
    beta:
        Disorder threshold gating knowledge preservation.
    knowledge_capacity:
        ``KdgBuffer`` — max knowledge entries held in memory.
    experience_expiration:
        ``ExpBuffer`` — labeled experience older than this many batches
        expires.
    experience_per_batch / experience_capacity / cec_points:
        Experience-buffer sizing and the ``m`` points mixed into each CEC
        call.
    featurizer:
        Optional frozen encoder (images → features).  The paper's appendix
        uses it in front of coherent experience clustering; here it also
        feeds the shift PCA, so detection, knowledge matching, and window
        embeddings all live in feature space rather than pixel space —
        raw-pixel embeddings make distribution matching unreliable.
    warm_start_on_reuse:
        When knowledge reuse fires, also load the matched parameters into
        the short-granularity model so training continues from the
        restored state (this is what makes reuse pay off beyond the single
        batch).
    warmup_points:
        Points before the shift PCA fits; the default fits on the first
        batch so every embedding lives in one space.
    use_confidence_channel:
        The paper's detector is purely distribution-based (Eqs. 2–10) and
        therefore blind to *concept-only* drift, where ``P(x)`` is constant
        but ``P(y|x)`` changes (Hyperplane, SEA).  This label-free channel
        tracks the short model's predictive confidence and escalates a
        slight-looking batch to a sudden shift when confidence craters
        (z-score above ``alpha``).  Documented deviation — disable to get
        the paper's literal detector.
    use_precompute:
        Enable the pre-computing window (paper Section V-B): long-level
        batch gradients are banked on arrival so the window-completion
        update only aggregates, minimizing completion latency at the cost
        of the multi-epoch decayed-window training.
    adjuster:
        Optional :class:`~repro.core.rate.RateAwareAdjuster`; absent means
        never throttle.
    degrade:
        Graceful degradation: a mechanism that raises during inference or
        training downgrades along the fixed fallback chain (knowledge
        reuse → CEC → multi-granularity → short model) with a
        :class:`~repro.obs.DegradedMode` event instead of propagating,
        and non-finite input features are sanitized on entry.  A
        per-mechanism :class:`~repro.resilience.CircuitBreaker` stops
        retrying a mechanism after ``breaker_threshold`` consecutive
        failures until ``breaker_cooldown`` batches elapse.  Off by
        default: fail-fast is the right posture for development.
    breaker_threshold / breaker_cooldown:
        Circuit-breaker tuning (only meaningful with ``degrade=True``).
    spill_dir:
        Directory for knowledge spilled out of memory.
    seed:
        Seeds window subsampling and clustering.
    obs:
        Optional :class:`~repro.obs.Observability` facade threaded through
        every component: prediction and update run inside spans, routing
        decisions emit :class:`~repro.obs.ShiftAssessed` /
        :class:`~repro.obs.StrategySelected` /
        :class:`~repro.obs.KnowledgeReused` events, and the registry
        accumulates per-strategy latency histograms.  The default is the
        shared disabled facade, whose cost on the hot path is one attribute
        check per instrumentation site.
    profiler:
        Optional :class:`~repro.perf.HotPathProfiler`.  When set, the
        serving loop's stages (``assess``, ``select``, ``infer``,
        ``train``, ``experience``, ``preserve``) are timed individually;
        ``python -m repro run --profile`` prints the breakdown, and with
        an enabled ``obs`` each sample also feeds the
        ``freeway_hot_path_seconds{stage}`` histogram.  Plan-cache events
        raised inside this learner's ``predict``/``update`` land on it as
        ``plan.*`` rows; other learners' events never do.  ``None`` (the
        default) costs one attribute check per stage.
    """

    def __init__(self, model_factory, *, num_models: int = 2,
                 window_batches: int = 8, alpha: float = 1.96,
                 beta: float = 0.35, knowledge_capacity: int = 20,
                 experience_expiration: int = 10,
                 experience_per_batch: int = 128,
                 experience_capacity: int = 2048, cec_points: int = 64,
                 featurizer=None, warm_start_on_reuse: bool = True,
                 warmup_points: int = 2, pca_components: int = 2,
                 representation: str = "mean",
                 use_confidence_channel: bool = True,
                 confidence_margin: float = 0.25,
                 use_precompute: bool = False,
                 adjuster: RateAwareAdjuster | None = None,
                 degrade: bool = False, breaker_threshold: int = 3,
                 breaker_cooldown: int = 10,
                 spill_dir=None, seed: int = 0,
                 obs: Observability | None = None,
                 profiler=None):
        if num_models < 1:
            raise ValueError(f"num_models must be >= 1; got {num_models}")
        template = model_factory()
        if not isinstance(template, StreamingModel):
            raise TypeError(
                f"model_factory must produce a StreamingModel; got "
                f"{type(template).__name__}"
            )
        self.num_classes = template.num_classes
        self.obs = obs if obs is not None else NULL_OBS
        self.profiler = profiler

        sizes = [1] + [window_batches * (4 ** i) for i in range(num_models - 1)]
        self.ensemble = MultiGranularityEnsemble(
            model_factory, window_sizes=tuple(sizes),
            precompute=use_precompute, seed=seed, obs=self.obs,
        )
        self.classifier = PatternClassifier(
            alpha=alpha, num_components=pca_components,
            warmup_points=warmup_points, representation=representation,
            obs=self.obs,
        )
        self.selector = StrategySelector(obs=self.obs)
        self.experience = ExperienceBuffer(
            capacity=experience_capacity, per_batch=experience_per_batch,
            expiration=experience_expiration,
        )
        self.cec = CoherentExperienceClustering(
            self.num_classes, experience_points=cec_points,
            featurizer=featurizer, seed=seed, obs=self.obs,
        )
        self.knowledge = KnowledgeStore(capacity=knowledge_capacity,
                                        beta=beta, spill_dir=spill_dir,
                                        obs=self.obs)
        self.adjuster = adjuster
        self.degrade = bool(degrade)
        # Remembered so set_degrade(True) can build the breaker lazily
        # (pre-emptive degrade from the SLO engine mid-run).
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown = breaker_cooldown
        self.breaker = (CircuitBreaker(threshold=breaker_threshold,
                                       cooldown=breaker_cooldown)
                        if degrade else None)
        self.featurizer = featurizer
        self.warm_start_on_reuse = warm_start_on_reuse
        self.use_confidence_channel = use_confidence_channel
        self.confidence_margin = confidence_margin
        self.alpha = alpha
        self._confidence = SeverityTracker(window=20, decay=0.9)
        self._errors = SeverityTracker(window=20, decay=0.9)
        self._concept_alert = False
        self._pending_reuse = None
        self._scratch = model_factory()  # restoration target for reuse
        self._batch_counter = 0
        self._processed = 0
        self._strategy_counts: Counter = Counter()
        self._current_index: int | None = None  # stream position, if known

    # -- constructor matching the paper's interface ------------------------------

    @classmethod
    def from_paper_config(cls, model=_UNSET, *, num_models=_UNSET,
                          mini_batch=_UNSET, knowledge_capacity=_UNSET,
                          experience_expiration=_UNSET, alpha: float = 1.96,
                          **kwargs) -> "Learner":
        """Construct from the paper's configuration.

        ``model`` is a template :class:`StreamingModel` (cloned per level)
        or a factory.  ``mini_batch`` is accepted for interface fidelity;
        batch size is determined by the stream itself.  Parameter names are
        the canonical snake_case spellings — the paper's CamelCase aliases
        (``Model``, ``ModelNum``, ...) were removed after their one-release
        deprecation window and now raise :class:`TypeError` like any other
        unknown keyword.
        """
        canonical = {
            "model": model,
            "num_models": num_models,
            "mini_batch": mini_batch,
            "knowledge_capacity": knowledge_capacity,
            "experience_expiration": experience_expiration,
        }
        defaults = {"num_models": 2, "mini_batch": 1024,
                    "knowledge_capacity": 20, "experience_expiration": 10}
        for name, value in defaults.items():
            if canonical[name] is _UNSET:
                canonical[name] = value
        if canonical["model"] is _UNSET:
            raise TypeError(
                "from_paper_config requires a model (a StreamingModel "
                "template or a factory)"
            )
        template = canonical["model"]
        if isinstance(template, StreamingModel):
            factory = template.clone
        else:
            factory = template
        return cls(factory, num_models=canonical["num_models"],
                   knowledge_capacity=canonical["knowledge_capacity"],
                   experience_expiration=canonical["experience_expiration"],
                   alpha=alpha, **kwargs)

    # -- inference ----------------------------------------------------------------

    def _stage(self, name: str):
        """Profiler span for one hot-path stage (no-op without a profiler)."""
        profiler = self.profiler
        return _NULL_STAGE if profiler is None else profiler.stage(name)

    def _plan_events(self):
        """Scope sending the plan-cache events this learner's models raise
        (capture/replay spans, the freeway_plan_cache counter) to its
        profiler, and no other learner's (no-op without a profiler)."""
        profiler = self.profiler
        return (_NULL_STAGE if profiler is None
                else _nn_plan.observing(profiler.observe_plan_event))

    def predict(self, x: np.ndarray) -> PredictionResult:
        """Classify the shift, select one strategy, and answer with it."""
        with self._plan_events(), self.obs.tracer.span(
                "learner.predict", batch=self._event_index()) as span:
            # A reuse match is only valid for the batch it was found on; drop
            # any leftover from a predict whose labels never arrived.
            self._pending_reuse = None
            if self.degrade:
                x = self._sanitize_input(x)
            with self._stage("assess"):
                assessment = self.classifier.assess(self._shift_view(x))
                raw_pattern = assessment.pattern
                assessment = self._apply_confidence_channel(x, assessment)
            with self._stage("select"):
                decision = self.selector.select(
                    assessment,
                    knowledge_available=len(self.knowledge) > 0,
                    experience_available=len(self.experience) > 0,
                    ensemble_trained=self.ensemble.trained,
                )
            with self._stage("infer"):
                if self.degrade:
                    result, decision = self._dispatch_degraded(
                        x, assessment, decision
                    )
                else:
                    result, decision = self._dispatch(x, assessment, decision)
            span.set(strategy=decision.strategy.value,
                     pattern=assessment.pattern.value)
        if self.obs.enabled:
            self._emit_routing_events(assessment, decision, raw_pattern)
        return result

    def _dispatch(self, x, assessment, decision):
        """Route one inference through the selected mechanism (fail-fast)."""
        result = None
        if decision.strategy is Strategy.KNOWLEDGE_REUSE:
            with self.obs.tracer.span("learner.infer.knowledge"):
                outcome = self._predict_with_knowledge(
                    x, assessment, decision
                )
            if isinstance(outcome, PredictionResult):
                result = outcome
            else:
                decision = self._downgrade_reuse(assessment, reason=outcome)
        if result is None:
            if decision.strategy is Strategy.CEC:
                result = self._predict_with_cec(x, assessment, decision)
            else:
                with self.obs.tracer.span("learner.infer.ensemble"):
                    result = self._predict_with_ensemble(
                        x, assessment, decision
                    )
        return result, decision

    # -- graceful degradation -------------------------------------------------

    def _sanitize_input(self, x: np.ndarray) -> np.ndarray:
        """Replace non-finite feature cells with zeros (degrade mode only).

        :class:`~repro.data.stream.Batch` rejects non-finite features, but
        a dirty upstream producer (or the :class:`~repro.resilience.faults.
        DirtyData` injector) can still smuggle them in; in degrade mode
        they are absorbed here rather than poisoning every mechanism.
        """
        x = np.asarray(x)
        if np.isfinite(x).all():
            return x
        dirty_cells = int(x.size - np.isfinite(x).sum())
        clean = np.nan_to_num(np.asarray(x, dtype=float),
                              nan=0.0, posinf=0.0, neginf=0.0)
        if self.obs.enabled:
            self.obs.emit(DegradedMode(
                batch=self._event_index(), mechanism="input",
                fallback="sanitize",
                reason=f"{dirty_cells} non-finite feature cells",
            ))
            self.obs.registry.counter(
                "freeway_degraded_total",
                "failures absorbed by graceful degradation",
            ).labels(mechanism="input").inc()
        return clean

    def _mechanism_failed(self, mechanism: str, exc: Exception,
                          fallback: str) -> None:
        """Record one mechanism failure: breaker count + DegradedMode."""
        opened = self.breaker.record_failure(mechanism)
        if self.obs.enabled:
            self.obs.emit(DegradedMode(
                batch=self._event_index(), mechanism=mechanism,
                fallback=fallback,
                reason=f"{type(exc).__name__}: {exc}",
            ))
            self.obs.registry.counter(
                "freeway_degraded_total",
                "failures absorbed by graceful degradation",
            ).labels(mechanism=mechanism).inc()
            if opened:
                self.obs.emit(CircuitOpened(
                    mechanism=mechanism, failures=self.breaker.threshold,
                    cooldown=self.breaker.cooldown,
                ))

    def _dispatch_degraded(self, x, assessment, decision):
        """Route one inference with every mechanism guarded.

        The fallback chain is fixed: knowledge reuse → CEC →
        multi-granularity ensemble → sanitized short model → uniform.  A
        mechanism that raises (or whose circuit is open) downgrades to the
        next link with ``fallback=True``; nothing propagates.
        """
        self.breaker.tick()
        if decision.strategy is Strategy.KNOWLEDGE_REUSE:
            if not self.breaker.allow("knowledge_reuse"):
                decision = self._downgrade_reuse(
                    assessment, reason="knowledge_reuse circuit open"
                )
            else:
                try:
                    with self.obs.tracer.span("learner.infer.knowledge"):
                        outcome = self._predict_with_knowledge(
                            x, assessment, decision
                        )
                except Exception as exc:  # repro: noqa[REP004] — degraded
                    self._pending_reuse = None
                    self._mechanism_failed("knowledge_reuse", exc,
                                           fallback="cec")
                    decision = self._downgrade_reuse(
                        assessment,
                        reason=f"knowledge_reuse raised "
                               f"{type(exc).__name__}",
                    )
                else:
                    if isinstance(outcome, PredictionResult):
                        self.breaker.record_success("knowledge_reuse")
                        return outcome, decision
                    decision = self._downgrade_reuse(assessment,
                                                     reason=outcome)
        if decision.strategy is Strategy.CEC:
            if not self.breaker.allow("cec"):
                decision = StrategyDecision(
                    Strategy.MULTI_GRANULARITY, assessment.pattern,
                    fallback=True, reason="cec circuit open",
                )
            else:
                try:
                    result = self._predict_with_cec(x, assessment, decision)
                except Exception as exc:  # repro: noqa[REP004] — degraded
                    self._mechanism_failed("cec", exc,
                                           fallback="multi_granularity")
                    decision = StrategyDecision(
                        Strategy.MULTI_GRANULARITY, assessment.pattern,
                        fallback=True,
                        reason=f"cec raised {type(exc).__name__}",
                    )
                else:
                    self.breaker.record_success("cec")
                    return result, decision
        if not self.breaker.allow("multi_granularity"):
            decision = StrategyDecision(
                Strategy.MULTI_GRANULARITY, assessment.pattern,
                fallback=True, reason="multi_granularity circuit open",
            )
            return self._predict_with_short(x, assessment, decision), decision
        try:
            with self.obs.tracer.span("learner.infer.ensemble"):
                result = self._predict_with_ensemble(x, assessment, decision)
        except Exception as exc:  # repro: noqa[REP004] — degraded
            self._mechanism_failed("multi_granularity", exc,
                                   fallback="short_model")
            decision = StrategyDecision(
                Strategy.MULTI_GRANULARITY, assessment.pattern,
                fallback=True,
                reason=f"multi_granularity raised {type(exc).__name__}",
            )
            result = self._predict_with_short(x, assessment, decision)
        else:
            self.breaker.record_success("multi_granularity")
        return result, decision

    def _predict_with_short(self, x, assessment, decision) -> PredictionResult:
        """Last link of the fallback chain: sanitized short model, then a
        uniform distribution — this method cannot raise."""
        uniform = 1.0 / self.num_classes
        try:
            short = self.ensemble.short_level
            clean = np.nan_to_num(np.asarray(x, dtype=float))
            if not short.trained:
                raise RuntimeError("short model untrained")
            proba = short.model.predict_proba(clean)
        except Exception:  # repro: noqa[REP004] — uniform is the floor
            proba = np.full((len(x), self.num_classes), uniform)
        proba = np.nan_to_num(np.asarray(proba, dtype=float), nan=uniform)
        return PredictionResult(labels=proba.argmax(axis=1), proba=proba,
                                decision=decision, assessment=assessment)

    def _event_index(self) -> int:
        """Stream position for emitted events: the index of the batch being
        processed when known, the update counter for standalone calls."""
        if self._current_index is not None:
            return self._current_index
        return self._batch_counter

    def _emit_routing_events(self, assessment: ShiftAssessment,
                             decision: StrategyDecision,
                             raw_pattern: ShiftPattern) -> None:
        index = self._event_index()
        self.obs.emit(ShiftAssessed(
            batch=index,
            pattern=assessment.pattern.value,
            distance=assessment.distance,
            severity=assessment.severity,
            historical_distance=assessment.historical_distance,
            escalated=assessment.pattern is not raw_pattern,
        ))
        self.obs.emit(StrategySelected(
            batch=index,
            strategy=decision.strategy.value,
            pattern=decision.pattern.value,
            fallback=decision.fallback,
            reason=decision.reason,
        ))

    def _shift_view(self, x: np.ndarray) -> np.ndarray:
        """The representation shift analysis runs on (features if a frozen
        encoder is configured, raw inputs otherwise)."""
        if self.featurizer is None:
            return x
        return self.featurizer(np.asarray(x))

    def _apply_confidence_channel(self, x, assessment: ShiftAssessment
                                  ) -> ShiftAssessment:
        """Escalate to SUDDEN when model confidence craters (concept drift).

        Label-free: uses only the short model's mean top-class probability.
        See the constructor docstring for why this exists.
        """
        if not self.use_confidence_channel:
            return assessment
        short = self.ensemble.short_level
        if not short.trained:
            return assessment
        # The error channel (see update()) raised a standing alert: the
        # resident model is cratering on labeled batches, so treat the
        # stream as mid-sudden-shift until it recovers.
        if (self._concept_alert
                and assessment.pattern is ShiftPattern.SLIGHT):
            return replace(assessment, pattern=ShiftPattern.SUDDEN)
        deficit = 1.0 - float(short.model.predict_proba(x).max(axis=1).mean())
        z_score = self._confidence.score(deficit)
        jump = (deficit - self._confidence.weighted_mean()
                if self._confidence.ready else 0.0)
        self._confidence.observe(deficit)
        # Escalate only on a *cratering* drop: statistically extreme AND a
        # large absolute move.  Gradual drift produces small dips that the
        # ensemble handles better than clustering would.
        if (z_score is not None and z_score > self.alpha
                and jump > self.confidence_margin
                and assessment.pattern is ShiftPattern.SLIGHT):
            return replace(assessment, pattern=ShiftPattern.SUDDEN,
                           severity=z_score)
        return assessment

    def _predict_with_ensemble(self, x, assessment, decision) -> PredictionResult:
        if assessment.embedding is not None and self.ensemble.trained:
            proba = self.ensemble.predict_proba(x, assessment.embedding)
        elif self.ensemble.trained:
            proba = self.ensemble.short_level.model.predict_proba(x)
        else:
            proba = np.full((len(x), self.num_classes), 1.0 / self.num_classes)
        return PredictionResult(labels=proba.argmax(axis=1), proba=proba,
                                decision=decision, assessment=assessment)

    def _predict_with_cec(self, x, assessment, decision) -> PredictionResult:
        result = self.cec.predict(x, self.experience,
                                  batch=self._event_index())
        return PredictionResult(labels=result.labels, proba=result.proba,
                                decision=decision, assessment=assessment)

    def _predict_with_knowledge(self, x, assessment, decision):
        # A genuine reoccurrence lands *within* a previously seen
        # distribution, so the match distance must look like an ordinary
        # slight shift — not merely be smaller than an outlier d_t.
        ceiling = assessment.distance
        severity = self.classifier.severity
        if severity.ready:
            slight_scale = severity.weighted_mean() + severity.std()
            ceiling = min(ceiling, slight_scale) if ceiling is not None else slight_scale
        match = self.knowledge.match(assessment.embedding,
                                     current_shift=ceiling)
        if match is None:
            return "no knowledge match"
        try:
            self.knowledge.restore(match.entry, self._scratch)
        except CheckpointIncompatibleError:
            # The store already emitted CheckpointRejected; the severe
            # shift falls through to CEC / the ensemble.
            return "incompatible knowledge"
        proba = self._scratch.predict_proba(x)
        # Warm-starting the resident models from this match is decided at
        # update time, when the batch's labels arrive and the matched
        # knowledge can be *verified* against the resident model — see
        # update().  Prediction itself trusts the distance match, as the
        # paper specifies.
        if self.warm_start_on_reuse:
            self._pending_reuse = match
        if self.obs.enabled:
            self.obs.emit(KnowledgeReused(
                batch=self._event_index(),
                origin_batch=match.entry.batch_index,
                match_distance=match.distance,
                model_kind=match.entry.model_kind,
            ))
            self.obs.registry.counter(
                "freeway_knowledge_reused_total",
                "batches answered from preserved knowledge",
            ).inc()
        return PredictionResult(labels=proba.argmax(axis=1), proba=proba,
                                decision=decision, assessment=assessment,
                                reused_batch=match.entry.batch_index)

    def _downgrade_reuse(self, assessment, reason: str) -> StrategyDecision:
        """No stored distribution matched — the severe shift is genuinely
        unfamiliar, so CEC is the next refuge (ensemble if no experience)."""
        if not len(self.experience):
            return StrategyDecision(Strategy.MULTI_GRANULARITY,
                                    assessment.pattern, fallback=True,
                                    reason=reason)
        return StrategyDecision(Strategy.CEC, assessment.pattern,
                                fallback=True, reason=reason)

    # -- training -------------------------------------------------------------------

    def update(self, x: np.ndarray, y: np.ndarray,
               embedding: np.ndarray | None = None) -> float | None:
        """Incrementally train on a labeled batch (the training stream).

        Returns the short-granularity training loss.  ``embedding`` can be
        supplied when the caller already assessed this batch (avoiding a
        second PCA projection); otherwise it is computed here.
        """
        with self._plan_events(), self.obs.tracer.span(
                "learner.update", batch=self._event_index()):
            if self.degrade:
                x = self._sanitize_input(x)
            if embedding is None:
                view = self._shift_view(x)
                if not self.classifier.pca.is_fitted:
                    self.classifier.pca.observe(view)
                if self.classifier.pca.is_fitted:
                    embedding = self.classifier.pca.batch_embedding(view)
                else:  # still warming up: use the raw projected-less mean
                    embedding = np.asarray(view, dtype=float).reshape(
                        len(view), -1).mean(axis=0)

            self._verify_pending_reuse(x, y)
            self._observe_errors(x, y)
            with self._stage("train"):
                if self.degrade:
                    infos = self._update_degraded(x, y, embedding)
                else:
                    infos = self.ensemble.update(x, y, embedding)
            with self._stage("experience"):
                self.experience.add(x, y)
            self._batch_counter += 1
            if infos is None:  # degraded update skipped training
                return None
            with self._stage("preserve"):
                self._maybe_preserve(infos, embedding)
            short_info = infos[self._short_index()]
            return short_info.get("loss")

    def _update_degraded(self, x, y, embedding):
        """ASW training guarded by the breaker: ``None`` means skipped."""
        if not self.breaker.allow("asw_train"):
            return None
        try:
            infos = self.ensemble.update(x, y, embedding)
        except Exception as exc:  # repro: noqa[REP004] — degraded
            self._mechanism_failed("asw_train", exc, fallback="skip_update")
            return None
        self.breaker.record_success("asw_train")
        return infos

    def _verify_pending_reuse(self, x: np.ndarray, y: np.ndarray) -> None:
        """Labeled verification of a knowledge match (prequential labels
        arrive at training time).

        The matched parameters replace every granularity level only when
        they actually outperform the resident short model on this batch —
        this is what lets reuse pay off after a genuine reoccurrence while
        a spurious distance match (possible on streams whose feature
        shifts are pure noise) cannot poison the resident models.
        """
        match, self._pending_reuse = self._pending_reuse, None
        if match is None:
            return
        try:
            self.knowledge.restore(match.entry, self._scratch)
        except CheckpointIncompatibleError:
            return  # blocked restore: leave the resident models untouched
        scratch_accuracy = float((self._scratch.predict(x) == y).mean())
        resident = self.ensemble.short_level
        resident_accuracy = (
            float((resident.model.predict(x) == y).mean())
            if resident.trained else 0.0
        )
        if scratch_accuracy > resident_accuracy:
            for level in self.ensemble.levels:
                level.model.load_state_dict(match.entry.state)

    def _observe_errors(self, x: np.ndarray, y: np.ndarray) -> None:
        """Labeled error channel: raise/clear the concept-drift alert.

        The distribution detector (Eqs. 2–10) cannot see concept-only
        drift (``P(x)`` constant, ``P(y|x)`` changed).  The resident short
        model's error rate on each labeled batch can: a statistically
        extreme error spike raises a standing alert that escalates
        subsequent slight-looking batches to sudden (routing them to CEC)
        until the error normalizes.  Documented deviation from the paper's
        purely distribution-based detector.
        """
        if not self.use_confidence_channel:
            return
        short = self.ensemble.short_level
        if not short.trained:
            return
        error = float((short.model.predict(x) != y).mean())
        if self._concept_alert:
            if (self._errors.ready and error
                    <= self._errors.weighted_mean() + self.confidence_margin):
                self._concept_alert = False
                self._errors.observe(error)
            return  # error still elevated: keep the alert, don't pollute stats
        z_score = self._errors.score(error)
        jump = (error - self._errors.weighted_mean()
                if self._errors.ready else 0.0)
        if (z_score is not None and z_score > self.alpha
                and jump > self.confidence_margin):
            self._concept_alert = True
        else:
            self._errors.observe(error)

    def _short_index(self) -> int:
        return next(
            index for index, level in enumerate(self.ensemble.levels)
            if level.is_short
        )

    def _maybe_preserve(self, infos: list[dict], embedding: np.ndarray) -> None:
        """Disorder-gated knowledge preservation at each ASW completion."""
        short_level = self.ensemble.short_level
        for level, info in zip(self.ensemble.levels, infos):
            if level.is_short or not info.get("trained"):
                continue
            disorder = info.get("disorder", 0.0)
            long_embedding = level.reference_embedding()
            self.knowledge.preserve_at_window_end(
                disorder=disorder,
                long_embedding=(long_embedding if long_embedding is not None
                                else embedding),
                long_state=level.model.state_dict(),
                short_embedding=embedding,
                short_state=(short_level.model.state_dict()
                             if short_level.trained else None),
                batch_index=self._batch_counter,
            )

    # -- the prequential pipeline -----------------------------------------------------

    def process(self, batch: Batch) -> BatchReport:
        """Prequential step: predict on the batch, then learn from it.

        Unlabeled batches are inference-only.  When a rate adjuster is
        installed and throttling, inference is skipped for strided batches
        (``skipped_inference=True`` in the report).
        """
        window_pressure = 0.0
        long_levels = self.ensemble.long_levels
        if long_levels and long_levels[0].window is not None:
            window = long_levels[0].window
            # +1 accounts for the incoming batch: a window that resets at
            # fullness otherwise never *shows* pressure 1.0.
            window_pressure = min(
                (window.num_batches + 1) / window.max_batches, 1.0
            )
        if self.adjuster is not None:
            self.adjuster.observe(len(batch), window_pressure)
            for level in long_levels:
                if level.window is not None:
                    level.window.decay_boost = self.adjuster.decay_boost
            if not self.adjuster.should_infer(batch.index):
                return self._update_only(batch)

        self._current_index = batch.index
        try:
            if self.degrade and not np.isfinite(batch.x).all():
                # Sanitize once for the whole prequential step, so predict
                # and update see the same repaired features (and only one
                # DegradedMode event is emitted per dirty batch).
                batch = Batch(self._sanitize_input(batch.x), batch.y,
                              index=batch.index, pattern=batch.pattern)
            start = time.perf_counter()
            prediction = self.predict(batch.x)
            predict_seconds = time.perf_counter() - start

            accuracy = None
            if batch.labeled:
                accuracy = float((prediction.labels == batch.y).mean())

            loss = None
            update_seconds = 0.0
            if batch.labeled:
                start = time.perf_counter()
                loss = self.update(batch.x, batch.y,
                                   embedding=prediction.assessment.embedding)
                update_seconds = time.perf_counter() - start
        finally:
            self._current_index = None

        report = BatchReport(
            batch_index=batch.index,
            num_items=len(batch),
            pattern=prediction.assessment.pattern.value,
            strategy=prediction.decision.strategy.value,
            fallback=prediction.decision.fallback,
            accuracy=accuracy,
            loss=loss,
            predict_seconds=predict_seconds,
            update_seconds=update_seconds,
            reused_batch=prediction.reused_batch,
        )
        self._processed += 1
        self._strategy_counts[report.strategy] += 1
        if self.obs.enabled:
            self._record_batch_metrics(report)
        return report

    def _record_batch_metrics(self, report: BatchReport) -> None:
        registry = self.obs.registry
        registry.counter(
            "freeway_batches_total", "batches processed",
        ).labels(strategy=report.strategy).inc()
        registry.counter(
            "freeway_items_total", "items processed",
        ).inc(report.num_items)
        registry.histogram(
            "freeway_predict_seconds", "per-batch inference latency",
        ).labels(strategy=report.strategy).observe(report.predict_seconds)
        if report.accuracy is not None:
            registry.histogram(
                "freeway_update_seconds", "per-batch training latency",
            ).observe(report.update_seconds)
            registry.gauge(
                "freeway_last_batch_accuracy",
                "prequential accuracy of the latest labeled batch",
            ).set(report.accuracy)
        if report.fallback:
            registry.counter(
                "freeway_fallbacks_total", "degraded routing decisions",
            ).inc()
        # The pool is thread-local; this runs on the run-loop thread, which
        # is exactly the one whose scratch buffers matter.
        POOL.publish(registry)

    def _update_only(self, batch: Batch) -> BatchReport:
        loss = None
        update_seconds = 0.0
        if batch.labeled:
            self._current_index = batch.index
            try:
                start = time.perf_counter()
                loss = self.update(batch.x, batch.y)
                update_seconds = time.perf_counter() - start
            finally:
                self._current_index = None
        self._processed += 1
        return BatchReport(
            batch_index=batch.index, num_items=len(batch),
            pattern=ShiftPattern.WARMUP.value,
            strategy=Strategy.MULTI_GRANULARITY.value, fallback=False,
            accuracy=None, loss=loss, predict_seconds=0.0,
            update_seconds=update_seconds, skipped_inference=True,
        )

    def run(self, stream, max_batches: int | None = None) -> list[BatchReport]:
        """Process a stream end to end, returning all batch reports."""
        reports: list[BatchReport] = []
        for batch in stream:
            reports.append(self.process(batch))
            if max_batches is not None and len(reports) >= max_batches:
                break
        return reports

    def set_degrade(self, degrade: bool) -> None:
        """Switch graceful degradation on or off mid-run.

        Turning it on builds the circuit breaker lazily (with the
        constructor's tuning) when none exists yet; turning it off keeps
        the breaker's failure history so a later re-enable resumes where
        it left off.  The live SLO engine uses this for pre-emptive
        degrade: an active alert flips the learner into the fallback
        chain before failures force it there.
        """
        self.degrade = bool(degrade)
        if self.degrade and self.breaker is None:
            self.breaker = CircuitBreaker(threshold=self._breaker_threshold,
                                          cooldown=self._breaker_cooldown)

    # -- lifecycle (StreamingEstimator protocol) -----------------------------------

    def close(self) -> None:
        """Release estimator resources.

        A single in-process learner owns nothing that outlives it, so this
        is a no-op — it exists so the serving session registry (and any
        other holder of a :class:`~repro.api.StreamingEstimator`) can
        retire estimators uniformly; :class:`~repro.distributed.
        DistributedLearner` overrides it to shut its worker pool down.
        Closing is idempotent.
        """

    def __enter__(self) -> "Learner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def summary(self) -> dict:
        """Estimator state as a plain dict (StreamingEstimator protocol)."""
        summary = {
            "estimator": "freewayml",
            "batches_processed": self._processed,
            "updates": self._batch_counter,
            "strategies": dict(self._strategy_counts),
            "knowledge_entries": len(self.knowledge),
            "experience_size": len(self.experience),
            "num_levels": len(self.ensemble.levels),
        }
        if self.degrade:
            summary["breaker"] = self.breaker.snapshot()
        return summary
