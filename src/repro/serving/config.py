"""Serving configuration: one dataclass, mirrored onto ``serve`` CLI flags.

:class:`ServeConfig` is to :class:`~repro.serving.StreamingService` what
:class:`~repro.eval.RunConfig` is to the experiment runner — every knob a
serving deployment tunes lives here with a documented default, and
``python -m repro serve`` maps flags onto fields one-to-one instead of
growing ad-hoc kwargs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ServeConfig", "SHED_POLICIES"]

#: Admission-control policies when a queue bound is hit (see
#: :meth:`StreamingService.submit`):
#:
#: - ``"reject"`` — shed the *incoming* request immediately;
#: - ``"oldest"`` — displace the oldest pending request of the same
#:   tenant to admit the newer one (freshness beats age on streams), and
#:   shed the incoming request only if the global bound is still hit;
#: - ``"block"`` — apply backpressure: the submitter waits for capacity
#:   (per-tenant arrival order is preserved while waiting).
SHED_POLICIES = ("reject", "oldest", "block")


@dataclass
class ServeConfig:
    """Knobs for one multi-tenant serving deployment."""

    #: Resident-session bound: at most this many tenants hold a live
    #: estimator; the LRU tail checkpoints out through the registry's
    #: store when a colder tenant must make room for a hotter one.
    max_active_tenants: int = 64
    #: Rows coalesced into one :class:`~repro.data.stream.Batch` before a
    #: tenant's pending requests dispatch (count-based flush).
    microbatch_size: int = 32
    #: Seconds a partial micro-batch may age before it dispatches anyway
    #: (latency bound for cold tenants that never fill a batch).
    microbatch_timeout_s: float = 0.05
    #: Queue-full policy: one of :data:`SHED_POLICIES`.
    shed_policy: str = "reject"
    #: Per-tenant bound on pending (queued, not yet processed) requests.
    max_pending_per_tenant: int = 64
    #: Global bound on pending requests across every tenant.
    max_pending_total: int = 4096
    #: Consecutive per-tenant processing failures that open the tenant's
    #: serving circuit (further submits shed with ``"circuit-open"``).
    breaker_threshold: int = 3
    #: Processed micro-batches an open tenant circuit blocks admission.
    breaker_cooldown: int = 50
    #: Optional load-shedding-to-degrade coupling: when the global pending
    #: fraction rises above this watermark, resident estimators flip into
    #: graceful degradation (``set_degrade(True)``); they flip back below
    #: :attr:`degrade_low_watermark`.  ``None`` disables the coupling.
    degrade_high_watermark: float | None = None
    #: Hysteresis floor for :attr:`degrade_high_watermark`.
    degrade_low_watermark: float = 0.25
    #: Label serving metrics per tenant.  Off by default: with 10k tenants
    #: per-tenant label cardinality would swamp the metrics registry, so
    #: aggregate counters + events carry the per-tenant story instead.
    tenant_metrics: bool = False
    #: Keyword arguments for each tenant's :class:`~repro.core.learner.
    #: Learner` (the registry's default estimator factory).
    learner_kwargs: dict = field(default_factory=dict)
    #: Co-schedule same-architecture tenants' ready micro-batches through
    #: one stacked tensor program (:mod:`repro.nn.stacked`).  Requires
    #: stackable estimators (e.g. :class:`~repro.serving.ModelEstimator`);
    #: everything else falls back to the serial per-tenant path.  This is
    #: the one switch for stacked serving, and it is bitwise-equivalent to
    #: serial execution per tenant (docs/SERVING.md, "Stacked execution").
    stacked_execution: bool = False
    #: Minimum same-key micro-batches worth stacking in one dispatch
    #: round; smaller groups run serially (stacking one model only adds
    #: overhead).
    stacked_min_group: int = 2

    def __post_init__(self):
        if self.max_active_tenants < 1:
            raise ValueError(
                f"max_active_tenants must be >= 1; got "
                f"{self.max_active_tenants}"
            )
        if self.microbatch_size < 1:
            raise ValueError(
                f"microbatch_size must be >= 1; got {self.microbatch_size}"
            )
        if self.microbatch_timeout_s <= 0:
            raise ValueError(
                f"microbatch_timeout_s must be > 0; got "
                f"{self.microbatch_timeout_s}"
            )
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"shed_policy must be one of {SHED_POLICIES}; got "
                f"{self.shed_policy!r}"
            )
        if self.max_pending_per_tenant < 1:
            raise ValueError(
                f"max_pending_per_tenant must be >= 1; got "
                f"{self.max_pending_per_tenant}"
            )
        if self.max_pending_total < self.max_pending_per_tenant:
            raise ValueError(
                "max_pending_total must be >= max_pending_per_tenant; got "
                f"{self.max_pending_total} < {self.max_pending_per_tenant}"
            )
        if (self.degrade_high_watermark is not None
                and not 0.0 < self.degrade_high_watermark <= 1.0):
            raise ValueError(
                "degrade_high_watermark must be in (0, 1]; got "
                f"{self.degrade_high_watermark}"
            )
        if (self.degrade_high_watermark is not None
                and not 0.0 <= self.degrade_low_watermark
                < self.degrade_high_watermark):
            raise ValueError(
                "degrade_low_watermark must be in [0, high); got "
                f"{self.degrade_low_watermark}"
            )
        if self.stacked_min_group < 2:
            raise ValueError(
                f"stacked_min_group must be >= 2; got "
                f"{self.stacked_min_group}"
            )
