"""Feature flags for the hot-path optimizations.

Every optimization in the perf pass is individually switchable so that

- equivalence tests can assert the optimized and reference paths produce
  bitwise-identical results (``with optimizations_disabled(): ...``),
- the regression bench can measure before/after on the same build, and
- a single misbehaving optimization can be turned off in the field
  without reverting the release.

Flags are plain attributes on a module-level singleton (:data:`config`)
— one attribute load per check on the hot path, no function call.  They
are process-global, not thread-local: the thread execution backend runs
replicas under one configuration, and toggling mid-run from another
thread is not a supported pattern (tests toggle around runs, not during).

Only fast paths with a reference twin are flags.  Stacked serving is
switched by ``ServeConfig.stacked_execution`` alone, and
``EmbeddingHistory.nearest`` has one exact path.
"""

from __future__ import annotations

import contextlib

__all__ = ["PerfConfig", "config", "configure", "optimizations_disabled",
           "optimizations_enabled"]


class PerfConfig:
    """The set of hot-path optimization switches (all on by default).

    Attributes
    ----------
    graph_tape:
        Record autograd nodes on a per-thread tape at creation time so
        ``backward()`` replays the reverse order without a DFS topo sort.
    fused_linear:
        Collapse ``x @ W.T + b`` (and a following activation inside
        ``Sequential``) into one autograd node.
    grad_ownership:
        Let ``Tensor._accumulate`` adopt a privately-owned gradient
        buffer instead of copying it.
    inplace_optim:
        ``SGD``/``Adam`` update a single preflattened parameter buffer
        in place; parameters become views into it.
    fused_loss:
        ``cross_entropy`` runs as a single autograd node (replaying the
        ``log_softmax`` + ``nll_loss`` chain's exact float operations),
        and inference ``softmax`` skips graph construction entirely.
    plan_capture:
        Trace a model's fit/inference step once into a compiled plan of
        flat ``out=``-style numpy kernels writing into a preallocated
        buffer arena, then replay the plan for every later batch with
        the same signature (:mod:`repro.nn.plan`).  A plan is cached
        only after a trial replay reproduces the reference run's
        post-state bit for bit; anything unverifiable falls back to the
        define-by-run path.
    """

    __slots__ = ("graph_tape", "fused_linear", "grad_ownership",
                 "inplace_optim", "fused_loss", "plan_capture")

    def __init__(self, enabled: bool = True):
        self.set_all(enabled)

    def set_all(self, enabled: bool) -> None:
        for name in self.__slots__:
            setattr(self, name, bool(enabled))

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


config = PerfConfig()


@contextlib.contextmanager
def configure(**flags: bool):
    """Temporarily override individual flags: ``with configure(graph_tape=False): ...``."""
    unknown = set(flags) - set(PerfConfig.__slots__)
    if unknown:
        raise TypeError(f"unknown perf flags: {sorted(unknown)}")
    previous = config.as_dict()
    try:
        for name, value in flags.items():
            setattr(config, name, bool(value))
        yield config
    finally:
        for name, value in previous.items():
            setattr(config, name, value)


@contextlib.contextmanager
def optimizations_disabled():
    """Run the reference (unoptimized) implementations of everything."""
    previous = config.as_dict()
    try:
        config.set_all(False)
        yield config
    finally:
        for name, value in previous.items():
            setattr(config, name, value)


@contextlib.contextmanager
def optimizations_enabled():
    """Force every optimization on (the default state)."""
    previous = config.as_dict()
    try:
        config.set_all(True)
        yield config
    finally:
        for name, value in previous.items():
            setattr(config, name, value)
