"""The one hot-path switch: captured-plan replay.

Every op has exactly one execution path.  The single exception is
:attr:`PerfConfig.plan_capture`, whose reference twin is the
define-by-run path itself, so that

- equivalence tests can assert planned and unplanned runs produce
  bitwise-identical results (``with optimizations_disabled(): ...``),
- the benchmarks can measure plans on and off on the same build, and
- plan replay can be turned off in the field without reverting the
  release.

The flag is a plain attribute on a module-level singleton
(:data:`config`): one attribute load per check on the hot path, no
function call.  It is process-global, not thread-local: the thread
execution backend runs replicas under one configuration, and toggling
mid-run from another thread is not a supported pattern (tests toggle
around runs, not during).

The other fast paths (the autograd tape, fused ``Linear`` + activation,
fused cross-entropy, graph-free inference softmax) are switchless; their
oracles are listed in ``docs/PERF.md``.
"""

from __future__ import annotations

import contextlib

__all__ = ["PerfConfig", "config", "configure", "optimizations_disabled",
           "optimizations_enabled"]


class PerfConfig:
    """The hot-path switch (on by default).

    Attributes
    ----------
    plan_capture:
        Trace a model's fit/inference step once into a compiled plan of
        flat ``out=``-style numpy kernels writing into a preallocated
        buffer arena, then replay the plan for every later batch with
        the same signature (:mod:`repro.nn.plan`).  A plan is cached
        only after a trial replay reproduces the reference run's
        post-state bit for bit; anything unverifiable falls back to the
        define-by-run path.
    """

    __slots__ = ("plan_capture",)

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
    """Temporarily override flags: ``with configure(plan_capture=False): ...``."""
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
    """Run the define-by-run reference path (no captured plans)."""
    previous = config.as_dict()
    try:
        config.set_all(False)
        yield config
    finally:
        for name, value in previous.items():
            setattr(config, name, value)


@contextlib.contextmanager
def optimizations_enabled():
    """Force captured plans on (the default state)."""
    previous = config.as_dict()
    try:
        config.set_all(True)
        yield config
    finally:
        for name, value in previous.items():
            setattr(config, name, value)
