"""Stacked co-scheduling for the serving layer.

The dispatcher normally serves one tenant's micro-batch at a time.  With
:attr:`~repro.serving.ServeConfig.stacked_execution` on, micro-batches
that are ready in the same dispatch round and share a *stacking key* —
same model architecture, same optimizer configuration, same row count,
same labeledness — execute as **one** batched tensor program through
:mod:`repro.nn.stacked` instead of N serial per-model steps.  Everything else (heterogeneous estimators,
mismatched row counts, labeled/unlabeled fences, unsupported
architectures) falls back to the serial per-tenant path.

The equivalence contract carries over unchanged from the engine: per
tenant, served labels and post-update parameters are bitwise-identical
to the serial loop, so the serving-equivalence replay gate in
``bench_serving.py`` holds with stacking on.

Stacked steps run unplanned, on the same :mod:`repro.nn.functional` ops
as a single model.  Group size and row count change from round to round,
so captured plans (:mod:`repro.nn.plan`) for them would churn through
the plan cache instead of replaying; single-tenant steps still replay.

:class:`ModelEstimator` adapts a bare
:class:`~repro.models.base.NeuralStreamingModel` to the
:class:`~repro.api.StreamingEstimator` protocol — the stackable tenant
estimator for model-level serving (a full FreewayML ``Learner`` carries
per-tenant drift state the stacked program cannot batch, so Learner
tenants always take the serial path).
"""

from __future__ import annotations

import time

import numpy as np

from ..api import BaseReport
from ..nn import Adam, SGD
from ..nn.stacked import (
    StackedModelError,
    architecture_key,
    make_stacked_optimizer,
    stack_models,
    stacked_fit,
    unstack_models,
)

__all__ = ["ModelEstimator", "StackedGroupPlan", "stacking_key",
           "plan_stacked_groups", "execute_stacked"]


class ModelEstimator:
    """A single streaming model speaking the estimator protocol.

    Wraps a :class:`~repro.models.base.NeuralStreamingModel` (e.g.
    ``StreamingLR`` / ``StreamingMLP``) for serving: ``predict`` returns
    hard labels, ``update`` is one ``partial_fit``, and checkpoints
    round-trip the module parameters **and** optimizer state (momentum /
    Adam moments, as 0-d-array-safe entries), so an evicted tenant
    resumes mid-momentum exactly where it left off.
    """

    def __init__(self, model):
        self.model = model

    # -- stacking ------------------------------------------------------------

    def stacking_handle(self):
        """The wrapped model, telling the dispatcher this tenant stacks."""
        return self.model

    # -- StreamingEstimator protocol -----------------------------------------

    def predict(self, x) -> np.ndarray:
        return self.model.predict(np.asarray(x, dtype=float))

    def update(self, x, y) -> float:
        return self.model.partial_fit(x, y)

    def process(self, batch) -> BaseReport:
        started = time.perf_counter()
        labels = self.predict(batch.x)
        accuracy = None
        if batch.y is not None:
            accuracy = float(np.mean(labels == np.asarray(batch.y)))
            self.update(batch.x, batch.y)
        return BaseReport(
            batch_index=batch.index, num_items=len(batch.x),
            strategy=self.model.name, accuracy=accuracy,
            latency_s=time.perf_counter() - started)

    def summary(self) -> dict:
        return {
            "estimator": self.model.name,
            "updates": self.model.updates,
            "parameters": self.model.num_parameters(),
        }

    def close(self) -> None:
        """Nothing beyond memory to release; kept for the lifecycle."""

    def __enter__(self) -> "ModelEstimator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        model = self.model
        state = dict(model.state_dict())
        state["__meta__.updates"] = np.array(model.updates)
        optimizer = model.optimizer
        if isinstance(optimizer, SGD):
            for index, velocity in optimizer._velocity.items():
                state[f"__opt__.velocity.{index}"] = velocity.copy()
        elif isinstance(optimizer, Adam):
            state["__meta__.step_count"] = np.array(optimizer._step_count)
            for index, value in optimizer._m.items():
                state[f"__opt__.m.{index}"] = value.copy()
            for index, value in optimizer._v.items():
                state[f"__opt__.v.{index}"] = value.copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        state = dict(state)
        meta = {key: state.pop(key) for key in list(state)
                if key.startswith("__meta__.")}
        opt_state = {key: state.pop(key) for key in list(state)
                     if key.startswith("__opt__.")}
        model = self.model
        model.load_state_dict(state)
        model.updates = int(meta.get("__meta__.updates", model.updates))
        optimizer = model.optimizer
        if isinstance(optimizer, SGD):
            optimizer._velocity = {
                int(key.rsplit(".", 1)[1]): np.array(value, copy=True)
                for key, value in opt_state.items()
                if key.startswith("__opt__.velocity.")}
        elif isinstance(optimizer, Adam):
            optimizer._step_count = int(
                meta.get("__meta__.step_count", optimizer._step_count))
            optimizer._m = {
                int(key.rsplit(".", 1)[1]): np.array(value, copy=True)
                for key, value in opt_state.items()
                if key.startswith("__opt__.m.")}
            optimizer._v = {
                int(key.rsplit(".", 1)[1]): np.array(value, copy=True)
                for key, value in opt_state.items()
                if key.startswith("__opt__.v.")}


def _optimizer_signature(optimizer) -> tuple | None:
    """Hashable optimizer configuration; None for unstackable types."""
    kind = type(optimizer)
    if kind is SGD:
        return ("sgd", optimizer.lr, optimizer.momentum,
                optimizer.weight_decay)
    if kind is Adam:
        return ("adam", optimizer.lr, optimizer.beta1, optimizer.beta2,
                optimizer.eps, optimizer.weight_decay, optimizer._step_count)
    return None


def stacking_key(estimator, rows: int, labeled: bool):
    """Group key for one dispatched micro-batch; None → serial path.

    Two micro-batches may execute stacked iff their keys are equal:
    identical model architecture (:func:`~repro.nn.stacked.
    architecture_key`), identical training configuration (``sgd_steps``
    plus the optimizer's type and hyperparameters — for Adam also its
    step count, since bias correction is shared across a stack),
    identical coalesced row count, and the same labeledness.
    """
    handle = getattr(estimator, "stacking_handle", None)
    if handle is None:
        return None
    model = handle()
    if model is None:
        return None
    signature = _optimizer_signature(model.optimizer)
    if signature is None:
        return None
    try:
        arch = architecture_key(model.module)
    except StackedModelError:
        return None
    return (arch, signature, model.sgd_steps, rows, labeled)


class StackedGroupPlan:
    """Partition of a dispatch round into stacked groups and serial jobs."""

    __slots__ = ("groups", "singles")

    def __init__(self, groups, singles):
        self.groups = groups
        self.singles = singles


def plan_stacked_groups(jobs, key_of, *, min_group: int = 2
                        ) -> StackedGroupPlan:
    """Group jobs by stacking key; undersized groups go serial.

    ``jobs`` is any sequence; ``key_of(job)`` returns the job's stacking
    key (or None for never-stackable jobs).  Grouping preserves dispatch
    order within each group and within the serial remainder.
    """
    by_key: dict = {}
    singles = []
    for job in jobs:
        key = key_of(job)
        if key is None:
            singles.append(job)
        else:
            by_key.setdefault(key, []).append(job)
    groups = []
    for grouped in by_key.values():
        if len(grouped) >= min_group:
            groups.append(grouped)
        else:
            singles.extend(grouped)
    return StackedGroupPlan(groups, singles)


def execute_stacked(estimators, xs, ys) -> np.ndarray:
    """One batched predict(+update) step for N same-key tenants.

    Mirrors :func:`~repro.serving.service.predict_and_update` per model:
    predict from the pre-update weights, then (for labeled batches) run
    ``sgd_steps`` training steps — all through one stacked program.
    Returns the ``(models, rows)`` predicted labels; each estimator's
    model ends bitwise-identical to having served its batch alone.
    """
    models = [estimator.stacking_handle() for estimator in estimators]
    stacked_x = np.stack([
        np.asarray(x, dtype=float).reshape(len(x), -1) for x in xs])
    stack = stack_models([model.module for model in models])
    labels = stack.predict_proba(stacked_x).argmax(axis=-1)
    labeled = ys[0] is not None
    if labeled:
        optimizer = make_stacked_optimizer(
            stack, [model.optimizer for model in models])
        stacked_y = np.stack([
            np.asarray(y, dtype=np.int64).reshape(-1) for y in ys])
        stacked_fit(stack, optimizer, stacked_x, stacked_y,
                    sgd_steps=models[0].sgd_steps)
        unstack_models(stack)
        optimizer.export_to([model.optimizer for model in models])
        for model in models:
            model.updates += 1
            model._weights_version += 1
    return labels
