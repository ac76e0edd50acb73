"""Tests for the captured-plan execution engine (``repro.nn.plan``).

The engine's contract is absolute: a replayed plan must be **bitwise
indistinguishable** from the define-by-run reference — same losses, same
probabilities, same parameters, same optimizer state, same Dropout RNG
stream.  These tests hold that line across the invalidation matrix
(shape changes, checkpoint restores mid-momentum, train/eval flips,
mid-stream flag toggles), across models that share one cached plan
(different weights, restored checkpoints, rehydrated serving tenants,
replica threads), and then fuzz it over random architectures.
"""

import gc
import pickle
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.models.base import NeuralStreamingModel
from repro.models.logistic import StreamingLR
from repro.models.mlp import StreamingMLP
from repro.nn import plan as nn_plan
from repro.obs import Observability
from repro.perf import HotPathProfiler, configure


@pytest.fixture(autouse=True)
def cold_plan_cache():
    """Every test starts from an empty plan cache on this thread."""
    nn_plan.clear_plans()
    yield
    nn_plan.clear_plans()


def cached(kind=None):
    """This thread's cached entries (plans and unsupported markers)."""
    entries = nn_plan._cache().entries
    return [entry for key, entry in entries.items()
            if kind is None or key[0] == kind]


def events_during(run):
    """``run()``'s result and the plan events (capture/replay/...) it made."""
    before = nn_plan.plan_cache_stats()
    result = run()
    after = nn_plan.plan_cache_stats()
    return result, {event: after.get(event, 0) - before.get(event, 0)
                    for event in ("capture", "replay", "invalidate",
                                  "unsupported")}


def make_batches(num_batches, batch_size, num_features, num_classes, seed=0):
    rng = np.random.default_rng(seed)
    return [(rng.normal(size=(batch_size, num_features)),
             rng.integers(0, num_classes, batch_size))
            for _ in range(num_batches)]


def run_stream(model, batches, plans_on):
    """Predict + fit over ``batches``; returns (losses, probas)."""
    losses, probas = [], []
    with configure(plan_capture=plans_on):
        for x, y in batches:
            probas.append(model.predict_proba(x).copy())
            losses.append(model.partial_fit(x, y))
    return losses, probas


def assert_bitwise_equal(model_a, model_b, losses_a, losses_b,
                         probas_a, probas_b):
    assert [np.float64(l).tobytes() for l in losses_a] == \
        [np.float64(l).tobytes() for l in losses_b]
    assert [p.tobytes() for p in probas_a] == [p.tobytes() for p in probas_b]
    state_a, state_b = model_a.state_dict(), model_b.state_dict()
    assert list(state_a) == list(state_b)
    for key in state_a:
        assert state_a[key].tobytes() == state_b[key].tobytes(), key


class DropoutMLP(NeuralStreamingModel):
    """One-hidden-layer MLP with Dropout, for RNG-threading tests."""

    name = "dropout-mlp"

    def _build(self, rng):
        return nn.Sequential(
            nn.Linear(self.num_features, 16, rng=rng),
            nn.ReLU(),
            nn.Dropout(0.4, rng=np.random.default_rng(self.seed + 1)),
            nn.Linear(16, self.num_classes, rng=rng),
        )


class AdamLR(StreamingLR):
    name = "adam-lr"

    def _make_optimizer(self):
        return nn.Adam(self.module.parameters(), lr=0.01)


# -- bitwise equivalence ------------------------------------------------------


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("cls", [StreamingLR, StreamingMLP, DropoutMLP,
                                     AdamLR])
    def test_replayed_stream_matches_reference(self, cls):
        batches = make_batches(12, 16, 8, 3)
        with_plans = cls(num_features=8, num_classes=3, seed=4)
        reference = cls(num_features=8, num_classes=3, seed=4)
        results_on = run_stream(with_plans, batches, plans_on=True)
        results_off = run_stream(reference, batches, plans_on=False)
        assert_bitwise_equal(with_plans, reference, results_on[0],
                             results_off[0], results_on[1], results_off[1])
        # The plan actually replayed — this was not a silent fallback.
        assert cached("fit") and cached("proba")
        assert all(entry is not nn_plan._UNSUPPORTED for entry in cached())

    def test_dropout_rng_stream_advances_identically(self):
        batches = make_batches(8, 8, 6, 2)
        with_plans = DropoutMLP(num_features=6, num_classes=2, seed=9)
        reference = DropoutMLP(num_features=6, num_classes=2, seed=9)
        run_stream(with_plans, batches, plans_on=True)
        run_stream(reference, batches, plans_on=False)
        dropouts_a = [m for m in with_plans.module.modules()
                      if isinstance(m, nn.Dropout)]
        dropouts_b = [m for m in reference.module.modules()
                      if isinstance(m, nn.Dropout)]
        for a, b in zip(dropouts_a, dropouts_b):
            assert a.rng.bit_generator.state == b.rng.bit_generator.state

    def test_multi_sgd_steps_replay(self):
        batches = make_batches(6, 8, 5, 2)
        with_plans = StreamingMLP(num_features=5, num_classes=2, seed=1,
                                  sgd_steps=3, momentum=0.9)
        reference = StreamingMLP(num_features=5, num_classes=2, seed=1,
                                 sgd_steps=3, momentum=0.9)
        results_on = run_stream(with_plans, batches, plans_on=True)
        results_off = run_stream(reference, batches, plans_on=False)
        assert_bitwise_equal(with_plans, reference, results_on[0],
                             results_off[0], results_on[1], results_off[1])


# -- the invalidation matrix --------------------------------------------------


class TestInvalidationMatrix:
    def test_batch_shape_change_recaptures(self):
        model = StreamingMLP(num_features=6, num_classes=2, seed=0)
        reference = StreamingMLP(num_features=6, num_classes=2, seed=0)
        sizes = [16, 16, 8, 16, 8, 32]
        rng = np.random.default_rng(3)
        for size in sizes:
            x = rng.normal(size=(size, 6))
            y = rng.integers(0, 2, size)
            with configure(plan_capture=True):
                loss_plan = model.partial_fit(x, y)
            with configure(plan_capture=False):
                loss_ref = reference.partial_fit(x, y)
            assert np.float64(loss_plan).tobytes() == \
                np.float64(loss_ref).tobytes()
        # Three distinct fit signatures -> three cached fit plans.
        assert len(cached("fit")) == 3

    def test_checkpoint_restore_mid_momentum_replays_without_recapture(self):
        batches = make_batches(10, 8, 5, 2, seed=7)
        model = StreamingMLP(num_features=5, num_classes=2, seed=2,
                             momentum=0.9)
        reference = StreamingMLP(num_features=5, num_classes=2, seed=2,
                                 momentum=0.9)
        run_stream(model, batches[:4], plans_on=True)
        run_stream(reference, batches[:4], plans_on=False)
        checkpoint = model.state_dict()
        run_stream(model, batches[4:7], plans_on=True)
        run_stream(reference, batches[4:7], plans_on=False)
        model.load_state_dict(checkpoint)
        reference.load_state_dict(checkpoint)
        # The restored arrays are bound at replay time: nothing recaptures.
        results_on, events = events_during(
            lambda: run_stream(model, batches[7:], plans_on=True))
        assert events["capture"] == 0 and events["invalidate"] == 0
        assert events["replay"] == 2 * len(batches[7:])
        results_off = run_stream(reference, batches[7:], plans_on=False)
        assert_bitwise_equal(model, reference, results_on[0], results_off[0],
                             results_on[1], results_off[1])

    def test_train_eval_flip_uses_distinct_plans(self):
        batches = make_batches(6, 8, 6, 2, seed=5)
        model = DropoutMLP(num_features=6, num_classes=2, seed=3)
        reference = DropoutMLP(num_features=6, num_classes=2, seed=3)
        for flip, (x, y) in enumerate(batches):
            training = flip % 2 == 0
            model.module.train(training)
            reference.module.train(training)
            with configure(plan_capture=True):
                loss_plan = model.partial_fit(x, y)
            with configure(plan_capture=False):
                loss_ref = reference.partial_fit(x, y)
            assert np.float64(loss_plan).tobytes() == \
                np.float64(loss_ref).tobytes()
        assert len(cached("fit")) == 2  # train-mode plan and eval-mode plan

    def test_flag_toggle_mid_stream(self):
        batches = make_batches(9, 8, 5, 2, seed=11)
        model = StreamingLR(num_features=5, num_classes=2, seed=6)
        reference = StreamingLR(num_features=5, num_classes=2, seed=6)
        schedule = [True, True, False, False, True, True, False, True, True]
        for plans_on, (x, y) in zip(schedule, batches):
            with configure(plan_capture=plans_on):
                loss_plan = model.partial_fit(x, y)
                proba_plan = model.predict_proba(x + 0.5)
            with configure(plan_capture=False):
                loss_ref = reference.partial_fit(x, y)
                proba_ref = reference.predict_proba(x + 0.5)
            assert np.float64(loss_plan).tobytes() == \
                np.float64(loss_ref).tobytes()
            assert proba_plan.tobytes() == proba_ref.tobytes()

    def test_plan_set_is_bounded_lru(self):
        model = StreamingLR(num_features=4, num_classes=2, seed=0)
        rng = np.random.default_rng(0)

        def fill():
            with configure(plan_capture=True):
                for size in range(2, 2 + nn_plan._CACHE_CAP + 4):
                    x = rng.normal(size=(size, 4))
                    y = rng.integers(0, 2, size)
                    model.partial_fit(x, y)

        _, events = events_during(fill)
        assert len(cached()) == nn_plan._CACHE_CAP
        assert events["capture"] == nn_plan._CACHE_CAP + 4
        assert events["invalidate"] == 4  # the LRU evicted the overflow
        # The least recently used signatures went first.
        assert min(key[2] for key in nn_plan._cache().entries) == 6


# -- eligibility and fallback -------------------------------------------------


class TestFallback:
    def test_custom_prepare_opts_out(self):
        class WeirdPrepare(StreamingLR):
            def _prepare(self, x):
                return nn.Tensor(np.asarray(x, dtype=float) * 2.0)

        model = WeirdPrepare(num_features=4, num_classes=2, seed=0)
        x = np.ones((6, 4))
        y = np.zeros(6, dtype=np.int64)
        with configure(plan_capture=True):
            model.partial_fit(x, y)
        assert not hasattr(model, "_plans")

    def test_exotic_optimizer_opts_out(self):
        class FobosLR(StreamingLR):
            def _make_optimizer(self):
                return nn.FOBOS(self.module.parameters(), lr=0.05)

        model = FobosLR(num_features=4, num_classes=2, seed=0)
        x = np.ones((6, 4))
        y = np.zeros(6, dtype=np.int64)
        with configure(plan_capture=True):
            model.partial_fit(x, y)
        assert not hasattr(model, "_plans")

    def test_ineligible_models_leave_the_cache_untouched(self):
        class WeirdPrepare(StreamingLR):
            def _prepare(self, x):
                return nn.Tensor(np.asarray(x, dtype=float) * 2.0)

        class FobosLR(StreamingLR):
            def _make_optimizer(self):
                return nn.FOBOS(self.module.parameters(), lr=0.05)

        batches = make_batches(3, 6, 4, 2)
        _, events = events_during(lambda: [
            run_stream(cls(num_features=4, num_classes=2, seed=0), batches,
                       plans_on=True) for cls in (WeirdPrepare, FobosLR)])
        assert not cached()
        assert events == dict.fromkeys(events, 0)

    def test_stacked_fit_leaves_the_cache_untouched(self):
        # Stacked fleets run unplanned: their step never reaches the cache.
        nn_plan.clear_plans()
        models = [StreamingMLP(num_features=6, num_classes=3, seed=seed)
                  for seed in range(3)]
        stack = nn.stack_models([m.module for m in models])
        optimizer = nn.make_stacked_optimizer(
            stack, [m.optimizer for m in models])
        rng = np.random.default_rng(8)
        xs, ys = rng.normal(size=(3, 8, 6)), rng.integers(0, 3, (3, 8))
        with configure(plan_capture=True):
            _, events = events_during(lambda: [
                nn.stacked_fit(stack, optimizer, xs, ys) for _ in range(3)])
        assert not cached()
        assert events == dict.fromkeys(events, 0)

    def test_pickling_drops_plans(self):
        model = StreamingLR(num_features=4, num_classes=2, seed=0)
        batches = make_batches(3, 8, 4, 2)
        run_stream(model, batches, plans_on=True)
        assert cached("fit")
        # Plans live in the cache, not on the model: the pickle carries
        # no object of the plan engine.
        blob = pickle.dumps(model)
        assert b"repro.nn.plan" not in blob
        clone = pickle.loads(blob)
        # The revived model replays the cached plans, bound to its copies.
        results_a, events = events_during(
            lambda: run_stream(clone, batches, plans_on=True))
        assert events["capture"] == 0 and events["replay"] == 6
        reference = pickle.loads(pickle.dumps(model))
        results_b = run_stream(reference, batches, plans_on=False)
        assert_bitwise_equal(clone, reference, results_a[0], results_b[0],
                             results_a[1], results_b[1])


# -- telemetry ----------------------------------------------------------------


class TestPlanTelemetry:
    def test_profiler_hook_records_events_and_counter(self):
        obs = Observability(enabled=True)
        profiler = HotPathProfiler(obs=obs)
        with nn_plan.observing(profiler.observe_plan_event):
            model = StreamingLR(num_features=4, num_classes=2, seed=0)
            batches = make_batches(4, 8, 4, 2)
            run_stream(model, batches, plans_on=True)
        summary = profiler.summary()
        assert "plan.capture" in summary
        assert "plan.replay" in summary
        assert summary["plan.replay"]["count"] >= 3
        counter = obs.registry.counter(nn_plan.PLAN_CACHE_COUNTER)
        events = {child._labels: child.value
                  for child in counter._children.values()}
        assert events[(("event", "capture"),)] >= 1
        assert events[(("event", "replay"),)] >= 3

    def test_stats_gauge_entries_and_arena_bytes(self):
        model = StreamingMLP(num_features=6, num_classes=3, seed=0)
        run_stream(model, make_batches(2, 8, 6, 3), plans_on=True)
        warm = nn_plan.plan_cache_stats()
        plans = cached()
        assert len(plans) == 2  # one fit plan, one proba plan
        arena = sum(plan.nbytes for plan in plans)
        # x (8x6), hidden activations and grads (8x64), W1 grad (64x6), …
        assert arena > 8 * (8 * 6 + 2 * 8 * 64 + 64 * 6)
        nn_plan.clear_plans()
        cold = nn_plan.plan_cache_stats()
        assert warm["entries"] - cold["entries"] == 2
        assert warm["arena_bytes"] - cold["arena_bytes"] == arena

    def test_profiler_sees_only_its_own_learners_events(self):
        from repro.core import Learner
        from repro.data import ElectricitySimulator

        def factory():
            return StreamingMLP(num_features=8, num_classes=2, lr=0.3, seed=0)

        def plan_rows(profiler):
            return {name: stats["count"]
                    for name, stats in profiler.summary().items()
                    if name.startswith("plan.")}

        profiler = HotPathProfiler()
        learner_a = Learner(factory, seed=0)
        learner_b = Learner(factory, seed=1, profiler=profiler)
        batches = list(ElectricitySimulator(seed=3).stream(6, 64))
        with configure(plan_capture=True):
            for batch in batches:
                learner_a.process(batch)
            # A captured and replayed plans that B shares by architecture,
            # but none of those events are B's.
            assert nn_plan.plan_cache_stats().get("replay", 0) > 0
            assert plan_rows(profiler) == {}
            for batch in batches:
                learner_b.process(batch)
        rows = plan_rows(profiler)
        assert rows.get("plan.replay", 0) > 0

    def test_stats_count_replays_without_hooks(self):
        before = nn_plan.plan_cache_stats().get("replay", 0)
        model = StreamingLR(num_features=4, num_classes=2, seed=0)
        batches = make_batches(4, 8, 4, 2)
        run_stream(model, batches, plans_on=True)
        assert nn_plan.plan_cache_stats().get("replay", 0) > before


# -- hypothesis fuzz ----------------------------------------------------------


class TestPlanFuzz:
    @settings(max_examples=20, deadline=None)
    @given(
        hidden=st.lists(st.sampled_from([3, 5, 8]), min_size=0, max_size=2),
        seed=st.integers(min_value=0, max_value=2**16),
        batch_size=st.integers(min_value=1, max_value=9),
        momentum=st.sampled_from([0.0, 0.9]),
    )
    def test_replayed_fit_is_bitwise_identical(self, hidden, seed,
                                               batch_size, momentum):
        num_features, num_classes = 6, 3
        batches = make_batches(5, batch_size, num_features, num_classes,
                               seed=seed)

        def build(model_seed):
            if hidden:
                return StreamingMLP(
                    num_features=num_features, num_classes=num_classes,
                    hidden=tuple(hidden), seed=model_seed, momentum=momentum)
            return StreamingLR(
                num_features=num_features, num_classes=num_classes,
                seed=model_seed, momentum=momentum)

        with_plans, reference = build(seed), build(seed)
        results_on = run_stream(with_plans, batches, plans_on=True)
        results_off = run_stream(reference, batches, plans_on=False)
        assert_bitwise_equal(with_plans, reference, results_on[0],
                             results_off[0], results_on[1], results_off[1])
        # A second model of the same architecture replays the plans the
        # first one captured, bound to its own weights.
        second, second_ref = build(seed + 1), build(seed + 1)
        results_on, events = events_during(
            lambda: run_stream(second, batches, plans_on=True))
        assert events["capture"] == 0
        assert events["replay"] == 2 * len(batches)
        results_off = run_stream(second_ref, batches, plans_on=False)
        assert_bitwise_equal(second, second_ref, results_on[0],
                             results_off[0], results_on[1], results_off[1])


# -- one plan, many models ----------------------------------------------------


class AdamDropoutMLP(DropoutMLP):
    name = "adam-dropout-mlp"

    def _make_optimizer(self):
        return nn.Adam(self.module.parameters(), lr=0.01)


def dropout_rngs(model):
    return [m.rng for m in model.module.modules() if isinstance(m, nn.Dropout)]


def make_tenant_learner(_tenant=""):
    from repro.core.learner import Learner

    return Learner(lambda: StreamingMLP(num_features=6, num_classes=3,
                                        seed=0),
                   num_models=1, window_batches=4, seed=0)


class TestSharedPlans:
    @pytest.mark.parametrize("cls, kwargs", [(DropoutMLP, {"momentum": 0.9}),
                                             (AdamDropoutMLP, {})])
    def test_plan_rebinds_bitwise_to_another_model(self, cls, kwargs):
        batches = make_batches(12, 8, 6, 3, seed=21)
        donor = cls(num_features=6, num_classes=3, seed=1, **kwargs)
        run_stream(donor, batches[:4], plans_on=True)  # captures the plans
        # Same architecture, but other weights, optimizer state, step
        # count and Dropout RNG state, restored from a mid-momentum
        # checkpoint — all on the reference path.
        model = cls(num_features=6, num_classes=3, seed=7, **kwargs)
        reference = cls(num_features=6, num_classes=3, seed=7, **kwargs)
        for target in (model, reference):
            run_stream(target, batches[4:7], plans_on=False)
            checkpoint = target.state_dict()
            run_stream(target, batches[7:9], plans_on=False)
            target.load_state_dict(checkpoint)
        if isinstance(model.optimizer, nn.Adam):
            assert model.optimizer._step_count != donor.optimizer._step_count
        assert (dropout_rngs(model)[0].bit_generator.state
                != dropout_rngs(donor)[0].bit_generator.state)
        results_on, events = events_during(
            lambda: run_stream(model, batches[9:], plans_on=True))
        assert events["capture"] == 0 and events["unsupported"] == 0
        assert events["replay"] == 2 * len(batches[9:])
        results_off = run_stream(reference, batches[9:], plans_on=False)
        assert_bitwise_equal(model, reference, results_on[0],
                             results_off[0], results_on[1], results_off[1])
        # Optimizer state (momentum / Adam moments and step) and the
        # Dropout streams advanced identically as well.
        assert nn_plan._Snapshot(model.optimizer, dropout_rngs(model)).matches(
            nn_plan._Snapshot(reference.optimizer, dropout_rngs(reference)))

    def test_cached_plans_hold_no_model_state(self):
        model = DropoutMLP(num_features=6, num_classes=3, seed=0)
        run_stream(model, make_batches(2, 8, 6, 3), plans_on=True)
        plans = cached()
        assert len(plans) == 2
        for plan in plans:
            parts = [plan.bound, *plan.kernels,
                     getattr(plan, "loss", None), getattr(plan, "step", None)]
            for part in filter(None, parts):
                for name in type(part).__slots__:
                    value = getattr(part, name)
                    # No traced tensors, parameters, generators or
                    # optimizers outlive the replay that bound them.
                    for item in value if isinstance(value, list) else [value]:
                        assert not isinstance(
                            item, (nn.Tensor, np.random.Generator,
                                   nn.Optimizer)), (type(part).__name__, name)

    def test_rehydrated_tenant_replays_without_capture(self, tmp_path):
        from repro.serving import (DirCheckpointStore, SessionRegistry,
                                   predict_and_update)

        batches = make_batches(8, 16, 6, 3, seed=4)
        registry = SessionRegistry(make_tenant_learner, capacity=1,
                                   store=DirCheckpointStore(tmp_path))

        def serve(tenant, chunk):
            with registry.session(tenant) as learner:
                labels = [predict_and_update(learner, x, y)
                          for x, y in chunk]
                return labels, learner.ensemble.short_level.model.state_dict()

        with configure(plan_capture=True):
            serve("warm", batches)  # every signature this stream reaches
            served, _ = serve("t", batches[:4])
            serve("warm", batches[:1])  # evicts "t" to its checkpoint
            assert registry.resident() == ["warm"]
            (rest, state), events = events_during(
                lambda: serve("t", batches[4:]))
        assert registry.rehydrations >= 2
        assert events["capture"] == 0 and events["unsupported"] == 0
        assert events["replay"] > 0
        with configure(plan_capture=False):
            serial = make_tenant_learner()
            expected = [predict_and_update(serial, x, y) for x, y in batches]
        assert [p.tobytes() for p in served + rest] == \
            [p.tobytes() for p in expected]
        serial_state = serial.ensemble.short_level.model.state_dict()
        for key in serial_state:
            assert state[key].tobytes() == serial_state[key].tobytes()

    def test_cached_plan_keeps_no_evicted_tenant_alive(self):
        from repro.serving import SessionRegistry, predict_and_update

        registry = SessionRegistry(make_tenant_learner, capacity=1)
        with configure(plan_capture=True):
            with registry.session("t") as learner:
                for x, y in make_batches(4, 16, 6, 3, seed=2):
                    predict_and_update(learner, x, y)
                model = learner.ensemble.short_level.model
                refs = [weakref.ref(obj) for obj in (
                    learner, model, model.module, model.optimizer,
                    model.module.parameters()[0].data)]
            del learner, model
            assert cached("fit") and cached("proba")
            with registry.session("other"):
                pass  # evicts "t"
        assert "t" not in registry.resident()
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)

    def test_thread_replicas_replay_on_every_thread(self):
        from repro.data import ElectricitySimulator
        from repro.distributed import DistributedLearner

        def factory():
            return StreamingMLP(num_features=8, num_classes=2, lr=0.3, seed=0)

        def run(backend, plans_on, profiler=None):
            distributed = DistributedLearner(factory, num_workers=2,
                                             sync_every=1, window_batches=4,
                                             backend=backend,
                                             profiler=profiler)
            with configure(plan_capture=plans_on):
                for batch in ElectricitySimulator(seed=3).stream(8, 128):
                    distributed.process(batch)
            states = [
                {key: value.tobytes() for key, value in
                 worker.ensemble.short_level.model.state_dict().items()}
                for worker in distributed.workers]
            distributed.close()
            return states

        seen = []

        class ThreadRecorder(HotPathProfiler):
            """Notes the thread each plan event is raised on."""

            def observe_plan_event(self, event, _seconds):
                seen.append((event, threading.current_thread().name))

        # Each replica Learner gets the profiler and enters its plan-event
        # scope on the worker thread that runs it.
        threaded = run("thread", plans_on=True, profiler=ThreadRecorder())
        assert threaded == run("serial", plans_on=False)
        assert not [name for event, name in seen if event == "unsupported"]
        replaying = {name for event, name in seen if event == "replay"}
        for worker in range(2):
            assert any(name.startswith(f"freeway-worker-{worker}")
                       for name in replaying), replaying

    def test_threads_share_structures_without_lost_updates(self):
        import sys

        archs = [(), (5,), (7,), (5, 5)]
        batches = make_batches(6, 8, 6, 3, seed=12)

        def build(hidden):
            if hidden:
                return StreamingMLP(num_features=6, num_classes=3,
                                    hidden=hidden, seed=3, momentum=0.9)
            return StreamingLR(num_features=6, num_classes=3, seed=3,
                               momentum=0.9)

        def stream(model):
            probas, losses = [], []
            for x, y in batches:
                probas.append(model.predict_proba(x).tobytes())
                losses.append(np.float64(model.partial_fit(x, y)).tobytes())
            return losses, probas

        with configure(plan_capture=False):
            expected = {hidden: stream(build(hidden)) for hidden in archs}
        results, errors = {}, []

        def worker(index):
            try:
                # Fresh models every round: structure memoization and
                # interning race across threads while every thread
                # captures into, and replays from, its own cache.
                for round_ in range(3):
                    for hidden in archs:
                        results[index, round_, hidden] = stream(build(hidden))
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with configure(plan_capture=True):
                threads = [threading.Thread(target=worker, args=(index,))
                           for index in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(results) == 4 * 3 * len(archs)
        for (_index, _round, hidden), outcome in results.items():
            assert outcome == expected[hidden]
