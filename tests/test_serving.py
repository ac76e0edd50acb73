"""Tests for the multi-tenant serving front end (``repro.serving``).

Covers the session registry (LRU activation, single-flight rehydration,
pinning, checkpoint stores), the asyncio service (micro-batching, shed
policies, the per-tenant breaker, pressure→degrade coupling), the traffic
generator's per-tenant determinism, the serial-replay equivalence
contract, and the ``/health`` integration with the telemetry server.
"""

import asyncio
import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.core.learner import Learner
from repro.models import StreamingLR
from repro.obs import (
    Observability,
    RequestShed,
    TelemetryServer,
    TenantActivated,
    TenantEvicted,
)
from repro.perf.config import optimizations_disabled
from repro.serving import (
    DirCheckpointStore,
    MemoryCheckpointStore,
    ModelEstimator,
    NullCheckpointStore,
    ServeConfig,
    SessionRegistry,
    StreamingService,
    TenantStream,
    make_requests,
    predict_and_update,
    serve_requests,
    zipf_tenants,
)

NUM_FEATURES = 4
NUM_CLASSES = 2


def lr_factory():
    return StreamingLR(num_features=NUM_FEATURES, num_classes=NUM_CLASSES,
                       seed=0)


def make_learner(_tenant: str = "") -> Learner:
    return Learner(lr_factory, num_models=1, window_batches=4, seed=0)


def labeled_rows(rows: int = 8, seed: int = 0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, NUM_CLASSES, size=rows)
    x = np.where(y[:, None] == 1, 2.0, -2.0) + rng.normal(
        size=(rows, NUM_FEATURES))
    return x, y


# -- checkpoint stores ---------------------------------------------------------


class TestCheckpointStores:
    def train_one(self) -> Learner:
        learner = make_learner()
        x, y = labeled_rows(64)
        predict_and_update(learner, x, y)
        return learner

    def assert_restores(self, store):
        trained = self.train_one()
        assert "t" not in store
        assert store.save("t", trained) > 0 or isinstance(
            store, NullCheckpointStore)
        assert "t" in store
        fresh = make_learner()
        assert store.load("t", fresh)
        probe, _ = labeled_rows(16, seed=9)
        np.testing.assert_array_equal(
            predict_and_update(trained, probe),
            predict_and_update(fresh, probe))

    def test_memory_store_round_trip(self):
        store = MemoryCheckpointStore()
        self.assert_restores(store)
        assert len(store) == 1

    def test_memory_store_copies_state(self):
        # A stored checkpoint must not alias the live learner: training
        # after save must not change what load restores.
        store = MemoryCheckpointStore()
        trained = self.train_one()
        store.save("t", trained)
        frozen = make_learner()
        store.load("t", frozen)
        x, y = labeled_rows(64, seed=5)
        predict_and_update(trained, x, y)  # drift the live learner
        fresh = make_learner()
        store.load("t", fresh)
        probe, _ = labeled_rows(16, seed=9)
        np.testing.assert_array_equal(
            predict_and_update(frozen, probe),
            predict_and_update(fresh, probe))

    def test_dir_store_round_trip(self, tmp_path):
        self.assert_restores(DirCheckpointStore(tmp_path))

    def test_dir_store_sanitizes_without_collisions(self, tmp_path):
        store = DirCheckpointStore(tmp_path)
        store.save("a/b", self.train_one())
        store.save("a_b", self.train_one())
        assert "a/b" in store and "a_b" in store
        assert len(list(tmp_path.glob("*.npz"))) == 2

    def test_null_store_keeps_nothing(self):
        store = NullCheckpointStore()
        assert store.save("t", self.train_one()) == 0
        assert "t" not in store
        assert not store.load("t", make_learner())

    def test_stores_reject_non_learner(self, tmp_path):
        class NotALearner:
            pass

        for store in (MemoryCheckpointStore(), DirCheckpointStore(tmp_path)):
            with pytest.raises(TypeError, match="Learner"):
                store.save("t", NotALearner())
            with pytest.raises(TypeError, match="Learner"):
                store.load("t", NotALearner())


# -- session registry ----------------------------------------------------------


class TestSessionRegistry:
    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            SessionRegistry(make_learner, capacity=0)

    def test_lru_eviction_order(self):
        registry = SessionRegistry(make_learner, capacity=2)
        for tenant in ("a", "b", "c"):
            registry.acquire(tenant)
            registry.release(tenant)
        assert registry.resident() == ["b", "c"]
        stats = registry.stats()
        assert stats["activations"] == 3
        assert stats["evictions"] == 1
        # Touching "b" makes "c" the LRU victim for the next activation.
        registry.acquire("b")
        registry.release("b")
        registry.acquire("d")
        registry.release("d")
        assert registry.resident() == ["b", "d"]

    def test_eviction_checkpoints_and_rehydrates(self):
        registry = SessionRegistry(make_learner, capacity=1)
        x, y = labeled_rows(64)
        with registry.session("a") as estimator:
            predict_and_update(estimator, x, y)
        reference = make_learner()
        predict_and_update(reference, x, y)
        registry.acquire("b")  # evicts "a" through the store
        registry.release("b")
        assert registry.resident() == ["b"]
        probe, _ = labeled_rows(16, seed=9)
        with registry.session("a") as estimator:
            restored = predict_and_update(estimator, probe)
        np.testing.assert_array_equal(
            restored, predict_and_update(reference, probe))
        assert registry.stats()["rehydrations"] == 1

    def test_pinned_sessions_survive_pressure(self):
        registry = SessionRegistry(make_learner, capacity=2)
        with registry.session("a"):
            registry.acquire("b")
            registry.release("b")
            registry.acquire("c")
            registry.release("c")
            # "a" is pinned: the registry overshoots rather than evict it.
            assert "a" in registry.resident()
        registry.acquire("d")
        registry.release("d")
        assert "a" not in registry.resident()  # unpinned LRU drained

    def test_unbalanced_release_raises(self):
        registry = SessionRegistry(make_learner, capacity=2)
        with pytest.raises(RuntimeError, match="without a matching acquire"):
            registry.release("ghost")
        registry.acquire("a")
        registry.release("a")
        with pytest.raises(RuntimeError, match="without a matching acquire"):
            registry.release("a")

    def test_explicit_evict(self):
        registry = SessionRegistry(make_learner, capacity=4)
        registry.acquire("a")
        assert not registry.evict("a")  # pinned: eviction stands down
        registry.release("a")
        assert registry.evict("a")
        assert not registry.evict("a")  # already gone
        assert "a" in registry.store

    def test_flush_checkpoints_resident_sessions(self):
        registry = SessionRegistry(make_learner, capacity=4)
        for tenant in ("a", "b"):
            registry.acquire(tenant)
            registry.release(tenant)
        assert registry.flush() == 2
        assert registry.resident() == ["a", "b"]  # still live
        assert "a" in registry.store and "b" in registry.store

    def test_close_evicts_everything(self):
        registry = SessionRegistry(make_learner, capacity=4)
        for tenant in ("a", "b", "c"):
            registry.acquire(tenant)
            registry.release(tenant)
        registry.close()
        assert len(registry) == 0
        assert all(tenant in registry.store for tenant in ("a", "b", "c"))

    def test_close_refuses_pinned_sessions(self):
        registry = SessionRegistry(make_learner, capacity=4)
        registry.acquire("a")
        with pytest.raises(RuntimeError, match="pinned"):
            registry.close()
        registry.release("a")
        registry.close()

    def test_on_activate_callback(self):
        activated = []
        registry = SessionRegistry(
            make_learner, capacity=2,
            on_activate=lambda tenant, estimator: activated.append(tenant))
        with registry.session("a"):
            pass
        with registry.session("a"):
            pass  # still resident: no second activation
        assert activated == ["a"]

    def test_activation_events_and_counters(self):
        obs = Observability.in_memory()
        registry = SessionRegistry(make_learner, capacity=1, obs=obs)
        for tenant in ("a", "b", "a"):
            registry.acquire(tenant)
            registry.release(tenant)
        activated = obs.sink.events_of(TenantActivated)
        assert [event.tenant for event in activated] == ["a", "b", "a"]
        assert activated[2].rehydrated  # second "a" came from checkpoint
        evicted = obs.sink.events_of(TenantEvicted)
        assert [event.tenant for event in evicted] == ["a", "b"]
        assert evicted[0].nbytes > 0

    def test_single_flight_rehydration(self):
        loads = []

        class CountingStore(MemoryCheckpointStore):
            def load(self, tenant, estimator):
                loads.append(tenant)
                time.sleep(0.01)  # widen the race window
                return super().load(tenant, estimator)

        registry = SessionRegistry(make_learner, capacity=4,
                                   store=CountingStore())
        registry.store.save("cold", make_learner())
        barrier = threading.Barrier(4)
        errors = []

        def worker():
            try:
                barrier.wait()
                registry.acquire("cold")
                registry.release("cold")
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert loads == ["cold"]  # one activation served the whole herd
        assert registry.stats()["activations"] == 1

    def test_thread_stress_stays_consistent(self):
        registry = SessionRegistry(make_learner, capacity=3)
        tenants = [f"t{i}" for i in range(8)]
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(25):
                    tenant = tenants[rng.integers(len(tenants))]
                    with registry.session(tenant) as estimator:
                        estimator.predict(labeled_rows(2, seed=seed)[0])
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(registry) <= registry.capacity
        registry.close()  # every pin was released


# -- traffic -------------------------------------------------------------------


class TestTraffic:
    def test_zipf_is_rank_skewed_and_reproducible(self):
        arrivals = zipf_tenants(2000, 50, seed=1)
        assert zipf_tenants(2000, 50, seed=1) == arrivals
        counts = {tenant: arrivals.count(tenant) for tenant in set(arrivals)}
        assert counts["tenant-0000"] == max(counts.values())
        assert len(counts) > 10  # the tail is exercised too

    def test_zipf_validates(self):
        with pytest.raises(ValueError, match="num_tenants"):
            zipf_tenants(10, 0)

    def test_tenant_rows_independent_of_interleaving(self):
        # A tenant's concatenated rows depend only on its own draw count.
        mixed = make_requests(["a", "b", "a", "b", "a"], rows_per_request=4)
        alone = make_requests(["a", "a", "a"], rows_per_request=4)
        mixed_a = np.vstack([x for tenant, x, _y in mixed if tenant == "a"])
        alone_a = np.vstack([x for _tenant, x, _y in alone])
        np.testing.assert_array_equal(mixed_a, alone_a)

    def test_anagram_tenant_names_get_distinct_streams(self):
        # Regression: a byte-sum seed collapsed anagram names onto one
        # stream; the CRC32 seed is order-sensitive.
        x_a, y_a = TenantStream("tenant-0123").draw(16)
        x_b, y_b = TenantStream("tenant-0213").draw(16)
        assert not (np.array_equal(x_a, x_b) and np.array_equal(y_a, y_b))

    def test_stream_replay_is_deterministic(self):
        first = TenantStream("tenant-0042", seed=3)
        second = TenantStream("tenant-0042", seed=3)
        for _ in range(3):
            x_first, y_first = first.draw(8)
            x_second, y_second = second.draw(8)
            np.testing.assert_array_equal(x_first, x_second)
            np.testing.assert_array_equal(y_first, y_second)


# -- streaming service ---------------------------------------------------------


def run_service(config, registry, coroutine_factory, obs=None):
    """Run an async scenario against a started service; returns its result."""

    async def scenario():
        service = StreamingService(config, registry, obs=obs)
        async with service:
            result = await coroutine_factory(service)
        return result, service

    return asyncio.run(scenario())


class TestStreamingService:
    def test_requests_coalesce_into_microbatches(self):
        config = ServeConfig(max_active_tenants=4, microbatch_size=32,
                             microbatch_timeout_s=5.0)
        registry = SessionRegistry(make_learner, capacity=4)

        async def scenario(service):
            x, y = labeled_rows(8)
            return await asyncio.gather(*[
                asyncio.get_running_loop().create_task(
                    service.submit("t", x, y)) for _ in range(4)])

        results, service = run_service(config, registry, scenario)
        assert all(result.accepted for result in results)
        # 4 x 8 rows hit the 32-row target: one coalesced micro-batch.
        assert service.grouping("t") == [4]
        assert {result.batch_index for result in results} == {0}
        assert all(result.group_size == 4 for result in results)

    def test_timeout_flushes_partial_microbatch(self):
        config = ServeConfig(max_active_tenants=4, microbatch_size=1024,
                             microbatch_timeout_s=0.01)
        registry = SessionRegistry(make_learner, capacity=4)

        async def scenario(service):
            x, y = labeled_rows(4)
            return await service.submit("t", x, y)

        result, service = run_service(config, registry, scenario)
        assert result.accepted
        assert service.grouping("t") == [1]  # timer, not count, flushed it

    def test_labeled_and_unlabeled_never_share_a_batch(self):
        config = ServeConfig(max_active_tenants=4, microbatch_size=16,
                             microbatch_timeout_s=5.0)
        registry = SessionRegistry(make_learner, capacity=4)

        async def scenario(service):
            x, y = labeled_rows(8)
            loop = asyncio.get_running_loop()
            tasks = [loop.create_task(service.submit("t", x, y)),
                     loop.create_task(service.submit("t", x)),
                     loop.create_task(service.submit("t", x, y))]
            return await asyncio.gather(*tasks)

        results, service = run_service(config, registry, scenario)
        assert all(result.accepted for result in results)
        # Three batches: the unlabeled request fences its neighbours.
        assert service.grouping("t") == [1, 1, 1]
        assert [result.batch_index for result in results] == [0, 1, 2]

    def test_reject_policy_sheds_over_tenant_bound(self):
        config = ServeConfig(max_active_tenants=4, microbatch_size=1024,
                             microbatch_timeout_s=0.05, shed_policy="reject",
                             max_pending_per_tenant=4)
        registry = SessionRegistry(make_learner, capacity=4)
        x, y = labeled_rows(2)
        results, service = serve_requests(
            config, registry, [("t", x, y)] * 10, window=10)
        shed = [result for result in results if result.status == "shed"]
        assert len(shed) == 6
        assert all(result.reason == "tenant-queue-full" for result in shed)
        assert service.summary()["requests_ok"] == 4

    def test_reject_policy_sheds_over_global_bound(self):
        config = ServeConfig(max_active_tenants=4, microbatch_size=1024,
                             microbatch_timeout_s=0.05, shed_policy="reject",
                             max_pending_per_tenant=2, max_pending_total=2)
        registry = SessionRegistry(make_learner, capacity=4)
        x, y = labeled_rows(2)
        requests = [("a", x, y), ("a", x, y), ("b", x, y)]
        results, _service = serve_requests(config, registry, requests,
                                           window=3)
        assert [result.status for result in results] == ["ok", "ok", "shed"]
        assert results[2].reason == "global-queue-full"

    def test_oldest_policy_displaces_stale_requests(self):
        config = ServeConfig(max_active_tenants=4, microbatch_size=1024,
                             microbatch_timeout_s=0.05, shed_policy="oldest",
                             max_pending_per_tenant=4)
        registry = SessionRegistry(make_learner, capacity=4)
        x, y = labeled_rows(2)
        results, _service = serve_requests(
            config, registry, [("t", x, y)] * 10, window=10)
        displaced = [index for index, result in enumerate(results)
                     if result.status == "shed"]
        assert len(displaced) == 6
        assert all(results[index].reason == "displaced"
                   for index in displaced)
        # Freshness beats age: the six oldest were displaced, the last
        # four submissions were the ones served.
        assert displaced == [0, 1, 2, 3, 4, 5]
        assert all(result.accepted for result in results[6:])

    def test_block_policy_backpressures_instead_of_shedding(self):
        config = ServeConfig(max_active_tenants=4, microbatch_size=4,
                             microbatch_timeout_s=0.005, shed_policy="block",
                             max_pending_per_tenant=2, max_pending_total=4)
        registry = SessionRegistry(make_learner, capacity=4)
        x, y = labeled_rows(2)
        results, service = serve_requests(
            config, registry, [("t", x, y)] * 12, window=12)
        assert all(result.accepted for result in results)
        assert service.summary()["requests_shed"] == 0

    def test_invalid_input_fails_fast(self):
        config = ServeConfig(max_active_tenants=4)
        registry = SessionRegistry(make_learner, capacity=4)

        async def scenario(service):
            bad_nan = await service.submit("t", np.array([[np.nan, 1.0]]))
            bad_empty = await service.submit("t", np.empty((0, 4)))
            x, _y = labeled_rows(4)
            bad_labels = await service.submit("t", x, np.array([1]))
            return bad_nan, bad_empty, bad_labels

        (bad_nan, bad_empty, bad_labels), service = run_service(
            config, registry, scenario)
        for result in (bad_nan, bad_empty, bad_labels):
            assert result.status == "failed"
            assert result.reason.startswith("invalid-input")
        assert service.summary()["requests_failed"] == 3

    def test_breaker_opens_on_repeated_failures(self):
        class ExplodingEstimator:
            def predict(self, x):
                raise RuntimeError("boom")

            def close(self):
                pass

        config = ServeConfig(max_active_tenants=4, microbatch_size=4,
                             microbatch_timeout_s=0.005,
                             breaker_threshold=2, breaker_cooldown=100)
        registry = SessionRegistry(lambda tenant: ExplodingEstimator(),
                                   capacity=4, store=NullCheckpointStore())

        async def scenario(service):
            x, y = labeled_rows(4)
            outcomes = []
            for _ in range(3):
                outcomes.append(await service.submit("t", x, y))
            return outcomes

        outcomes, service = run_service(config, registry, scenario)
        assert [result.status for result in outcomes] == [
            "failed", "failed", "shed"]
        assert outcomes[0].reason.startswith("RuntimeError")
        assert outcomes[2].reason == "circuit-open"
        assert service.summary()["breaker"]["t"]["open"] is True

    def test_pressure_degrades_resident_estimators(self):
        config = ServeConfig(max_active_tenants=4, microbatch_size=4,
                             microbatch_timeout_s=0.005, shed_policy="block",
                             max_pending_per_tenant=8, max_pending_total=8,
                             degrade_high_watermark=0.5,
                             degrade_low_watermark=0.0)
        registry = SessionRegistry(make_learner, capacity=4)
        flips = []

        async def scenario(service):
            original = service._set_degrade

            def spy(value):
                flips.append(value)
                original(value)

            service._set_degrade = spy
            x, y = labeled_rows(2)
            loop = asyncio.get_running_loop()
            tasks = [loop.create_task(service.submit("t", x, y))
                     for _ in range(8)]
            await asyncio.gather(*tasks)
            return service.summary()

        summary, _service = run_service(config, registry, scenario)
        # The pending backlog crossed the high watermark at some point...
        assert flips and flips[0] is True
        # ...and drained back under the low watermark by completion.
        assert summary["degraded"] is False
        with registry.session("t") as estimator:
            assert estimator.degrade is False

    def test_submit_requires_started_service(self):
        config = ServeConfig()
        registry = SessionRegistry(make_learner, capacity=4)
        service = StreamingService(config, registry)
        with pytest.raises(RuntimeError, match="not started"):
            asyncio.run(service.submit("t", labeled_rows(2)[0]))

    def test_shed_events_are_emitted(self):
        obs = Observability.in_memory()
        config = ServeConfig(max_active_tenants=2, microbatch_size=1024,
                             microbatch_timeout_s=0.05, shed_policy="reject",
                             max_pending_per_tenant=2)
        registry = SessionRegistry(make_learner, capacity=2, obs=obs)
        x, y = labeled_rows(2)
        serve_requests(config, registry, [("t", x, y)] * 5, obs=obs,
                       window=5)
        shed = obs.sink.events_of(RequestShed)
        assert len(shed) == 3
        assert all(event.reason == "tenant-queue-full" for event in shed)
        assert obs.sink.events_of(TenantActivated)


# -- serving equivalence -------------------------------------------------------


class TestServingEquivalence:
    def test_served_predictions_match_serial_replay(self):
        # Capacity far below the tenant count forces checkpoint churn;
        # equivalence must survive evict/rehydrate cycles.
        config = ServeConfig(max_active_tenants=4, microbatch_size=16,
                             microbatch_timeout_s=0.01,
                             learner_kwargs={"num_models": 1, "seed": 0})
        registry = SessionRegistry(
            lambda tenant: Learner(lr_factory, **config.learner_kwargs),
            capacity=config.max_active_tenants)
        arrivals = zipf_tenants(120, 16, seed=3)
        requests = make_requests(arrivals, rows_per_request=4,
                                 num_features=NUM_FEATURES,
                                 num_classes=NUM_CLASSES)
        results, service = serve_requests(config, registry, requests,
                                          window=48)
        assert all(result.accepted for result in results)
        by_tenant: dict = {}
        for (tenant, x, y), result in zip(requests, results):
            by_tenant.setdefault(tenant, []).append((x, y, result))
        checked = 0
        for tenant, entries in by_tenant.items():
            grouping = service.grouping(tenant)
            assert sum(grouping) == len(entries)
            replica = Learner(lr_factory, **config.learner_kwargs)
            served = np.concatenate(
                [result.labels for _x, _y, result in entries])
            replayed = []
            cursor = 0
            for group in grouping:
                chunk = entries[cursor:cursor + group]
                cursor += group
                x = np.vstack([entry[0] for entry in chunk])
                y = np.concatenate([entry[1] for entry in chunk])
                replayed.append(predict_and_update(replica, x, y))
            np.testing.assert_array_equal(served,
                                          np.concatenate(replayed))
            checked += 1
        assert checked == len(by_tenant) >= 10


# -- stacked co-scheduling -----------------------------------------------------


def model_factory(_tenant: str = "") -> ModelEstimator:
    return ModelEstimator(StreamingLR(
        num_features=NUM_FEATURES, num_classes=NUM_CLASSES, momentum=0.9,
        seed=3))


class TestStackedServing:
    def serve_stacked(self, requests, *, stacked=True, capacity=8,
                      window=64):
        registry = SessionRegistry(model_factory, capacity=capacity,
                                   store=MemoryCheckpointStore())
        config = ServeConfig(max_active_tenants=capacity, microbatch_size=16,
                             stacked_execution=stacked)
        return serve_requests(config, registry, requests, window=window)

    def test_stacked_serving_matches_serial_replay(self):
        arrivals = zipf_tenants(160, 8, seed=2)
        requests = make_requests(arrivals, rows_per_request=8,
                                 num_features=NUM_FEATURES,
                                 num_classes=NUM_CLASSES, seed=2)
        results, service = self.serve_stacked(requests)
        assert all(result.accepted for result in results)
        assert service.batches_stacked > 0
        assert service.stacked_groups > 0
        assert (service.summary()["batches_stacked"]
                == service.batches_stacked)
        by_tenant: dict = {}
        for (tenant, x, y), result in zip(requests, results):
            by_tenant.setdefault(tenant, []).append((x, y, result))
        for tenant, entries in by_tenant.items():
            grouping = service.grouping(tenant)
            assert sum(grouping) == len(entries)
            replica = model_factory(tenant)
            cursor = 0
            for group in grouping:
                chunk = entries[cursor:cursor + group]
                cursor += group
                x = np.vstack([entry[0] for entry in chunk])
                y = np.concatenate([entry[1] for entry in chunk])
                labels = predict_and_update(replica, x, y)
                offset = 0
                for ex, _ey, result in chunk:
                    np.testing.assert_array_equal(
                        result.labels, labels[offset:offset + len(ex)])
                    offset += len(ex)

    def test_learner_tenants_fall_back_to_serial(self):
        registry = SessionRegistry(make_learner, capacity=4)
        config = ServeConfig(max_active_tenants=4, microbatch_size=8,
                             stacked_execution=True)
        x, y = labeled_rows(8)
        results, service = serve_requests(
            config, registry,
            [("a", x, y), ("b", x, y), ("c", x, y)], window=8)
        assert all(result.accepted for result in results)
        assert service.batches_stacked == 0

    def test_config_switch_gates_stacked_execution(self):
        arrivals = zipf_tenants(80, 6, seed=4)
        requests = make_requests(arrivals, rows_per_request=8,
                                 num_features=NUM_FEATURES,
                                 num_classes=NUM_CLASSES, seed=4)
        results, service = self.serve_stacked(requests, stacked=False)
        assert all(result.accepted for result in results)
        assert service.batches_stacked == 0
        assert service.stacked_groups == 0
        # ServeConfig is the one switch: the perf flags do not gate it.
        with optimizations_disabled():
            results, service = self.serve_stacked(requests)
        assert all(result.accepted for result in results)
        assert service.batches_stacked > 0

    def test_unlabeled_requests_stack_without_updates(self):
        x = np.full((16, NUM_FEATURES), 0.5)
        results, service = self.serve_stacked(
            [("a", x), ("b", x)], window=2)
        assert all(result.accepted for result in results)
        assert service.batches_stacked == 2
        assert service.stacked_groups == 1
        # Inference-only: no updates, and predictions equal a fresh model's.
        fresh = model_factory()
        for result in results:
            np.testing.assert_array_equal(result.labels, fresh.predict(x))
        for tenant, estimator in service.registry.store._checkpoints.items():
            arrays, _meta = estimator
            assert int(arrays["__meta__.updates"]) == 0

    def test_model_estimator_checkpoint_resumes_mid_momentum(self):
        store = MemoryCheckpointStore()
        original = model_factory()
        x, y = labeled_rows(32, seed=6)
        predict_and_update(original, x, y)
        assert store.save("t", original) > 0
        assert "t" in store
        restored = model_factory()
        assert store.load("t", restored)
        assert restored.model.updates == original.model.updates
        # Identical predictions *and* identical continued training: the
        # velocity buffers round-tripped too.
        x_next, y_next = labeled_rows(32, seed=7)
        np.testing.assert_array_equal(
            predict_and_update(original, x_next, y_next),
            predict_and_update(restored, x_next, y_next))
        probe, _ = labeled_rows(16, seed=8)
        np.testing.assert_array_equal(original.predict(probe),
                                      restored.predict(probe))

    def test_stacked_metrics_emitted(self):
        obs = Observability.in_memory()
        registry = SessionRegistry(model_factory, capacity=4,
                                   store=MemoryCheckpointStore(), obs=obs)
        config = ServeConfig(max_active_tenants=4, microbatch_size=16,
                             stacked_execution=True)
        x, y = labeled_rows(16, seed=9)
        _results, service = serve_requests(
            config, registry, [("a", x, y), ("b", x, y)], obs=obs,
            window=2)
        assert service.batches_stacked == 2
        metrics = obs.registry.snapshot()
        assert "freeway_serving_stacked_batches_total" in metrics


# -- telemetry integration -----------------------------------------------------


class TestServingTelemetry:
    def test_service_summary_feeds_health_endpoint(self):
        obs = Observability.in_memory()
        config = ServeConfig(max_active_tenants=4, microbatch_size=8,
                             microbatch_timeout_s=0.01)
        registry = SessionRegistry(make_learner, capacity=4, obs=obs)
        x, y = labeled_rows(4)
        _results, service = serve_requests(
            config, registry, [("a", x, y), ("b", x, y)], obs=obs)
        with TelemetryServer(obs, health_source=service.summary) as server:
            with urllib.request.urlopen(f"{server.url}/health",
                                        timeout=10) as response:
                health = json.loads(response.read())
        assert health["status"] == "ok"
        assert health["summary"]["requests_ok"] == 2
        assert health["summary"]["registry"]["activations"] == 2
        metrics = obs.registry.snapshot()
        assert "freeway_serving_requests_total" in metrics
        assert "freeway_serving_activations_total" in metrics
