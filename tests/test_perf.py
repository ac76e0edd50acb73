"""Tests for the hot-path performance layer (``repro.perf``).

The contract of every fast path is *bitwise* equivalence with its
reference: the same stream must produce the same accuracy sequence and
the same final parameters, down to the last float bit.  These tests hold
that line — first per fast path against the retained reference function
(tape vs ``Tensor._run_dfs``, ``fused_linear`` vs ``F.linear`` plus
Tensor activations, fused vs chained cross-entropy and softmax), then end
to end through ``Learner.process``: plans on vs off, and the default path
vs every reference patched in at once.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import Learner
from repro.data.drift import (GaussianMixtureConcept, Segment,
                              stream_from_schedule)
from repro.eval import model_factory_for
from repro.nn import Tensor
from repro.nn import functional as F
from repro.obs import Observability
from repro.perf import (HOT_PATH_HISTOGRAM, BufferPool, HotPathProfiler,
                        PerfConfig, config, configure,
                        optimizations_disabled, optimizations_enabled)


# -- feature flags ------------------------------------------------------------


class TestPerfConfig:
    def test_all_flags_on_by_default(self):
        assert PerfConfig.__slots__ == ("plan_capture",)
        assert config.as_dict() == {"plan_capture": True}

    def test_configure_restores_on_exit(self):
        before = config.as_dict()
        with configure(plan_capture=False):
            assert not config.plan_capture
        assert config.as_dict() == before

    def test_configure_rejects_unknown_flag(self):
        # The switches of the switchless fast paths are gone for good.
        for flag in ("warp_drive", "fused_loss", "graph_tape",
                     "inplace_optim"):
            with pytest.raises(TypeError, match="unknown perf flags"):
                with configure(**{flag: False}):
                    pass  # pragma: no cover

    def test_disabled_and_enabled_contexts(self):
        with optimizations_disabled():
            assert not any(config.as_dict().values())
            with optimizations_enabled():
                assert all(config.as_dict().values())
            assert not any(config.as_dict().values())
        assert all(config.as_dict().values())

    def test_fresh_instance_can_start_disabled(self):
        assert not any(PerfConfig(enabled=False).as_dict().values())


# -- buffer pool --------------------------------------------------------------


class TestBufferPool:
    def test_acquire_release_reuses_buffer(self):
        pool = BufferPool()
        first = pool.acquire((4, 3))
        assert pool.release(first)
        again = pool.acquire((4, 3))
        assert again is first
        stats = pool.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_zeros_clears_recycled_contents(self):
        pool = BufferPool()
        dirty = pool.acquire((5,))
        dirty[:] = 7.0
        pool.release(dirty)
        clean = pool.zeros((5,))
        assert clean is dirty
        np.testing.assert_array_equal(clean, np.zeros(5))

    def test_release_refuses_views(self):
        pool = BufferPool()
        base = np.zeros((4, 4))
        assert not pool.release(base[:2])
        assert pool.stats()["released"] == 0

    def test_max_per_key_caps_retention(self):
        pool = BufferPool(max_per_key=1)
        assert pool.release(np.zeros(3))
        assert not pool.release(np.zeros(3))
        assert pool.stats()["idle_buffers"] == 1

    def test_distinct_dtypes_use_distinct_lists(self):
        pool = BufferPool()
        pool.release(np.zeros(3, dtype=np.float64))
        from_pool = pool.acquire(3, dtype=np.float32)
        assert from_pool.dtype == np.float32
        assert pool.stats()["misses"] == 1

    def test_clear_resets_thread_state(self):
        pool = BufferPool()
        pool.release(np.zeros(2))
        pool.clear()
        assert pool.stats() == {"hits": 0, "misses": 0, "released": 0,
                                "idle_buffers": 0}


# -- per-fast-path bitwise equivalence ----------------------------------------


def _dfs_backward(loss):
    """The reference backward: DFS topo sort from ``loss``, no tape."""
    Tensor._run_dfs([(loss, np.ones_like(loss.data))])


def _unfused_forward(model, x):
    """``model`` as ``F.linear`` plus Tensor activations, layer by layer."""
    for layer in model.layers:
        if type(layer) is nn.Linear:
            x = F.linear(x, layer.weight, layer.bias)
        else:
            x = getattr(x, type(layer).__name__.lower())()
    return x


def _grads(model, x, y, forward=None, backward=None):
    """Forward + backward one batch; returns (loss_bits, grad arrays)."""
    for p in model.parameters():
        p.grad = None
    out = (forward or (lambda m, t: m(t)))(model, nn.Tensor(x))
    loss = F.cross_entropy(out, y)
    if backward is None:
        loss.backward()
    else:
        backward(loss)
    return (loss.data.tobytes(),
            [p.grad.copy() for p in model.parameters()])


def _small_problem(seed=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(32, 6))
    y = rng.integers(0, 4, size=32)
    return x, y


def _mlp(seed=0):
    rng = np.random.default_rng(seed)
    return nn.Sequential(nn.Linear(6, 8, rng=rng), nn.ReLU(),
                         nn.Linear(8, 4, rng=rng))


class TestBitwiseEquivalence:
    def test_tape_matches_dfs_backward(self):
        x, y = _small_problem()
        model = _mlp()
        loss_tape, grads_tape = _grads(model, x, y)
        loss_dfs, grads_dfs = _grads(model, x, y, backward=_dfs_backward)
        assert loss_tape == loss_dfs
        for a, b in zip(grads_tape, grads_dfs):
            assert a.tobytes() == b.tobytes()

    def test_fused_linear_matches_unfused(self):
        x, y = _small_problem(seed=5)
        for activation in (nn.ReLU, nn.Tanh, nn.Sigmoid):
            rng = np.random.default_rng(0)
            model = nn.Sequential(nn.Linear(6, 8, rng=rng), activation(),
                                  nn.Linear(8, 4, rng=rng))
            loss_f, grads_f = _grads(model, x, y)
            loss_u, grads_u = _grads(model, x, y, forward=_unfused_forward)
            assert loss_f == loss_u
            for a, b in zip(grads_f, grads_u):
                assert a.tobytes() == b.tobytes()

    def test_fused_loss_matches_chain(self):
        rng = np.random.default_rng(11)
        logits_data = rng.normal(scale=4.0, size=(64, 5))
        labels = rng.integers(0, 5, size=64)
        results = []
        for loss_fn in (F.cross_entropy,
                        lambda z, t: F.nll_loss(F.log_softmax(z), t)):
            logits = nn.Tensor(logits_data.copy(), requires_grad=True)
            loss = loss_fn(logits, labels)
            loss.backward()
            results.append((loss.data.tobytes(), logits.grad.tobytes()))
        assert results[0] == results[1]

    def test_inference_softmax_matches_graph_path(self):
        rng = np.random.default_rng(13)
        logits = nn.Tensor(rng.normal(scale=6.0, size=(40, 7)))
        fast = F.softmax(logits).data
        slow = F.log_softmax(logits).exp().data
        assert fast.tobytes() == slow.tobytes()


# -- end-to-end equivalence through the learner -------------------------------


def _probe_stream(num_batches=12, batch_size=64):
    rng = np.random.default_rng(7)
    concepts = {"c0": GaussianMixtureConcept(4, 16, rng, spread=3.0)}
    segments = [Segment("c0", num_batches, kind="directional",
                        magnitude=0.05)]
    return list(stream_from_schedule(concepts, segments, batch_size, rng,
                                     num_classes=4))


def _learner_run(kind, stream):
    """Accuracy sequence and every level's ``state_dict`` bytes."""
    factory = model_factory_for(kind, 16, 4, lr=0.3, seed=0)
    learner = Learner(factory, seed=0)
    accs = [learner.process(batch).accuracy for batch in stream]
    params = [np.asarray(value).tobytes()
              for level in learner.ensemble.levels
              for value in level.model.state_dict().values()]
    return accs, params


@pytest.fixture
def unfused_reference(monkeypatch):
    """Installer for the retained reference of every switchless fast path.

    Calling it patches in, until the test ends: ``Linear``/``Sequential``
    forward as ``F.linear`` plus Tensor activations, 2-D
    ``F.cross_entropy`` as ``nll_loss(log_softmax(.))``, ``F.softmax``
    through the graph ops, and ``Tensor.backward`` as ``Tensor._run_dfs``.
    Returns a counter of the patched calls, so a test can check the
    references really ran.
    """
    from collections import Counter

    calls = Counter()
    fused_cross_entropy = F.cross_entropy

    def linear_forward(self, x):
        calls["linear"] += 1
        return F.linear(x, self.weight, self.bias)

    def sequential_forward(self, x):
        calls["sequential"] += 1
        for layer in self.layers:
            x = layer(x)
        return x

    def chain_cross_entropy(logits, labels):
        if logits.ndim != 2:
            return fused_cross_entropy(logits, labels)
        calls["cross_entropy"] += 1
        return F.nll_loss(F.log_softmax(logits, axis=-1), labels)

    def graph_softmax(x, axis=-1):
        calls["softmax"] += 1
        return F.log_softmax(x, axis=axis).exp()

    def dfs_backward(self, grad=None):
        calls["backward"] += 1
        if grad is None:
            grad = np.ones_like(self.data)
        Tensor._run_dfs([(self, np.asarray(grad, dtype=self.data.dtype))])

    def install():
        monkeypatch.setattr(nn.Linear, "forward", linear_forward)
        monkeypatch.setattr(nn.Sequential, "forward", sequential_forward)
        monkeypatch.setattr(F, "cross_entropy", chain_cross_entropy)
        monkeypatch.setattr(F, "softmax", graph_softmax)
        monkeypatch.setattr(Tensor, "backward", dfs_backward)
        return calls

    return install


class TestLearnerEquivalence:
    @pytest.mark.parametrize("kind", ["lr", "mlp"])
    def test_accuracy_sequence_and_params_bitwise_identical(self, kind):
        """Captured plans on vs off."""
        stream = _probe_stream()
        accs_on, params_on = _learner_run(kind, stream)
        with optimizations_disabled():
            accs_off, params_off = _learner_run(kind, stream)
        assert accs_on == accs_off
        assert params_on == params_off

    @pytest.mark.parametrize("kind", ["lr", "mlp"])
    def test_unfused_reference_matches_default_path(self, kind,
                                                    unfused_reference):
        """The default path vs every reference at once, plans off."""
        stream = _probe_stream()
        accs_fast, params_fast = _learner_run(kind, stream)
        calls = unfused_reference()
        with optimizations_disabled():
            accs_ref, params_ref = _learner_run(kind, stream)
        expected = {"linear", "cross_entropy", "softmax", "backward"}
        if kind == "mlp":
            expected.add("sequential")
        assert expected <= {name for name, count in calls.items() if count}
        assert accs_fast == accs_ref
        assert params_fast == params_ref


# -- profiler -----------------------------------------------------------------


class TestHotPathProfiler:
    def test_stage_spans_aggregate(self):
        profiler = HotPathProfiler()
        for _ in range(3):
            with profiler.stage("train"):
                pass
        with profiler.stage("assess"):
            pass
        summary = profiler.summary()
        assert summary["train"]["count"] == 3
        assert summary["assess"]["count"] == 1
        for stats in summary.values():
            assert stats["total_s"] >= 0.0
            assert stats["max_s"] >= stats["p50_s"] >= 0.0

    def test_render_lists_stages_by_total(self):
        profiler = HotPathProfiler()
        profiler.record("train", 0.5)
        profiler.record("assess", 0.1)
        table = profiler.render()
        lines = table.splitlines()
        assert "stage" in lines[0]
        assert lines[1].startswith("train")
        assert lines[2].startswith("assess")

    def test_render_empty(self):
        assert "no samples" in HotPathProfiler().render()

    @staticmethod
    def _shares(table):
        return {line.split()[0]: float(line.split()[-1].rstrip("%"))
                for line in table.splitlines()[1:]}

    def test_render_shares_exclude_nested_plan_rows(self):
        profiler = HotPathProfiler()
        profiler.record("train", 0.3)
        profiler.record("assess", 0.1)
        profiler.observe_plan_event("replay", 0.2)  # spent inside "train"
        shares = self._shares(profiler.render())
        assert shares == {"train": 75.0, "plan.replay": 50.0, "assess": 25.0}

    def test_learner_top_level_shares_sum_to_100(self):
        profiler = HotPathProfiler()
        factory = model_factory_for("mlp", 16, 4, lr=0.3, seed=0)
        with Learner(factory, seed=0, profiler=profiler) as learner:
            for batch in _probe_stream(num_batches=6):
                learner.process(batch)
        shares = self._shares(profiler.render())
        assert any(name.startswith("plan.") for name in shares)
        top_level = [share for name, share in shares.items()
                     if not name.startswith("plan.")]
        # Each printed share is rounded to 0.1%.
        assert sum(top_level) == pytest.approx(100.0,
                                               abs=0.05 * len(top_level))

    def test_reset_drops_samples(self):
        profiler = HotPathProfiler()
        profiler.record("train", 0.1)
        profiler.reset()
        assert profiler.summary() == {}

    def test_feeds_histogram_when_obs_enabled(self):
        obs = Observability()
        profiler = HotPathProfiler(obs=obs)
        profiler.record("train", 0.002)
        snapshot = obs.registry.snapshot()
        assert HOT_PATH_HISTOGRAM in snapshot
        series = snapshot[HOT_PATH_HISTOGRAM]["series"]
        assert any(entry["labels"].get("stage") == "train"
                   for entry in series)

    def test_learner_wires_all_stages(self):
        profiler = HotPathProfiler()
        factory = model_factory_for("lr", 16, 4, lr=0.3, seed=0)
        learner = Learner(factory, seed=0, profiler=profiler)
        for batch in _probe_stream(num_batches=6):
            learner.process(batch)
        summary = profiler.summary()
        for stage in ("assess", "select", "infer", "train", "experience"):
            assert stage in summary, f"stage {stage!r} never recorded"
            assert summary[stage]["count"] == 6

    def test_learner_without_profiler_records_nothing(self):
        factory = model_factory_for("lr", 16, 4, lr=0.3, seed=0)
        learner = Learner(factory, seed=0)
        assert learner.profiler is None
        learner.process(_probe_stream(num_batches=1)[0])
