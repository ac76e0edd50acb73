"""Tests for learner checkpointing (repro.core.persistence)."""

import errno
import os

import numpy as np
import pytest

from repro.core import Learner, load_learner, save_learner
from repro.data import NSLKDDSimulator
from repro.models import StreamingMLP


def factory():
    return StreamingMLP(num_features=20, num_classes=5, lr=0.3, seed=0)


def make_learner(**kwargs):
    return Learner(factory, window_batches=4, seed=0, **kwargs)


@pytest.fixture
def trained_learner():
    learner = make_learner()
    for batch in NSLKDDSimulator(seed=1).stream(30, batch_size=128):
        learner.process(batch)
    return learner


class TestRoundTrip:
    def test_predictions_identical_after_restore(self, trained_learner,
                                                 tmp_path, rng):
        path = tmp_path / "checkpoint.npz"
        written = save_learner(trained_learner, path)
        assert written > 0
        assert path.exists()

        restored = load_learner(make_learner(), path)
        probe = rng.normal(size=(64, 20))
        for original_level, restored_level in zip(
                trained_learner.ensemble.levels, restored.ensemble.levels):
            np.testing.assert_allclose(
                restored_level.model.predict_proba(probe),
                original_level.model.predict_proba(probe.copy()),
            )

    def test_knowledge_store_restored(self, trained_learner, tmp_path):
        path = tmp_path / "checkpoint.npz"
        save_learner(trained_learner, path)
        restored = load_learner(make_learner(), path)
        assert len(restored.knowledge) == len(trained_learner.knowledge)
        for original, copy in zip(trained_learner.knowledge.entries,
                                  restored.knowledge.entries):
            assert original.model_kind == copy.model_kind
            assert original.batch_index == copy.batch_index
            np.testing.assert_array_equal(original.embedding, copy.embedding)

    def test_experience_buffer_restored(self, trained_learner, tmp_path):
        path = tmp_path / "checkpoint.npz"
        save_learner(trained_learner, path)
        restored = load_learner(make_learner(), path)
        assert len(restored.experience) == len(trained_learner.experience)
        original_x, original_y = trained_learner.experience.recent(32)
        restored_x, restored_y = restored.experience.recent(32)
        np.testing.assert_array_equal(original_x, restored_x)
        np.testing.assert_array_equal(original_y, restored_y)

    def test_classifier_state_restored(self, trained_learner, tmp_path):
        path = tmp_path / "checkpoint.npz"
        save_learner(trained_learner, path)
        restored = load_learner(make_learner(), path)
        np.testing.assert_array_equal(
            restored.classifier.pca.components,
            trained_learner.classifier.pca.components,
        )
        assert (len(restored.classifier.severity)
                == len(trained_learner.classifier.severity))
        assert (len(restored.classifier.history)
                == len(trained_learner.classifier.history))

    def test_restored_learner_continues_identically(self, tmp_path):
        """The acid test: process the same future batches from a saved and
        a live learner — reports must match."""
        batches = NSLKDDSimulator(seed=2).stream(40, batch_size=128
                                                 ).materialize()
        live = make_learner()
        for batch in batches[:25]:
            live.process(batch)

        path = tmp_path / "mid.npz"
        save_learner(live, path)
        resumed = load_learner(make_learner(), path)

        for batch in batches[25:]:
            live_report = live.process(batch)
            resumed_report = resumed.process(batch)
            assert live_report.strategy == resumed_report.strategy
            assert live_report.pattern == resumed_report.pattern
            assert live_report.accuracy == pytest.approx(
                resumed_report.accuracy
            )


class TestResilienceStateRoundTrip:
    """Regression: degrade/breaker posture must survive a checkpoint.

    Before the fix, ``save_learner`` dropped the degrade flag, the
    breaker's circuits, and the processed/strategy counters — a serving
    registry that evicted a degraded tenant would rehydrate it with every
    circuit silently closed.
    """

    def test_degrade_and_open_circuit_survive_restore(self, tmp_path):
        learner = make_learner(degrade=True, breaker_threshold=2,
                               breaker_cooldown=50)
        for batch in NSLKDDSimulator(seed=1).stream(3, batch_size=128):
            learner.process(batch)
        learner.breaker.record_failure("cec")
        learner.breaker.record_failure("cec")
        assert learner.breaker.is_open("cec")

        path = tmp_path / "degraded.npz"
        save_learner(learner, path)
        restored = load_learner(make_learner(), path)

        assert restored.degrade is True
        assert restored.breaker is not None
        assert restored.breaker.is_open("cec")
        assert restored.breaker.state_dict() == learner.breaker.state_dict()
        assert restored._processed == learner._processed
        assert restored._strategy_counts == learner._strategy_counts

    def test_cooldown_clock_resumes_not_resets(self, tmp_path):
        learner = make_learner(degrade=True, breaker_threshold=1,
                               breaker_cooldown=4)
        learner.breaker.tick()
        learner.breaker.tick()
        learner.breaker.record_failure("asw")
        path = tmp_path / "mid-cooldown.npz"
        save_learner(learner, path)
        restored = load_learner(make_learner(), path)
        # Ticks reach the recorded cooldown horizon exactly when the
        # uninterrupted learner's would — the clock was not reset.
        for _ in range(4):
            assert restored.breaker.is_open("asw")
            restored.breaker.tick()
            learner.breaker.tick()
        assert not restored.breaker.is_open("asw")
        assert not learner.breaker.is_open("asw")

    def test_old_checkpoints_without_resilience_keys_load(self, tmp_path):
        import json

        import numpy as np

        path = tmp_path / "old.npz"
        save_learner(make_learner(), path)
        # Strip the new meta keys, simulating a pre-fix checkpoint.
        meta_key = "__freewayml_meta__"
        with np.load(path, allow_pickle=False) as bundle:
            arrays = {name: bundle[name] for name in bundle.files}
        meta = json.loads(bytes(arrays[meta_key]).decode("utf-8"))
        for key in ("processed", "strategy_counts", "degrade", "breaker"):
            meta.pop(key, None)
        arrays[meta_key] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez(path, **arrays)
        restored = load_learner(make_learner(), path)
        assert restored.degrade is False
        assert restored.breaker is None


class TestValidation:
    def test_level_count_mismatch_rejected(self, trained_learner, tmp_path):
        path = tmp_path / "checkpoint.npz"
        save_learner(trained_learner, path)
        wrong = Learner(factory, num_models=3, window_batches=4, seed=0)
        with pytest.raises(ValueError, match="granularity levels"):
            load_learner(wrong, path)

    def test_untrained_learner_round_trips(self, tmp_path):
        fresh = make_learner()
        path = tmp_path / "fresh.npz"
        save_learner(fresh, path)
        restored = load_learner(make_learner(), path)
        assert restored._batch_counter == 0
        assert len(restored.knowledge) == 0


class TestAtomicWrite:
    @staticmethod
    def _torn_fsync(fd):
        os.ftruncate(fd, 16)  # only part of the archive reached the disk
        raise OSError(errno.ENOSPC, "No space left on device")

    @staticmethod
    def _failed_replace(src, dst):
        raise OSError(errno.EIO, "Input/output error")

    @pytest.mark.parametrize("call, fault", [("fsync", "_torn_fsync"),
                                             ("replace", "_failed_replace")])
    def test_failed_write_keeps_previous_checkpoint(self, trained_learner,
                                                    tmp_path, monkeypatch,
                                                    call, fault):
        path = tmp_path / "checkpoint.npz"
        save_learner(make_learner(), path)
        previous = path.read_bytes()
        monkeypatch.setattr(os, call, getattr(self, fault))
        with pytest.raises(OSError):
            save_learner(trained_learner, path)
        monkeypatch.undo()

        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
        assert path.read_bytes() == previous
        assert load_learner(make_learner(), path)._batch_counter == 0

    def test_overwrite_replaces_the_file(self, trained_learner, tmp_path):
        path = tmp_path / "checkpoint.npz"
        save_learner(make_learner(), path)
        save_learner(trained_learner, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
        restored = load_learner(make_learner(), path)
        assert restored._batch_counter == trained_learner._batch_counter
