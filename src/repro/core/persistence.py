"""Learner checkpointing: save and restore a running FreewayML deployment.

A streaming learner's value is its accumulated state — the granularity
models, the knowledge store, the fitted shift PCA, and the labeled
experience.  :func:`save_learner` serializes all of it into a single
``.npz`` archive; :func:`load_learner` restores it into a freshly
constructed :class:`~repro.core.learner.Learner` (built from the same
model factory), so serving can resume where it stopped.

Rolling statistics (severity histories, accuracy EMAs) are saved too, so a
restored learner classifies the next batch exactly as the original would
have.
"""

from __future__ import annotations

import io
import json
import os
import threading
from collections import Counter
from pathlib import Path

import numpy as np

from ..analysis.checkpoint import check_state_dict
from ..obs import CheckpointRejected, CheckpointWritten
from ..resilience.degrade import CircuitBreaker
from .learner import Learner

__all__ = ["save_learner", "load_learner", "learner_state", "restore_learner_state"]

_META_KEY = "__freewayml_meta__"


def _flatten(prefix: str, state: dict, arrays: dict) -> None:
    for name, value in state.items():
        arrays[f"{prefix}{name}"] = np.asarray(value)


def _unflatten(prefix: str, arrays: dict) -> dict:
    state = {}
    for key, value in arrays.items():
        if key.startswith(prefix):
            state[key[len(prefix):]] = value
    return state


def learner_state(learner: Learner) -> tuple[dict, dict]:
    """Extract ``(arrays, meta)`` capturing a learner's full mutable state."""
    arrays: dict[str, np.ndarray] = {}
    meta: dict = {
        "version": 1,
        "batch_counter": learner._batch_counter,
        "concept_alert": learner._concept_alert,
        "sigma": learner.ensemble.sigma,
        "levels": [],
        "knowledge": [],
        "experience": [],
        # Degrade-chain state: without these a rehydrated tenant silently
        # reset its circuit breakers (and its processed/strategy tallies).
        "processed": learner._processed,
        "strategy_counts": dict(learner._strategy_counts),
        "degrade": learner.degrade,
    }
    if learner.breaker is not None:
        meta["breaker"] = learner.breaker.state_dict()

    for index, level in enumerate(learner.ensemble.levels):
        _flatten(f"level{index}/", level.model.state_dict(), arrays)
        reference = level.reference_embedding()
        if reference is not None:
            arrays[f"level{index}/__reference__"] = reference
        level_meta = {
            "updates": level.updates,
            "accuracy_ema": level.accuracy_ema,
            "last_disorder": level.last_disorder,
        }
        if level.window is not None:
            window = level.window
            for position, entry in enumerate(window._entries):  # repro: noqa[REP007] — checkpoint serialization, off the serving path
                prefix = f"level{index}/window{position}/"
                arrays[f"{prefix}x"] = entry.x
                arrays[f"{prefix}y"] = entry.y
                arrays[f"{prefix}embedding"] = entry.embedding
            window_weights = window.entry_weights()
            level_meta["window"] = {
                "entries": [
                    {"weight": float(window_weights[position]),
                     "index": entry.index}
                    for position, entry in enumerate(window._entries)
                ],
                "arrivals": window._arrivals,
                "last_disorder": window._last_disorder,
                "rng_state": window._rng.bit_generator.state,
            }
        meta["levels"].append(level_meta)

    for index, entry in enumerate(learner.knowledge.entries):  # repro: noqa[REP007] — checkpoint serialization, off the serving path
        prefix = f"knowledge{index}/"
        _flatten(prefix, entry.state, arrays)
        arrays[f"{prefix}__embedding__"] = entry.embedding
        meta["knowledge"].append({
            "model_kind": entry.model_kind,
            "disorder": entry.disorder,
            "batch_index": entry.batch_index,
        })

    for index, (x, y, clock) in enumerate(learner.experience._entries):  # repro: noqa[REP007] — checkpoint serialization, off the serving path
        arrays[f"experience{index}/x"] = x
        arrays[f"experience{index}/y"] = y
        meta["experience"].append({"clock": clock})
    meta["experience_clock"] = learner.experience._clock
    meta["experience_size"] = learner.experience._size

    pca = learner.classifier.pca
    if pca.is_fitted:
        arrays["pca/mean"] = pca.mean
        arrays["pca/components"] = pca.components
        arrays["pca/explained_variance"] = pca.explained_variance
    previous = learner.classifier._previous_embedding
    if previous is not None:
        arrays["classifier/previous_embedding"] = previous
    history = learner.classifier.history.as_array()
    if history.size:
        arrays["classifier/history"] = history
    for name, tracker in (("severity", learner.classifier.severity),
                          ("confidence", learner._confidence),
                          ("errors", learner._errors)):
        values = np.asarray(list(tracker._distances), dtype=float)
        if values.size:
            arrays[f"tracker/{name}"] = values
    return arrays, meta


def _write_atomic(path: Path, blob: bytes) -> None:
    """Replace ``path`` by ``blob`` so readers see the old or the new file.

    The bytes go to a temp file in the same directory, are fsynced, and
    only then renamed over ``path``; a write that fails midway removes
    the temp file and leaves any previous checkpoint untouched.
    """
    temp = path.with_name(
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(temp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def save_learner(learner: Learner, path: str | Path) -> int:
    """Write a learner checkpoint to ``path``; returns bytes written.

    The write is atomic: a crash or error midway leaves the previous
    checkpoint at ``path`` loadable.  When the learner carries an enabled
    observability facade, a :class:`~repro.obs.CheckpointWritten` event
    records the durable write.
    """
    with learner.obs.tracer.span("persistence.save"):
        arrays, meta = learner_state(learner)
        buffer = io.BytesIO()
        arrays = dict(arrays)
        arrays[_META_KEY] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        np.savez(buffer, **arrays)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = buffer.getvalue()
        _write_atomic(path, blob)
    if learner.obs.enabled:
        learner.obs.emit(CheckpointWritten(
            path=str(path), nbytes=len(blob),
            batch=learner._batch_counter,
        ))
        learner.obs.registry.counter(
            "freeway_checkpoints_total", "learner checkpoints written",
        ).inc()
    return len(blob)


def restore_learner_state(learner: Learner, arrays: dict, meta: dict) -> Learner:
    """Load ``(arrays, meta)`` produced by :func:`learner_state` in place."""
    if meta.get("version") != 1:
        raise ValueError(f"unsupported checkpoint version {meta.get('version')!r}")
    if len(meta["levels"]) != len(learner.ensemble.levels):
        raise ValueError(
            f"checkpoint has {len(meta['levels'])} granularity levels but "
            f"the learner has {len(learner.ensemble.levels)} — construct it "
            "with the same num_models/window_batches"
        )

    learner._batch_counter = int(meta["batch_counter"])
    learner._concept_alert = bool(meta["concept_alert"])
    learner.ensemble.sigma = float(meta["sigma"])

    # Optional keys: absent in pre-fix version-1 checkpoints, which stay
    # loadable (the degrade chain then starts fresh, as it always did).
    if "processed" in meta:
        learner._processed = int(meta["processed"])
    if "strategy_counts" in meta:
        learner._strategy_counts = Counter(
            {name: int(count)
             for name, count in meta["strategy_counts"].items()}
        )
    if "degrade" in meta:
        learner.set_degrade(bool(meta["degrade"]))
    if "breaker" in meta:
        if learner.breaker is None:
            learner.breaker = CircuitBreaker()
        learner.breaker.load_state_dict(meta["breaker"])

    for index, (level, level_meta) in enumerate(
            zip(learner.ensemble.levels, meta["levels"])):
        prefix = f"level{index}/"
        state = {name: value for name, value
                 in _unflatten(prefix, arrays).items()
                 if not (name.startswith("__") or name.startswith("window"))}
        report = check_state_dict(level.model.state_dict(), state)
        if not report.ok:
            if learner.obs.enabled:
                learner.obs.emit(CheckpointRejected(
                    source="learner_checkpoint",
                    reason=report.problems[0].describe(),
                    problems=len(report.problems),
                    batch=int(meta["batch_counter"]),
                    model_kind=level.name,
                ))
                learner.obs.registry.counter(
                    "freeway_checkpoints_rejected_total",
                    "checkpoint restores blocked by the compat checker",
                ).labels(source="learner_checkpoint").inc()
            report.raise_if_incompatible(
                context=f"granularity level {index} ({level.name})"
            )
        level.model.load_state_dict(state)
        level.updates = int(level_meta["updates"])
        level.accuracy_ema = level_meta["accuracy_ema"]
        level._last_disorder = float(level_meta["last_disorder"])
        reference_key = f"{prefix}__reference__"
        if reference_key in arrays:
            level._reference = np.asarray(arrays[reference_key])
        window_meta = level_meta.get("window")
        if window_meta is not None and level.window is not None:
            from .asw import WindowEntry
            window = level.window
            window._entries = [
                WindowEntry(
                    x=np.asarray(arrays[f"{prefix}window{position}/x"]),
                    y=np.asarray(arrays[f"{prefix}window{position}/y"]),
                    embedding=np.asarray(
                        arrays[f"{prefix}window{position}/embedding"]
                    ),
                    index=int(entry_meta["index"]),
                )
                for position, entry_meta
                in enumerate(window_meta["entries"])
            ]
            # Rebuild the window's parallel arrays (weights/sizes/stacked
            # embeddings) alongside the entry list.
            window._weights = np.asarray(
                [float(entry_meta["weight"])
                 for entry_meta in window_meta["entries"]], dtype=float)
            window._sizes = np.asarray(
                [len(entry.x) for entry in window._entries], dtype=np.int64)
            window._embeddings = (
                np.stack([entry.embedding for entry in window._entries])
                if window._entries else None)
            window._arrivals = int(window_meta["arrivals"])
            window._last_disorder = float(window_meta["last_disorder"])
            window._rng.bit_generator.state = window_meta["rng_state"]

    learner.knowledge._entries.clear()
    for index, entry_meta in enumerate(meta["knowledge"]):
        prefix = f"knowledge{index}/"
        state = {name: value for name, value
                 in _unflatten(prefix, arrays).items()
                 if not name.startswith("__")}
        learner.knowledge.preserve(
            arrays[f"{prefix}__embedding__"], state,
            entry_meta["model_kind"], entry_meta["disorder"],
            entry_meta["batch_index"],
        )

    learner.experience._entries.clear()
    for index, entry_meta in enumerate(meta["experience"]):
        learner.experience._entries.append((
            np.asarray(arrays[f"experience{index}/x"]),
            np.asarray(arrays[f"experience{index}/y"]),
            int(entry_meta["clock"]),
        ))
    learner.experience._clock = int(meta["experience_clock"])
    learner.experience._size = int(meta["experience_size"])

    pca = learner.classifier.pca
    if "pca/mean" in arrays:
        pca.mean = np.asarray(arrays["pca/mean"])
        pca.components = np.asarray(arrays["pca/components"])
        pca.explained_variance = np.asarray(arrays["pca/explained_variance"])
    if "classifier/previous_embedding" in arrays:
        learner.classifier._previous_embedding = np.asarray(
            arrays["classifier/previous_embedding"]
        )
    if "classifier/history" in arrays:
        for row in np.asarray(arrays["classifier/history"]):
            learner.classifier.history.append(row)
    for name, tracker in (("severity", learner.classifier.severity),
                          ("confidence", learner._confidence),
                          ("errors", learner._errors)):
        key = f"tracker/{name}"
        if key in arrays:
            tracker.restore(arrays[key])
    return learner


def load_learner(learner: Learner, path: str | Path) -> Learner:
    """Restore a checkpoint written by :func:`save_learner` into ``learner``.

    ``learner`` must be constructed with the same model factory and the
    same ``num_models``/``window_batches`` as the saved one.
    """
    with np.load(Path(path), allow_pickle=False) as archive:
        arrays = {key: archive[key] for key in archive.files}
    meta = json.loads(bytes(arrays.pop(_META_KEY)).decode("utf-8"))
    return restore_learner_state(learner, arrays, meta)
