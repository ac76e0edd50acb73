"""Shift-distance primitives (paper Equations 6–7 and the Pattern C test).

The current shift is the Euclidean distance between the embeddings of
consecutive batches, :math:`d_t = \\lVert \\bar y_t - \\bar y_{t-1} \\rVert`
(Eq. 7).  Pattern C additionally needs :math:`d_h`, the distance from the
current batch to the *nearest* previously seen distribution.
"""

from __future__ import annotations

import numpy as np

__all__ = ["shift_distance", "nearest_distance", "EmbeddingHistory"]


def shift_distance(current: np.ndarray, previous: np.ndarray) -> float:
    """Euclidean distance between two batch embeddings (Eq. 7)."""
    current = np.asarray(current, dtype=float).reshape(-1)
    previous = np.asarray(previous, dtype=float).reshape(-1)
    if current.shape != previous.shape:
        raise ValueError(
            f"embedding shape mismatch: {current.shape} vs {previous.shape}"
        )
    return float(np.linalg.norm(current - previous))


def nearest_distance(current: np.ndarray, history: np.ndarray) -> tuple[float, int]:
    """Distance and index of the nearest historical embedding (for ``d_h``)."""
    history = np.asarray(history, dtype=float)
    if history.ndim != 2 or len(history) == 0:
        raise ValueError("history must be a non-empty (k, d) array")
    current = np.asarray(current, dtype=float).reshape(-1)
    distances = np.linalg.norm(history - current, axis=1)
    index = int(distances.argmin())
    return float(distances[index]), index


class EmbeddingHistory:
    """Bounded chronological store of batch embeddings.

    Used both by the pattern classifier (to compute :math:`d_h`) and by the
    shift graph.  The most recent ``exclude_recent`` entries are skipped when
    searching for the nearest historical distribution, so the "previous
    batch" itself does not masquerade as a reoccurrence.

    Storage is one preallocated ``(2·capacity, d)`` buffer with a sliding
    ``[start, start+count)`` window, maintained incrementally on append
    and evict — :meth:`nearest` and :meth:`as_array` never restack the
    history.  Appends are amortized O(d): eviction advances ``start``,
    and a compaction memmove runs once every ``capacity`` appends when
    the window reaches the buffer's end.  :meth:`nearest` is
    :func:`nearest_distance` over the live window, bit for bit.
    """

    def __init__(self, capacity: int = 256, exclude_recent: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1; got {capacity}")
        if exclude_recent < 0:
            raise ValueError(f"exclude_recent must be >= 0; got {exclude_recent}")
        self.capacity = capacity
        self.exclude_recent = exclude_recent
        self._buffer: np.ndarray | None = None
        self._start = 0
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def _live(self, count: int | None = None) -> np.ndarray:
        """Contiguous oldest-first view of the first ``count`` live rows."""
        count = self._count if count is None else count
        return self._buffer[self._start:self._start + count]

    def append(self, embedding: np.ndarray) -> None:
        """Record a batch embedding, evicting the oldest beyond capacity."""
        row = np.asarray(embedding, dtype=float).reshape(-1)
        buffer = self._buffer
        if buffer is None or buffer.shape[1] != row.size:
            # First append, or the embedding space changed (PCA refit):
            # (re)build the buffer in the new dimensionality.
            buffer = np.empty((2 * self.capacity, row.size))
            self._buffer = buffer
            self._start = 0
            self._count = 0
        end = self._start + self._count
        if end == buffer.shape[0]:
            # Window hit the buffer's end: slide it back to the front.
            buffer[:self._count] = buffer[self._start:end]
            self._start = 0
            end = self._count
        buffer[end] = row
        if self._count == self.capacity:
            self._start += 1  # evict the oldest row
        else:
            self._count += 1

    def as_array(self) -> np.ndarray:
        """All stored embeddings as a ``(k, d)`` array, oldest first."""
        if not self._count:
            return np.empty((0, 0))
        return self._live().copy()

    def nearest(self, embedding: np.ndarray) -> tuple[float, int] | None:
        """Nearest stored embedding, excluding the most recent entries.

        Returns ``(distance, index)`` or ``None`` if too little history
        exists to make the comparison meaningful.
        """
        usable = self._count - self.exclude_recent
        if usable <= 0:
            return None
        return nearest_distance(embedding, self._live(usable))
