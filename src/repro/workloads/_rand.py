"""Batched deterministic random sources for trace generators.

Drawing one NumPy random per record is slow; these helpers draw large
batches and hand out values one at a time.  Each batch is converted to a
plain Python list up front (``ndarray.tolist``), so ``next`` is a list
index instead of a NumPy scalar extraction plus an int()/float() cast —
the values are bit-identical either way.

This module imports no NumPy itself: the caller's generator does the
drawing, so NumPy is loaded only by the trace generators that build one,
when a stream is first pulled.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


class BatchedUniform:
    """Stream of U[0,1) floats drawn in batches."""

    def __init__(self, rng: np.random.Generator, batch: int = 65536) -> None:
        self._rng = rng
        self._batch = batch
        self._values = rng.random(batch).tolist()
        self._pos = 0

    def next(self) -> float:
        pos = self._pos
        if pos >= self._batch:
            self._values = self._rng.random(self._batch).tolist()
            pos = 0
        self._pos = pos + 1
        return self._values[pos]


class BatchedChoice:
    """Stream of weighted integer choices drawn in batches."""

    def __init__(
        self, rng: np.random.Generator, count: int, weights, batch: int = 16384
    ) -> None:
        self._rng = rng
        self._count = count
        self._weights = weights
        self._batch = batch
        self._values = rng.choice(count, size=batch, p=weights).tolist()
        self._pos = 0

    def next(self) -> int:
        pos = self._pos
        if pos >= self._batch:
            self._values = self._rng.choice(
                self._count, size=self._batch, p=self._weights
            ).tolist()
            pos = 0
        self._pos = pos + 1
        return self._values[pos]


class BatchedInts:
    """Stream of uniform integers in [0, high)."""

    def __init__(self, rng: np.random.Generator, high: int, batch: int = 65536) -> None:
        self._rng = rng
        self._high = high
        self._batch = batch
        self._values = rng.integers(0, high, size=batch).tolist()
        self._pos = 0

    def next(self) -> int:
        pos = self._pos
        if pos >= self._batch:
            self._values = self._rng.integers(0, self._high, size=self._batch).tolist()
            pos = 0
        self._pos = pos + 1
        return self._values[pos]
