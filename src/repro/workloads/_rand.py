"""Batched deterministic random sources for trace generators.

Drawing one NumPy random per record is slow; these helpers draw large
batches and hand out values one at a time.  Each batch stays a NumPy
array and is converted to plain Python values ``CHUNK`` at a time
(``ndarray.tolist`` on a slice), so ``next`` is a list-iterator step
instead of a NumPy scalar extraction plus an int()/float() cast, and a
stream holds one chunk of boxed scalars instead of a whole batch.  The
values are bit-identical either way.

Batch sizes fix the RNG stream and must not change.  All sources of a
trace share one generator, so the order in which they draw is part of
the stream too: each source draws its first batch when it is built, and
a refill on the call after its last value was served.

This module imports no NumPy itself: the caller's generator does the
drawing, so NumPy is loaded only by the trace generators that build one,
when a stream is first pulled.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterator

if TYPE_CHECKING:
    import numpy as np

#: Values converted to Python objects at a time.
CHUNK = 1024


def _serve(batch: np.ndarray, draw: Callable[[], np.ndarray]) -> Iterator[Any]:
    """Yield the values of ``batch``, then of each ``draw()`` batch, forever."""
    while True:
        for start in range(0, len(batch), CHUNK):
            yield from batch[start : start + CHUNK].tolist()
        batch = draw()


class _Batched:
    """A value stream served from batches that ``draw`` returns."""

    def __init__(self, draw: Callable[[], np.ndarray]) -> None:
        # The first batch is drawn now, not on the first pull: construction
        # order is draw order on the shared generator.
        self.next: Callable[[], Any] = _serve(draw(), draw).__next__


class BatchedUniform(_Batched):
    """Stream of U[0,1) floats drawn in batches."""

    def __init__(self, rng: np.random.Generator, batch: int = 65536) -> None:
        super().__init__(partial(rng.random, batch))


class BatchedChoice(_Batched):
    """Stream of weighted integer choices drawn in batches."""

    def __init__(
        self, rng: np.random.Generator, count: int, weights, batch: int = 16384
    ) -> None:
        super().__init__(partial(rng.choice, count, size=batch, p=weights))


class BatchedInts(_Batched):
    """Stream of uniform integers in [0, high)."""

    def __init__(self, rng: np.random.Generator, high: int, batch: int = 65536) -> None:
        super().__init__(partial(rng.integers, 0, high, size=batch))
