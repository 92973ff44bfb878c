"""The batched-draw contract of ``workloads._rand``.

Every generated trace is bit-identical only if the batched sources draw
from their shared generator exactly as plain per-batch calls would: each
source draws its first batch when it is built, and its next batch on the
call after its last value was served.  These tests replay interleaved
pulls against that reference with batches small enough to refill often.
"""

import numpy as np
import pytest

from repro.workloads._rand import CHUNK, BatchedChoice, BatchedInts, BatchedUniform

WEIGHTS = [0.5, 0.2, 0.2, 0.1]


class ReferenceSource:
    """A source that draws a batch with a plain generator call and serves
    it from a list, refilling on the call after its last value."""

    def __init__(self, draw):
        self._draw = draw
        self._values = draw().tolist()
        self._pos = 0

    def next(self):
        if self._pos == len(self._values):
            self._values = self._draw().tolist()
            self._pos = 0
        self._pos += 1
        return self._values[self._pos - 1]


def build(rng, batch):
    """One source of each kind, built in a fixed order on ``rng``."""
    return [
        BatchedUniform(rng, batch=batch),
        BatchedChoice(rng, len(WEIGHTS), WEIGHTS, batch=batch),
        BatchedInts(rng, 1000, batch=batch),
    ]


def build_reference(rng, batch):
    return [
        ReferenceSource(lambda: rng.random(batch)),
        ReferenceSource(lambda: rng.choice(len(WEIGHTS), size=batch, p=WEIGHTS)),
        ReferenceSource(lambda: rng.integers(0, 1000, size=batch)),
    ]


#: Source indices pulled in turn: uneven runs, so the sources refill at
#: different points.  Source 1 is pulled least, twice per period.
PATTERN = [0, 0, 1, 0, 2, 2, 1, 0, 2]


def pull_order(batch, refills=3):
    """Repeat PATTERN until every source has refilled ``refills`` times."""
    periods = -(-((refills + 1) * batch + 1) // 2)
    return PATTERN * periods


@pytest.mark.parametrize("batch", [5, CHUNK + 3])
def test_interleaved_pulls_match_plain_draws(batch):
    sources = build(np.random.default_rng(11), batch)
    reference = build_reference(np.random.default_rng(11), batch)
    order = pull_order(batch)
    got = [sources[i].next() for i in order]
    want = [reference[i].next() for i in order]
    assert got == want
    # Same Python types as the reference, not NumPy scalars.
    assert {type(v) for v in got} == {type(v) for v in want} == {float, int}


def test_first_batch_is_drawn_at_construction():
    rng = np.random.default_rng(5)
    BatchedUniform(rng, batch=5)
    BatchedInts(rng, 10, batch=5)
    reference = np.random.default_rng(5)
    reference.random(5)
    reference.integers(0, 10, size=5)
    assert rng.random() == reference.random()


def test_refill_waits_for_the_call_after_the_last_value():
    rng = np.random.default_rng(5)
    source = BatchedUniform(rng, batch=5)
    first = [source.next() for _ in range(5)]
    # The batch is spent but not refilled: the generator has drawn nothing else.
    reference = np.random.default_rng(5)
    assert first == reference.random(5).tolist()
    assert rng.bit_generator.state == reference.bit_generator.state
    source.next()
    reference.random(5)
    assert rng.bit_generator.state == reference.bit_generator.state
