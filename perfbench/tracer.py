"""Span tracing from outside the simulator.

:class:`Tracer` wraps each layer's public entry point and records, per
layer, a call count, inclusive time and self time.  Self time is a span's
duration minus the durations of the spans it directly caused, so the self
times of all layers add up exactly to the root spans' time.  Clocks are
integer nanoseconds (``perf_counter_ns``), so no self time can go negative.

While :meth:`Tracer.installed` is active the wrappers replace the entry
points on the classes themselves.  ``simulate()`` and ``simulate_smt()``
build a fresh ``System`` and ``Core`` per call, and those bind
``mmu.translate``, ``l1i.access``, each cache's ``next_level.access`` and
the walker's ``memory_level.access`` at that moment, so a cell started
inside the context goes through the wrappers end to end, and one started
outside it never sees them.  Workload streams are traced by handing
``simulate()`` a :class:`TracedWorkload` proxy.

Layers (span names):

* ``workloads`` — ``next()`` on a workload's record stream (a root span);
* ``core`` — ``Core.execute``, one call per trace record and thread;
* ``tlb`` — ``MMU.translate``; its ``stlb`` child is ``TLB.lookup`` and
  ``TLB.insert`` on the second-level TLB, where the STLB policy runs;
* ``ptw`` — ``PageTableWalker.walk``;
* ``cache.<level>`` — ``SetAssociativeCache.access`` per level (``l1i``,
  ``l1d``, ``l2c``, ``llc``), demand, page-walk, writeback and
  prefetch-through requests alike;
* ``mem.dram`` — ``DRAM.access``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List

from repro.cache.cache import SetAssociativeCache
from repro.core.cpu import Core
from repro.mem.dram import DRAM
from repro.ptw.walker import PageTableWalker
from repro.tlb.hierarchy import MMU
from repro.tlb.tlb import TLB

# Layer record fields: calls, inclusive ns, self ns, then two layer-specific
# counters (tlb: STLB accesses, STLB misses; ptw: memory references).
CALLS, INCL, SELF, EXTRA_A, EXTRA_B = range(5)


class Tracer:
    """Per-layer counters and the span stack shared by every wrapper."""

    def __init__(self) -> None:
        #: Child-time accumulators, one per open span; the bottom entry
        #: collects the time of root spans.
        self.stack: List[int] = [0]
        self.layers: Dict[str, List[int]] = {}

    def layer(self, name: str) -> List[int]:
        record = self.layers.get(name)
        if record is None:
            record = self.layers[name] = [0, 0, 0, 0, 0]
        return record

    @property
    def root_ns(self) -> int:
        return self.stack[0]

    def self_total_ns(self) -> int:
        return sum(record[SELF] for record in self.layers.values())

    # ------------------------------------------------------------------ #

    def _wrap(self, fn, layer_of, inspect=None):
        """Span wrapper around ``fn(obj, *args)``.

        ``layer_of(obj)`` picks the layer record (or ``None`` to call
        through untraced); ``inspect(record, result)`` counts outcomes.
        """
        stack = self.stack
        clock = time.perf_counter_ns

        def wrapper(obj, *args, **kwargs):
            record = layer_of(obj)
            if record is None:
                return fn(obj, *args, **kwargs)
            stack.append(0)
            start = clock()
            try:
                result = fn(obj, *args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                stack[-1] += duration
                record[CALLS] += 1
                record[INCL] += duration
                record[SELF] += duration - children
            if inspect is not None:
                inspect(record, result)
            return result

        return wrapper

    def _patches(self):
        """(class, attribute, wrapper) for every traced entry point."""
        def fixed(name):
            record = self.layer(name)
            return lambda _obj: record

        def per_level(prefix):
            records: Dict[str, List[int]] = {}

            def layer_of(obj):
                name = obj.config.name
                record = records.get(name)
                if record is None:
                    record = records[name] = self.layer(f"{prefix}.{name.lower()}")
                return record
            return layer_of

        stlb = self.layer("stlb")
        tlb_layers: Dict[str, object] = {}

        def stlb_only(tlb):
            name = tlb.config.name
            if name not in tlb_layers:
                tlb_layers[name] = stlb if "stlb" in name.lower() else None
            return tlb_layers[name]

        def translation(record, result):
            if result.stlb_accessed:
                record[EXTRA_A] += 1
                if result.stlb_miss:
                    record[EXTRA_B] += 1

        def walk(record, result):
            record[EXTRA_A] += result.memory_references

        return [
            (Core, "execute", self._wrap(Core.execute, fixed("core"))),
            (MMU, "translate", self._wrap(MMU.translate, fixed("tlb"), translation)),
            (TLB, "lookup", self._wrap(TLB.lookup, stlb_only)),
            (TLB, "insert", self._wrap(TLB.insert, stlb_only)),
            (PageTableWalker, "walk", self._wrap(PageTableWalker.walk, fixed("ptw"), walk)),
            (SetAssociativeCache, "access",
             self._wrap(SetAssociativeCache.access, per_level("cache"))),
            (DRAM, "access", self._wrap(DRAM.access, fixed("mem.dram"))),
        ]

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Trace every simulator built and run inside the ``with`` block."""
        patches = self._patches()
        originals = [(cls, attr, cls.__dict__[attr]) for cls, attr, _ in patches]
        try:
            for cls, attr, wrapper in patches:
                setattr(cls, attr, wrapper)
            yield self
        finally:
            for cls, attr, original in originals:
                setattr(cls, attr, original)

    def stream(self, records: Iterator) -> Iterator:
        """Yield from ``records``, timing each ``next()`` as a root span."""
        record = self.layer("workloads")
        stack = self.stack
        clock = time.perf_counter_ns
        pull = records.__next__
        while True:
            stack.append(0)
            start = clock()
            try:
                item = pull()
            except StopIteration:
                stack.pop()
                return
            duration = clock() - start
            children = stack.pop()
            stack[-1] += duration
            record[CALLS] += 1
            record[INCL] += duration
            record[SELF] += duration - children
            yield item


class TracedWorkload:
    """A workload whose record stream runs through :meth:`Tracer.stream`.

    Carries exactly what ``simulate()`` and ``simulate_smt()`` read from a workload: its
    name, its page-size policy and a fresh record stream.
    """

    def __init__(self, workload, tracer: Tracer) -> None:
        self.name = workload.name
        self.size_policy = workload.size_policy
        self._workload = workload
        self._tracer = tracer

    def record_stream(self) -> Iterator:
        return self._tracer.stream(self._workload.record_stream())
