"""Host speed probes: fixed work that never changes with the simulator.

The benchmark shares its host with other tenants, and their load moves the
simulator's host time by a quarter from one minute to the next.  Each host
time the benchmark takes is therefore paired with a probe taken right next
to it: fixed work whose time measures only the host.

``probe``        a small set-associative LRU cache simulation written
                 against plain Python dicts and lists: the same kind of
                 work as the simulator, but frozen here.  It pairs with
                 in-process cell times.
``pool_probe``   the same probe in as many fresh processes at once as a
                 cold pass has workers.  It pairs with cold passes, whose
                 workers run on every core, while an in-process probe runs
                 on one core only.
``spawn_probe``  a fresh interpreter that imports numpy and exits.  It
                 pairs with fresh-process times (a warm pass, a set-up),
                 which are mostly interpreter start, imports and page
                 faults, and which the host's load moves differently from
                 in-process work.

A metric is the median of its samples' ratios to their probes, times the
probe's reference time (:meth:`Paired.scaled`): the time the work would
have taken on a host where the probe takes that long.  Changes to the
simulator move the metrics; changes in the host's load cancel out.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

#: Probe times that define the reference host (about their medians on the
#: 2-vCPU VM this benchmark was written on).
REFERENCE_S = 0.040
SPAWN_REFERENCE_S = 0.120
#: Seconds the spawn probe may take before the run is abandoned.
SPAWN_TIMEOUT = 60

_SETS = 2048
_WAYS = 8
_ACCESSES = 30_000


class _Line:
    __slots__ = ("tag", "dirty")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.dirty = False


def probe() -> float:
    """Run the fixed cache simulation once; returns its host seconds."""
    start = time.perf_counter()
    table = [dict() for _ in range(_SETS)]
    order: List[List[int]] = [[] for _ in range(_SETS)]
    x = 12345
    for _ in range(_ACCESSES):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        address = (x >> 4) & 0xFFFFF
        index = address & (_SETS - 1)
        tag = address >> 11
        lines, recency = table[index], order[index]
        if tag in lines:
            recency.remove(tag)
        elif len(recency) >= _WAYS:
            del lines[recency.pop(0)]
            lines[tag] = _Line(tag)
        else:
            lines[tag] = _Line(tag)
        recency.append(tag)
    return time.perf_counter() - start


def speed_factor(samples: List[float]) -> float:
    """Scale from this run's host time to reference-host time, over all of
    a run's probes (reported, not used for the metrics)."""
    return REFERENCE_S / statistics.median(samples)


def spawn_probe(env: Dict[str, str]) -> float:
    """Start a fresh interpreter that imports numpy; returns its wall seconds."""
    start = time.monotonic()
    # Pipes, not DEVNULL: with pipes the wait ends when the child closes
    # them, while a bare timed wait polls in steps of up to 50 ms.
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True,
                   stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=SPAWN_TIMEOUT)
    return time.monotonic() - start


def pool_probe(env: Dict[str, str], processes: int, repeats: int) -> float:
    """Run ``repeats`` probes in each of ``processes`` fresh interpreters at
    once; returns their mean seconds per probe."""
    command = [sys.executable, str(Path(__file__).resolve()), str(repeats)]
    procs = [subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) for _ in range(processes)]
    totals = []
    try:
        for proc in procs:
            out, err = proc.communicate(timeout=SPAWN_TIMEOUT)
            if proc.returncode != 0:
                raise RuntimeError(f"pool probe exited {proc.returncode}:\n{err}")
            totals.append(float(out))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return sum(totals) / (processes * repeats)


@dataclass
class Paired:
    """Host times, each with the probe time taken right next to it."""

    seconds: List[float] = field(default_factory=list)
    probes: List[float] = field(default_factory=list)

    def add(self, seconds: float, probe_seconds: float) -> None:
        self.seconds.append(seconds)
        self.probes.append(probe_seconds)

    def raw(self) -> float:
        """Median host time, unscaled."""
        return statistics.median(self.seconds)

    def scaled(self, reference: float) -> float:
        """Median time on a host where the probe takes ``reference``."""
        return reference * statistics.median(s / p for s, p in zip(self.seconds, self.probes))


if __name__ == "__main__":
    # ``python calibrate.py N``: N probes; prints their total seconds.
    print(sum(probe() for _ in range(int(sys.argv[1]))))
