"""Where cell attempts run: inline on the caller's thread, or in a pool.

:func:`execute_cell` runs one simulation.  It is the anchor of lint rule
RPR008 (worker determinism): nothing reachable from it may use unseeded
randomness, the wall clock or module-global writes, so a cell's result
depends only on its job.  :func:`run_inline` is the serial path;
:class:`CellPool` the process pool, which turns ``BrokenProcessPool``
into :class:`PoolBroken` and leaves the requeueing to the runner.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..core.multicore import simulate_multicore
from ..core.simulator import SimulationResult, simulate, simulate_smt
from ..faults import inject as fault_inject
from ..faults import plan as fault_plans
from .jobs import CellTimeout, SimJob


@contextmanager
def _cell_deadline(seconds: Optional[float]) -> Iterator[None]:
    """Enforce a wall-clock limit on the enclosed cell via ``SIGALRM``, in
    the process that runs it (``concurrent.futures`` cannot cancel a
    running task).  No-op without a limit, off POSIX or off the main thread.
    """
    if (
        not seconds
        or os.name != "posix"
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum: int, frame: object) -> None:
        raise CellTimeout(f"cell exceeded its {seconds:g}s wall-clock limit")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def execute_cell(
    job: SimJob, attempt: int = 0, timeout: Optional[float] = None
) -> Tuple[SimulationResult, float]:
    """Run one cell; returns (result, wall seconds).  Must stay module-level
    picklable — it is the function shipped to pool workers."""
    start = time.perf_counter()
    with _cell_deadline(timeout):
        if attempt == 0:
            # Worker faults arm only a cell's first attempt, so retried and
            # requeued cells run clean and every chaos run converges.
            fault_inject.maybe_crash(job.cell)
            fault_inject.maybe_hang(job.cell)
        topology = job.resolved_topology() if job.topology is not None else None
        if topology is not None and topology.num_cores > 1:
            result = simulate_multicore(
                job.config, list(job.workloads), job.warmup, job.measure,
                config_label=job.label, topology=topology, engine=job.engine,
            )
        elif len(job.workloads) == 1:
            result = simulate(
                job.config, job.workloads[0], job.warmup, job.measure,
                config_label=job.label, topology=topology, engine=job.engine,
            )
        else:
            result = simulate_smt(
                job.config, list(job.workloads), job.warmup, job.measure,
                config_label=job.label, topology=topology, engine=job.engine,
            )
    return result, time.perf_counter() - start


class Attempt(NamedTuple):
    """One finished attempt: the ``(result, elapsed)`` outcome or the error."""

    key: str
    outcome: Optional[Tuple[SimulationResult, float]] = None
    error: Optional[BaseException] = None


def run_inline(key: str, job: SimJob, attempt: int, timeout: Optional[float]) -> Attempt:
    """Run one attempt on the calling thread; exceptions (a
    :class:`CellTimeout`, an injected crash) become failed attempts."""
    try:
        return Attempt(key, outcome=execute_cell(job, attempt, timeout))
    except Exception as exc:
        return Attempt(key, error=exc)


class PoolBroken(RuntimeError):
    """The process pool died.  ``interrupted``: keys in flight (attempt
    consumed); ``unstarted``: keys whose submit was refused (attempt not
    consumed); ``finished``: attempts that completed before the break."""

    def __init__(
        self, interrupted: Sequence[str], unstarted: Sequence[str] = (),
        finished: Sequence[Attempt] = (),
    ) -> None:
        super().__init__("worker pool broke")
        self.interrupted = list(interrupted)
        self.unstarted = list(unstarted)
        self.finished = list(finished)


class CellPool:
    """A ``ProcessPoolExecutor`` of ``processes`` workers, rebuilt after a
    break.  An explicit fault plan reaches the workers through the pool
    initializer; ``REPRO_FAULTS`` through the inherited environment."""

    def __init__(self, processes: int, fault_plan: Optional[fault_plans.FaultPlan] = None) -> None:
        self._processes = processes
        self._fault_plan = fault_plan
        self._pool: Optional[ProcessPoolExecutor] = None
        self._futures: Dict["Future[Tuple[SimulationResult, float]]", str] = {}

    def _discard(self) -> List[str]:
        """Drop a broken executor; returns the interrupted keys."""
        interrupted = list(self._futures.values())
        self._futures.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        return interrupted

    def submit(self, key: str, job: SimJob, attempt: int, timeout: Optional[float]) -> None:
        if self._pool is None:
            plan = self._fault_plan
            self._pool = ProcessPoolExecutor(
                max_workers=self._processes,
                initializer=fault_plans.install_plan if plan is not None else None,
                initargs=(plan.spec_string(),) if plan is not None else (),
            )
        try:
            future = self._pool.submit(execute_cell, job, attempt, timeout)
        except (BrokenProcessPool, RuntimeError):
            # Broke between harvest and submit: this attempt never started.
            raise PoolBroken(self._discard(), unstarted=[key]) from None
        self._futures[future] = key

    def drain(self) -> List[Attempt]:
        """Block until at least one attempt finishes; return all finished."""
        ready, _ = wait(set(self._futures), return_when=FIRST_COMPLETED)
        broken = False
        finished: List[Attempt] = []
        for future in ready:
            error = future.exception()
            if isinstance(error, BrokenProcessPool):
                # Left in place: reported as interrupted, with the rest.
                broken = True
                continue
            key = self._futures.pop(future)
            if error is not None:
                finished.append(Attempt(key, error=error))
            else:
                finished.append(Attempt(key, outcome=future.result()))
        if broken:
            raise PoolBroken(self._discard(), finished=finished)
        return finished

    def close(self) -> None:
        """Shut the executor down, cancelling queued attempts (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        self._futures.clear()
