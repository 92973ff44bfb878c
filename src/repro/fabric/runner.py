"""The runner: one matrix of cells in, order-preserved results out.

Slots of a matrix that name the same :func:`~repro.fabric.jobs.job_key`
are one cell: probed in the cache once, simulated at most once, and
given the identical result object.  Cached cells stream first, in job
order; simulated cells follow in completion order.  Cells run inline
when ``workers == 1`` or one cell is pending, otherwise in a pool of
``min(workers, pending)`` processes with at most ``workers`` attempts
in flight.  Retries, timeouts, the pool-restart budget and the failure
policy apply per cell (``docs/robustness.md``).
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from ..core.simulator import SimulationResult
from ..faults import plan as fault_plans
from .execute import Attempt, CellPool, PoolBroken, run_inline
from .jobs import (
    FAIL_FAST,
    FAILURE_POLICIES,
    CellTimeout,
    ConfigurationError,
    SimJob,
    SimulationError,
    job_key,
)
from .store import ResultCache


@dataclass
class CellReport:
    """Outcome of one matrix cell across all its attempts."""

    index: int
    cell: str
    status: str = "pending"  # pending | ok | cached | failed | timeout
    attempts: int = 0
    elapsed: float = 0.0
    error: Optional[str] = None
    #: Recovery events in order: retries, requeues after pool restarts,
    #: quarantined cache entries.
    events: List[str] = field(default_factory=list)
    #: Fault sites the active :class:`repro.faults.FaultPlan` arms for this
    #: cell (a pure function of the plan, so attribution is exact even for
    #: crashes that leave no exception behind).
    injected: Tuple[str, ...] = ()

    @property
    def succeeded(self) -> bool:
        return self.status in ("ok", "cached")


@dataclass
class MatrixReport:
    """Per-cell outcomes of one ``run``/``run_iter`` call."""

    cells: List[CellReport]
    pool_restarts: int = 0

    @property
    def ok(self) -> bool:
        return all(cell.succeeded for cell in self.cells)

    def failures(self) -> List[CellReport]:
        return [cell for cell in self.cells if not cell.succeeded]

    def counts(self) -> Dict[str, int]:
        return dict(Counter(cell.status for cell in self.cells))

    def summary(self) -> str:
        """Multi-line human-readable report (drivers print this)."""
        counts = self.counts()
        parts = [
            f"{counts[status]} {status}"
            for status in ("ok", "cached", "failed", "timeout", "pending")
            if counts.get(status)
        ]
        head = f"matrix: {len(self.cells)} cell(s) — {', '.join(parts) or 'empty'}"
        if self.pool_restarts:
            head += f"; {self.pool_restarts} pool restart(s)"
        lines = [head]
        for cell in self.cells:
            notes = list(cell.events)
            if cell.injected:
                notes.insert(0, "injected: " + "+".join(cell.injected))
            if cell.succeeded and not notes:
                continue
            detail = f"  [{cell.status}] {cell.cell} (attempts={cell.attempts})"
            if cell.error:
                detail += f": {cell.error}"
            if notes:
                detail += " — " + "; ".join(notes)
            lines.append(detail)
        return "\n".join(lines)


class MatrixError(SimulationError):
    """Collect-and-continue run finished with failed cells.

    Carries the full :class:`MatrixReport` (``.report``) and the partial
    result list in job order with ``None`` for failed cells (``.results``),
    so callers can salvage the completed work.
    """

    def __init__(self, report: MatrixReport, results: List[Optional[SimulationResult]]) -> None:
        failures = report.failures()
        names = ", ".join(cell.cell for cell in failures[:5])
        more = "" if len(failures) <= 5 else f" (+{len(failures) - 5} more)"
        super().__init__(
            f"{len(failures)} of {len(report.cells)} matrix cell(s) failed: "
            f"{names}{more}"
        )
        self.report = report
        self.results = results


Row = Tuple[int, CellReport, Optional[SimulationResult]]


class ParallelRunner:
    """Runs a :class:`SimJob` matrix serially or over worker processes.

    ``workers`` is a process count (``None``/``"auto"``: every core; ``1``,
    the default, runs in-process); ``cache_dir`` enables the result cache;
    ``progress`` prints ``[runner]`` lines on stderr.  The resilience knobs
    ``policy``, ``max_retries``, ``timeout``, ``backoff_base``,
    ``max_pool_restarts`` and ``faults``, and the ``REPRO_*`` variables
    that unset knobs fall back to, are described in
    ``docs/robustness.md``.  A ``faults=`` plan is installed only around
    this runner's own cache probes and cell executions.  Each run leaves
    its :class:`MatrixReport` at ``last_report``.
    """

    def __init__(
        self,
        workers: Union[int, str, None] = 1,
        cache_dir: Union[str, Path, None] = None,
        progress: Optional[bool] = None,
        *,
        policy: Optional[str] = None,
        max_retries: Optional[int] = None,
        timeout: Optional[float] = None,
        backoff_base: float = 0.25,
        max_pool_restarts: Optional[int] = None,
        faults: Union[fault_plans.FaultPlan, str, None] = None,
    ) -> None:
        if workers is None or workers == "auto":
            workers = os.cpu_count() or 1
        try:
            self.workers = int(workers)
        except (TypeError, ValueError):
            self.workers = 0
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be a positive integer or 'auto', got {workers!r}"
            )
        if progress is None:
            progress = os.environ.get("REPRO_PROGRESS", "") == "1"
        if policy is None:
            policy = os.environ.get("REPRO_FAILURE_POLICY", "").strip() or FAIL_FAST
        if policy not in FAILURE_POLICIES:
            raise ConfigurationError(
                f"failure policy must be one of {FAILURE_POLICIES}, got {policy!r} "
                "(set via policy= or REPRO_FAILURE_POLICY)"
            )
        if max_retries is None:
            max_retries = _env("REPRO_MAX_RETRIES", 0, int, "an integer")
        if timeout is None:
            timeout = _env("REPRO_CELL_TIMEOUT", None, float, "a number of seconds")
        if max_pool_restarts is None:
            max_pool_restarts = _env("REPRO_POOL_RESTARTS", 2, int, "an integer")
        if isinstance(faults, str):
            faults = fault_plans.FaultPlan.parse(faults)
        if not faults:
            faults = None
            # Surface a malformed REPRO_FAULTS now, as a configuration
            # error, rather than as a traceback mid-matrix.
            try:
                fault_plans.active_plan()
            except fault_plans.FaultSpecError as exc:
                raise ConfigurationError(f"{fault_plans.ENV_VAR}: {exc}") from exc
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.progress = bool(progress)
        self.policy = policy
        self.max_retries = max(0, int(max_retries))
        self.timeout = timeout if timeout and timeout > 0 else None
        self.backoff_base = max(0.0, float(backoff_base))
        self.max_pool_restarts = max(0, int(max_pool_restarts))
        self.fault_plan = faults
        # Lifetime counters (tests and progress summaries read these).
        self.cache_hits = 0
        self.cache_misses = 0
        self.simulations = 0
        self.failed_cells = 0
        self.last_report: Optional[MatrixReport] = None

    def _log(self, message: str) -> None:
        if self.progress:
            print(f"[runner] {message}", file=sys.stderr, flush=True)

    def _finish(
        self, job: SimJob, key: Optional[str], outcome: Tuple[SimulationResult, float],
        done: int, total: int,
    ) -> SimulationResult:
        result, elapsed = outcome
        self.simulations += 1
        if self.cache is not None and key is not None:
            try:
                self.cache.store(key, result)
            except Exception as exc:
                # A result that cannot be cached is still a result; surface
                # the problem without failing the cell.
                self.cache.store_failures += 1
                self._log(f"cache store failed for {job.cell}: {exc}")
        self._log(f"{done}/{total} {job.cell}: {elapsed:.1f}s")
        return result

    def run(self, jobs: Iterable[SimJob]) -> List[SimulationResult]:
        """Execute all jobs; results come back in job order.  A failed cell
        raises :class:`~repro.fabric.jobs.SimulationError` (``fail-fast``)
        or, at the end, :class:`MatrixError` (``continue``)."""
        matrix = _Matrix(self, jobs)
        for _ in matrix.rows():
            pass
        return [r for r in matrix.results if r is not None]

    def run_iter(self, jobs: Iterable[SimJob]) -> Iterator[Row]:
        """Stream ``(index, CellReport, result)`` as cells finish: cached
        cells first, in job order (the cache is probed before this returns),
        then simulated cells in completion order.  Errors as in :meth:`run`."""
        return _Matrix(self, jobs).rows()


class _Matrix:
    """The state of one ``run``/``run_iter`` call; building it probes the
    cache.  The first slot naming a ``job_key`` owns the cell's
    :class:`CellReport`; the other slots get a copy when the cell settles."""

    def __init__(self, runner: ParallelRunner, jobs: Iterable[SimJob]) -> None:
        self.runner = runner
        self.jobs = list(jobs)
        self.report = runner.last_report = MatrixReport(
            [CellReport(i, job.cell) for i, job in enumerate(self.jobs)]
        )
        self.results: List[Optional[SimulationResult]] = [None] * len(self.jobs)
        #: job_key -> the slots naming it, in job order.
        self.slots: Dict[str, List[int]] = {}
        for index, job in enumerate(self.jobs):
            self.slots.setdefault(job_key(job), []).append(index)
        self.total = len(self.slots)
        self.done = 0
        self.queue: Deque[str] = deque()
        self.inflight: Set[str] = set()
        self.ready: List[int] = []
        self.restarts = 0
        with fault_plans.plan_scope(runner.fault_plan):
            self._probe()
        pending = len(self.queue)
        self.pool: Optional[CellPool] = None
        if runner.workers > 1 and pending > 1:
            # The executor itself starts at the first submit.
            self.pool = CellPool(min(runner.workers, pending), runner.fault_plan)

    def _owner(self, key: str) -> CellReport:
        return self.report.cells[self.slots[key][0]]

    def _job(self, key: str) -> SimJob:
        return self.jobs[self.slots[key][0]]

    def _probe(self) -> None:
        """Serve cached cells; queue the rest with their fault attribution."""
        runner, cache = self.runner, self.runner.cache
        plan = fault_plans.active_plan()
        for key in self.slots:
            cell = self._owner(key)
            if cache is not None:
                cached = cache.load(key)
                if cache.last_quarantined:
                    cell.events.append(
                        "quarantined corrupt cache entry "
                        f"({cache.last_quarantined}); re-simulating"
                    )
                if cached is not None:
                    runner.cache_hits += 1
                    self.done += 1
                    cell.status = "cached"
                    runner._log(f"{self.done}/{self.total} {cell.cell}: cached")
                    self._settle(key, cached)
                    continue
                runner.cache_misses += 1
            self.queue.append(key)
            if plan is not None:
                injected = [s for s in fault_plans.WORKER_SITES if plan.would_fire(s, cell.cell)]
                if cache is not None:
                    injected += [s for s in fault_plans.CACHE_SITES if plan.would_fire(s, key)]
                for index in self.slots[key]:
                    self.report.cells[index].injected = tuple(injected)
        self.ready.sort()  # every cached slot, duplicates included, in job order

    def rows(self) -> Iterator[Row]:
        """Yield settled slots.  The runner's fault plan is installed for
        each step, never across a ``yield``."""
        try:
            while True:
                ready, self.ready = self.ready, []
                for index in ready:
                    yield index, self.report.cells[index], self.results[index]
                if not self.queue and not self.inflight:
                    break
                with fault_plans.plan_scope(self.runner.fault_plan):
                    self._step()
        finally:
            self._close()
        if self.report.failures():
            raise MatrixError(self.report, list(self.results))
        missing = [self.report.cells[i].cell for i, r in enumerate(self.results) if r is None]
        if missing:
            # A runner bug: fail loudly, never drop a slot from the results.
            raise SimulationError(
                f"internal error: {len(missing)} matrix cell(s) finished without a "
                f"result or a recorded failure: {', '.join(missing)}"
            )

    def _step(self) -> None:
        """Start attempts up to capacity, then record the ones that finish."""
        runner = self.runner
        if self.pool is None:
            key = self.queue.popleft()
            attempt = self._owner(key).attempts
            finished = [run_inline(key, self._job(key), attempt, runner.timeout)]
        else:
            try:
                while self.queue and len(self.inflight) < runner.workers:
                    key = self.queue.popleft()
                    self.inflight.add(key)
                    attempt = self._owner(key).attempts
                    self.pool.submit(key, self._job(key), attempt, runner.timeout)
                finished = self.pool.drain()
            except PoolBroken as broken:
                self._on_broken(broken)
                return
        self._requeue(self._record(finished))
        if not self.queue and not self.inflight:
            self._close()

    def _record(self, finished: Iterable[Attempt]) -> List[Tuple[str, int]]:
        """Record finished attempts; returns the ``(key, attempt)`` retries."""
        runner = self.runner
        retries: List[Tuple[str, int]] = []
        for attempt in finished:
            key, exc = attempt.key, attempt.error
            self.inflight.discard(key)
            cell = self._owner(key)
            cell.attempts += 1
            if exc is not None:
                if cell.attempts <= runner.max_retries:
                    cell.events.append(f"retry after {type(exc).__name__}: {exc}")
                    retries.append((key, cell.attempts))
                    continue
                self._fail(key, f"{type(exc).__name__}: {exc}", isinstance(exc, CellTimeout))
                if runner.policy == FAIL_FAST:
                    error = SimulationError(f"simulation failed for cell ({cell.cell}): {exc}")
                    error.__cause__ = exc
                    raise error
                continue
            assert attempt.outcome is not None
            self.done += 1
            cell.elapsed = attempt.outcome[1]
            cache_key = key if runner.cache is not None else None
            result = runner._finish(
                self._job(key), cache_key, attempt.outcome, self.done, self.total
            )
            cell.status = "ok"
            self._settle(key, result)
        return retries

    def _requeue(self, retries: Iterable[Tuple[str, int]]) -> None:
        """Back off (exponential, deterministic jitter), then queue each retry."""
        runner = self.runner
        for key, attempt in retries:
            if runner.backoff_base > 0:
                cell = self._owner(key).cell
                delay = runner.backoff_base * 2.0 ** (attempt - 1) * _jitter(cell, attempt)
                runner._log(f"{cell}: backing off {delay:.2f}s before attempt {attempt + 1}")
                time.sleep(delay)
            self.queue.append(key)

    def _on_broken(self, broken: PoolBroken) -> None:
        """Count a pool restart and requeue the interrupted cells; fail every
        queued cell once the restart budget is out.  An interrupted attempt
        counts as consumed, so first-attempt-only injected faults cannot
        re-fire and chaos runs converge."""
        runner = self.runner
        self._requeue(self._record(broken.finished))
        self.restarts = self.report.pool_restarts = self.restarts + 1
        budget = runner.max_pool_restarts
        exhausted = self.restarts > budget
        for key in reversed(broken.unstarted):
            # Never started: keeps its attempt count, stays at the head.
            self.inflight.discard(key)
            self.queue.appendleft(key)
        interrupted = sorted(broken.interrupted, key=lambda k: self.slots[k][0])
        for key in interrupted:
            self.inflight.discard(key)
            cell = self._owner(key)
            cell.attempts += 1
            cell.events.append(
                f"worker crash (pool restart {self.restarts} exceeds budget {budget})"
                if exhausted else
                f"interrupted by worker crash; requeued (pool restart {self.restarts})"
            )
        if not exhausted:
            self.queue.extend(interrupted)
            runner._log(
                f"worker pool broken; rebuilding (restart {self.restarts}/{budget}, "
                f"{len(interrupted)} cell(s) requeued)"
            )
            return
        stranded = interrupted + [k for k in self.queue if k not in interrupted]
        self.queue.clear()
        reason = f"worker pool broke {self.restarts} times (max_pool_restarts={budget})"
        for key in stranded:
            self._fail(key, reason, False)
        if runner.policy == FAIL_FAST:
            names = ", ".join(self._owner(k).cell for k in stranded[:5])
            raise SimulationError(f"{reason}; stranded cells: {names}")

    def _fail(self, key: str, error: str, timed_out: bool) -> None:
        cell = self._owner(key)
        cell.status = "timeout" if timed_out else "failed"
        cell.error = error
        self.runner.failed_cells += 1
        self.runner._log(f"{cell.cell}: {cell.status} after {cell.attempts} attempt(s): {error}")
        self._settle(key, None)

    def _settle(self, key: str, result: Optional[SimulationResult]) -> None:
        """Fill every slot naming ``key`` and mark them ready to yield."""
        first, *others = self.slots[key]
        owner = self.report.cells[first]
        for index in others:
            self.report.cells[index] = replace(owner, index=index, events=list(owner.events))
        for index in self.slots[key]:
            self.results[index] = result
            self.ready.append(index)

    def _close(self) -> None:
        if self.pool is not None:
            self.pool.close()


def _env(name: str, default: Any, parse: Callable[[str], Any], expected: str) -> Any:
    """Parse the ``REPRO_*`` variable ``name``; unset or blank -> ``default``."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return parse(raw)
    except ValueError:
        raise ConfigurationError(f"{name} must be {expected}, got {raw!r}") from None


def _env_workers() -> int:
    def parse(value: str) -> int:
        workers = (os.cpu_count() or 1) if value.lower() == "auto" else int(value)
        if workers < 1:
            raise ValueError(value)
        return workers

    return _env("REPRO_WORKERS", 1, parse, "a positive integer or 'auto'")


def _jitter(cell: str, attempt: int) -> float:
    """Deterministic retry jitter in [0.5, 1) — seeded by cell and attempt,
    so backoff schedules are reproducible run to run."""
    digest = hashlib.sha256(f"backoff|{cell}|{attempt}".encode("utf-8")).digest()
    return 0.5 + 0.5 * (int.from_bytes(digest[:8], "big") / 2.0**64)


_default_runner: Optional[ParallelRunner] = None

#: Sentinel: distinguishes "caller did not choose a worker count" (fall
#: back to ``REPRO_WORKERS``) from an explicit ``workers=1``.
_UNSET_WORKERS = object()


def get_default_runner() -> ParallelRunner:
    """The runner used when an experiment API is called without one.  First
    use builds it from the environment: ``REPRO_WORKERS`` (default 1),
    ``REPRO_CACHE_DIR`` (default: no cache) and the other ``REPRO_*`` knobs.
    """
    global _default_runner
    if _default_runner is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
        _default_runner = ParallelRunner(workers=_env_workers(), cache_dir=cache_dir)
    return _default_runner


def set_default_runner(runner: Optional[ParallelRunner]) -> Optional[ParallelRunner]:
    """Install (or, with ``None``, reset) the process-wide default runner;
    returns the previous one so callers can restore it."""
    global _default_runner
    previous = _default_runner
    _default_runner = runner
    return previous


def configure_default_runner(
    workers: Union[int, str, None, object] = _UNSET_WORKERS,
    cache_dir: Union[str, Path, None] = None,
    progress: Optional[bool] = None,
    *,
    policy: Optional[str] = None,
    max_retries: Optional[int] = None,
    timeout: Optional[float] = None,
    backoff_base: float = 0.25,
    max_pool_restarts: Optional[int] = None,
    faults: Union[fault_plans.FaultPlan, str, None] = None,
) -> ParallelRunner:
    """Build and install the default runner; returns it.  An unset
    ``workers`` falls back to ``REPRO_WORKERS``, like :func:`get_default_runner`."""
    if workers is _UNSET_WORKERS:
        workers = _env_workers()
    runner = ParallelRunner(
        workers=workers, cache_dir=cache_dir, progress=progress,
        policy=policy, max_retries=max_retries, timeout=timeout,
        backoff_base=backoff_base, max_pool_restarts=max_pool_restarts,
        faults=faults,
    )
    set_default_runner(runner)
    return runner


def run_jobs(
    jobs: Iterable[SimJob], runner: Optional[ParallelRunner] = None
) -> List[SimulationResult]:
    """Run jobs on ``runner`` (or the process-wide default)."""
    return (runner or get_default_runner()).run(jobs)


def run_iter(
    jobs: Iterable[SimJob], runner: Optional[ParallelRunner] = None
) -> Iterator[Row]:
    """Stream jobs on ``runner`` (or the process-wide default) as they
    finish; yields ``(index, CellReport, result)``."""
    return (runner or get_default_runner()).run_iter(jobs)
