"""Deterministic fault injection for the experiment-execution stack.

The resilience machinery in :mod:`repro.fabric` — per-cell
retries, wall-clock timeouts, ``BrokenProcessPool`` recovery, checksummed
cache entries with quarantine — is only trustworthy if every recovery path
is exercised by *real* injected faults, not mocks.  This package provides
that harness:

* **Named injection sites** (:data:`SITES`): ``worker.crash`` (the worker
  process dies via ``os._exit``, surfacing as ``BrokenProcessPool``),
  ``worker.hang`` (the cell sleeps past its wall-clock budget),
  ``cache.corrupt-write`` (a stored result's payload is bit-flipped after
  its checksum was computed) and ``cache.torn-write`` (the stored entry is
  truncated mid-payload, as if the writer died between ``write`` and
  ``fsync``).
* **Deterministic arming**: whether a site fires for a given key is a pure
  hash of ``(seed, site, key)`` — independent of process, thread, worker
  scheduling and wall clock — so a chaos run is exactly reproducible and a
  test can *predict* which cells will be hit (:meth:`FaultPlan.would_fire`).
* **Two arming surfaces**: the ``REPRO_FAULTS`` environment variable
  (grammar ``site[:prob[:seed[:max[:match]]]]``, comma-separated; see
  :func:`parse_spec`) picked up lazily by every process including pool
  workers, or a programmatic :class:`FaultPlan` installed with
  :func:`install_plan` / shipped to workers via the pool initializer.

Worker-site faults (``worker.*``) are consulted only on a cell's *first*
attempt — a retried or requeued cell runs clean — so every chaos run
converges to the fault-free result, which is what the CI chaos-smoke job
asserts.  See ``docs/robustness.md`` for the full semantics.
"""

from .inject import (
    CRASH_EXIT_CODE,
    InjectedFault,
    InjectedWorkerCrash,
    hang_seconds,
    maybe_crash,
    maybe_hang,
    should_fire,
)
from .plan import (
    CACHE_CORRUPT_WRITE,
    CACHE_SITES,
    CACHE_TORN_WRITE,
    ENV_VAR,
    SITES,
    WORKER_CRASH,
    WORKER_HANG,
    WORKER_SITES,
    FaultPlan,
    FaultSpec,
    FaultSpecError,
    active_plan,
    install_plan,
    parse_spec,
    plan_scope,
)

__all__ = [
    "CACHE_CORRUPT_WRITE",
    "CACHE_SITES",
    "CACHE_TORN_WRITE",
    "CRASH_EXIT_CODE",
    "ENV_VAR",
    "FaultPlan",
    "FaultSpec",
    "FaultSpecError",
    "InjectedFault",
    "InjectedWorkerCrash",
    "SITES",
    "WORKER_CRASH",
    "WORKER_HANG",
    "WORKER_SITES",
    "active_plan",
    "hang_seconds",
    "install_plan",
    "maybe_crash",
    "maybe_hang",
    "parse_spec",
    "plan_scope",
    "should_fire",
]
