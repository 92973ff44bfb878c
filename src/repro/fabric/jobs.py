"""Job identity: what a simulation cell *is*, independent of how it runs.

A :class:`SimJob` is pure data: two jobs with equal descriptions produce
bit-identical results on any worker, which is the invariant the whole
fabric rests on.  :func:`job_key` collapses a job to a stable content
address: the runner's unit of deduplication and the key of the
:class:`~repro.fabric.store.ResultCache`.  The fabric's failure policies
and error types live here too.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from ..common.params import SystemConfig
from ..kernel import resolve_engine
from ..topology.presets import resolve_topology
from ..topology.spec import TopologySpec
from ..workloads.base import SyntheticWorkload

#: Bump to invalidate every cached result (e.g. after a simulator behaviour
#: change that job descriptions cannot see).  4: checksummed entries;
#: 5: MSHR retirement keeps Type bits; 6: jobs carry an execution engine.
CACHE_VERSION = 6

#: Failure policies: fail-fast preserves the historical behaviour (first
#: failed cell raises :class:`SimulationError` and cancels the backlog);
#: collect-and-continue finishes every cell, caches the successes, and
#: raises a ``MatrixError`` summarising the failures at the end.
FAIL_FAST = "fail-fast"
CONTINUE = "continue"
FAILURE_POLICIES = (FAIL_FAST, CONTINUE)


class SimulationError(RuntimeError):
    """A cell of the experiment matrix failed; names the failing cell."""


class ConfigurationError(ValueError):
    """A fabric knob (flag or ``REPRO_*`` variable) could not be parsed."""


class CellTimeout(RuntimeError):
    """A cell exceeded the per-cell wall-clock ``timeout`` and was cancelled."""


@dataclass(frozen=True)
class SimJob:
    """One independent simulation: a ``(technique, workload)`` cell.

    ``workloads`` holds one workload (``simulate``), two for SMT
    (``simulate_smt``) or one per core of a multi-core ``topology``
    (``simulate_multicore``).  ``topology`` is ``None`` (Table 1), a preset
    name or a :class:`TopologySpec`.  ``engine`` picks the
    :mod:`repro.kernel` engine; ``None`` defers to ``REPRO_ENGINE``, so it
    resolves on the executing worker and is pinned into the cache key.
    """

    config: SystemConfig
    workloads: Tuple[SyntheticWorkload, ...]
    warmup: int
    measure: int
    label: str = ""
    topology: Union[None, str, TopologySpec] = None
    engine: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ValueError("SimJob needs at least one workload")
        resolve_engine(self.engine)  # validate eagerly, at job-build time
        if self.topology is None and len(self.workloads) > 2:
            raise ValueError("SimJob takes one workload (1T) or two (SMT)")

    def resolved_topology(self) -> TopologySpec:
        """The job's machine graph as a spec (default graph when ``None``)."""
        return resolve_topology(self.topology, self.config)

    @property
    def workload_name(self) -> str:
        return "+".join(w.name for w in self.workloads)

    @property
    def cell(self) -> str:
        """Human-readable cell name for logs, errors and fault-plan keys."""
        return f"{self.label or 'default'} x {self.workload_name}"


def single(
    config: SystemConfig,
    workload: SyntheticWorkload,
    warmup: int,
    measure: int,
    label: str = "",
    topology: Union[None, str, TopologySpec] = None,
    engine: Optional[str] = None,
) -> SimJob:
    """Convenience constructor for a single-thread job."""
    return SimJob(config, (workload,), warmup, measure, label, topology, engine)


def smt(
    config: SystemConfig,
    workloads: Sequence[SyntheticWorkload],
    warmup: int,
    measure: int,
    label: str = "",
    topology: Union[None, str, TopologySpec] = None,
    engine: Optional[str] = None,
) -> SimJob:
    """Convenience constructor for a two-thread SMT job."""
    return SimJob(config, tuple(workloads), warmup, measure, label, topology, engine)


def workload_fingerprint(workload: SyntheticWorkload) -> str:
    """Deterministic identity of a workload's generated stream.

    Workload generators are pure functions of their constructor parameters
    (all public attributes; derived state like pre-built function tables is
    underscore-prefixed), so class + public attributes pin the trace.
    """
    public = sorted(
        (k, v) for k, v in vars(workload).items() if not k.startswith("_")
    )
    return f"{type(workload).__module__}.{type(workload).__qualname__}{public!r}"


def job_key(job: SimJob) -> str:
    """Stable content address for a job.

    The config is keyed by its ``repr`` (a tree of frozen dataclasses that
    lists every field); the topology by its resolved spec's content hash,
    so a preset name and the equivalent spec share one key; the engine
    *resolved*, so deferring to ``REPRO_ENGINE`` keys like pinning that
    engine, while the two engines never share cache entries.
    """
    parts = [
        f"cache-version={CACHE_VERSION}",
        f"label={job.label}",
        f"warmup={job.warmup}",
        f"measure={job.measure}",
        f"engine={resolve_engine(job.engine)}",
        f"config={job.config!r}",
        f"topology={job.resolved_topology().content_hash()}",
    ]
    parts.extend(workload_fingerprint(w) for w in job.workloads)
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
