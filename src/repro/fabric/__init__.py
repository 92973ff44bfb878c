"""The execution fabric (``docs/fabric.md``).

* :mod:`~repro.fabric.jobs` — what a cell *is*: :class:`SimJob` and its
  content address :func:`job_key`;
* :mod:`~repro.fabric.store` — the checksummed on-disk :class:`ResultCache`;
* :mod:`~repro.fabric.execute` — where attempts run: :func:`execute_cell`
  (the RPR008 anchor), inline or in a process pool;
* :mod:`~repro.fabric.runner` — :class:`ParallelRunner`: one matrix per
  call, deduplicated by ``job_key``, streamed by ``run_iter``.
"""

from .execute import execute_cell
from .jobs import (
    CACHE_VERSION,
    CONTINUE,
    FAIL_FAST,
    FAILURE_POLICIES,
    CellTimeout,
    ConfigurationError,
    SimJob,
    SimulationError,
    job_key,
    single,
    smt,
    workload_fingerprint,
)
from .runner import (
    CellReport,
    MatrixError,
    MatrixReport,
    ParallelRunner,
    configure_default_runner,
    get_default_runner,
    run_iter,
    run_jobs,
    set_default_runner,
)
from .store import STALE_TMP_SECONDS, ResultCache

__all__ = [
    "CACHE_VERSION",
    "CONTINUE",
    "CellReport",
    "CellTimeout",
    "ConfigurationError",
    "FAILURE_POLICIES",
    "FAIL_FAST",
    "MatrixError",
    "MatrixReport",
    "ParallelRunner",
    "ResultCache",
    "STALE_TMP_SECONDS",
    "SimJob",
    "SimulationError",
    "configure_default_runner",
    "execute_cell",
    "get_default_runner",
    "job_key",
    "run_iter",
    "run_jobs",
    "set_default_runner",
    "single",
    "smt",
    "workload_fingerprint",
]
