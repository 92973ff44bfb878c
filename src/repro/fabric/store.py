"""Shared artifact store: the integrity-checked on-disk result cache.

The cache is keyed by :func:`repro.fabric.jobs.job_key` content addresses,
so any number of concurrent runners, figure drivers or hosts can share
one directory — a cell simulated by one run is a hit for every other
run that names the same job.  Entries are checksummed and
atomically written; a torn or corrupt entry is quarantined and reads as a
miss, never served.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from pathlib import Path
from typing import Optional, Union

from ..core.simulator import SimulationResult
from ..faults import inject as fault_inject
from ..faults import plan as fault_plans

#: Entry layout: magic, then sha256(payload), then the pickled payload.
#: The digest is verified on every load — a mismatch (torn write, bit rot,
#: a pre-checksum cache) quarantines the file and reads as a miss.
_CACHE_MAGIC = b"repro-result-cache-v1\n"
_DIGEST_LEN = 32

#: Temp files from writers that died mid-store are swept at cache startup
#: once they are older than this (seconds) — young ones may be live writes.
STALE_TMP_SECONDS = 3600.0


class ResultCache:
    """On-disk :class:`SimulationResult` store, one checksummed file per cell.

    Writes are atomic (temp file + ``os.replace``; the temp file is removed
    even when the write fails), so concurrent workers or concurrent figure
    drivers can share one cache directory.  Loads verify a sha256 trailer
    over the payload: an entry that fails verification is moved to a
    ``quarantine/`` subdirectory — kept for forensics, never served — and
    the cell is transparently re-simulated.  Delete the directory (or bump
    :data:`repro.fabric.jobs.CACHE_VERSION`) to invalidate.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.quarantine_dir = self.directory / "quarantine"
        # Observability for the runner's MatrixReport and for tests.
        self.quarantined = 0
        self.last_quarantined: Optional[str] = None
        self.store_failures = 0
        self.sweep_stale_tmp()

    def path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def sweep_stale_tmp(self, max_age_seconds: float = STALE_TMP_SECONDS) -> int:
        """Remove temp files abandoned by dead writers; returns the count."""
        removed = 0
        cutoff = time.time() - max_age_seconds
        for tmp in self.directory.glob(".*.tmp"):
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink()
                    removed += 1
            except OSError:
                pass
        return removed

    def load(self, key: str) -> Optional[SimulationResult]:
        self.last_quarantined = None
        path = self.path(key)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        if not data.startswith(_CACHE_MAGIC):
            self._quarantine(path, "bad magic (foreign or pre-checksum format)")
            return None
        digest = data[len(_CACHE_MAGIC):len(_CACHE_MAGIC) + _DIGEST_LEN]
        payload = data[len(_CACHE_MAGIC) + _DIGEST_LEN:]
        if hashlib.sha256(payload).digest() != digest:
            self._quarantine(path, "sha256 mismatch (torn or corrupt write)")
            return None
        try:
            result = pickle.loads(payload)
        except Exception:
            # Checksum-valid but unreadable: the bytes are what the writer
            # stored, the *code* moved underneath them (stale class layout).
            # A plain miss — re-simulation will overwrite with fresh bytes.
            return None
        return result if isinstance(result, SimulationResult) else None

    def store(self, key: str, result: SimulationResult) -> None:
        path = self.path(key)
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        data = _CACHE_MAGIC + hashlib.sha256(payload).digest() + payload
        # Fault-injection sites: corrupt the bytes *after* the digest was
        # computed, exactly like bit rot or a torn write would.
        if fault_inject.should_fire(fault_plans.CACHE_CORRUPT_WRITE, key):
            data = data[:-1] + bytes([data[-1] ^ 0xFF])
        if fault_inject.should_fire(fault_plans.CACHE_TORN_WRITE, key):
            data = data[: max(len(_CACHE_MAGIC) + _DIGEST_LEN + 1, len(data) // 2)]
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        finally:
            # On a failed write (disk full, replace error) the temp file
            # must not leak; after a successful replace this is a no-op.
            try:
                tmp.unlink()
            except OSError:
                pass

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a bad entry aside so it is never loaded again."""
        try:
            self.quarantine_dir.mkdir(exist_ok=True)
            os.replace(path, self.quarantine_dir / f"{path.name}.{os.getpid()}")
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
        self.quarantined += 1
        self.last_quarantined = reason

    def clear(self) -> int:
        """Remove every cached result; returns the number removed."""
        removed = 0
        for path in self.directory.glob("*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
