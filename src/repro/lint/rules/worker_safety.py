"""RPR008 — worker-reachable code is deterministic and share-nothing.

The fabric's runner ships the worker entry point
(:data:`repro.lint.manifest.WORKER_ENTRY_POINTS` — ``execute_cell`` in
``fabric/execute.py``) to pool processes and runs it inline on the
serial path.  Two invariants make that safe and keep cell results
content-addressable by ``job_key``:

* no write to module-level mutable state (results must not depend on
  which worker ran which cell, or in what order);
* no unseeded randomness or wall-clock dependence (``time.perf_counter``
  is sanctioned — it only feeds the *reported* timing, never simulated
  state; seeded ``random.Random(seed)`` / ``numpy.random.default_rng``
  are fine).

The deterministic fault-injection package is the one sanctioned
exception (:data:`~repro.lint.manifest.WORKER_SANCTIONED_PREFIXES`): it
sleeps and reads the environment *by design*, under its own plan-seeded
determinism, so the closure never descends into it.

Diagnostics anchor at the offending write/call (callee site), so a
sanctioned site suppresses with ``# repro: allow[RPR008]`` right where
the nondeterminism lives; suppressing at a call site instead prunes the
whole subtree behind that call.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, Optional, Sequence, Tuple

from .. import manifest
from ..callgraph import program_for
from ..context import FileContext
from ..diagnostics import Diagnostic
from ..effects import EffectAnalysis, render_path
from .base import Rule


class WorkerSafetyRule(Rule):
    code = "RPR008"
    summary = "worker-reachable code avoids global writes and unseeded RNG/time APIs"

    def __init__(
        self,
        entry_points: Optional[Dict[str, FrozenSet[str]]] = None,
        sanctioned_prefixes: Optional[Tuple[str, ...]] = None,
    ) -> None:
        self._entry_points = entry_points
        self._sanctioned = sanctioned_prefixes

    def check(self, files: Sequence[FileContext]) -> Iterator[Diagnostic]:
        entry_points = (
            self._entry_points
            if self._entry_points is not None
            else manifest.WORKER_ENTRY_POINTS
        )
        sanctioned = (
            self._sanctioned
            if self._sanctioned is not None
            else manifest.WORKER_SANCTIONED_PREFIXES
        )
        program = program_for(files)
        analysis: Optional[EffectAnalysis] = None

        def worker_ok(relkey: str) -> bool:
            return not relkey.startswith(sanctioned)

        for relkey, quals in sorted(entry_points.items()):
            for qual in sorted(quals):
                entry = program.functions.get((relkey, qual))
                if entry is None:
                    continue  # entry not in the linted set (fixtures)
                if analysis is None:
                    analysis = EffectAnalysis(program)
                effects, paths = analysis.closure(
                    [entry], code=self.code, module_ok=worker_ok
                )
                for ident in sorted(effects):
                    eff = effects[ident]
                    if eff.kind != "env":
                        continue
                    fn = program.functions.get((eff.relkey, eff.qualname))
                    if fn is None:  # pragma: no cover - closure invariant
                        continue
                    path = render_path(
                        paths.get((eff.relkey, eff.qualname), (qual,))
                    )
                    yield self.diag(
                        fn.ctx,
                        eff.line,
                        f"'{eff.name}' is reachable from worker entry point "
                        f"'{qual}' ({path}); workers must stay deterministic "
                        "— seed it, hoist it out of the worker path, or move "
                        "it behind repro.faults",
                    )
