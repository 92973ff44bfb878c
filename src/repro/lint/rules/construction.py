"""RPR006 — hardware leaf structures are built only by the machine wiring.

:class:`SetAssociativeCache`, :class:`TLB` and :class:`DRAM` are
instantiated directly in exactly two modules: ``core/system.py`` wires the
caches and DRAM of the Table 1 machine (and, through ``CoreSlice``, of the
N-core machine), and ``tlb/hierarchy.py`` builds each MMU's TLBs from the
config.  A construction anywhere else in ``src/repro`` is a second, hand
wiring of the machine that bypasses the policy-context and stats-bucket
conventions those two modules keep, so it is flagged.  Tests and examples
are not linted by CI; genuinely sanctioned sites elsewhere carry
``# repro: allow[RPR006]``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence

from .. import manifest
from ..context import FileContext
from ..diagnostics import Diagnostic
from .base import Rule


def _called_name(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class ConstructionRule(Rule):
    code = "RPR006"
    summary = "hardware leaf structures are constructed only by the machine wiring"

    def check(self, files: Sequence[FileContext]) -> Iterator[Diagnostic]:
        for ctx in files:
            if ctx.tree is None:
                continue
            if ctx.relkey in manifest.WIRING_RELKEYS:
                continue
            for node in ast.walk(ctx.tree):
                if (
                    isinstance(node, ast.Call)
                    and _called_name(node) in manifest.LEAF_CONSTRUCTORS
                ):
                    yield self.diag(
                        ctx,
                        node.lineno,
                        f"direct {_called_name(node)}(...) construction outside "
                        "the machine wiring (core/system.py, tlb/hierarchy.py); "
                        "build the machine through System or MulticoreSystem",
                    )
