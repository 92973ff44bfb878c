"""Rule registry for ``repro.lint``."""

from __future__ import annotations

from typing import List

from .allocations import AllocationRule
from .base import Rule
from .construction import ConstructionRule
from .effects_parity import EffectParityRule
from .enumcmp import EnumComparisonRule
from .manifest_liveness import ManifestLivenessRule
from .params import ParamsImmutabilityRule
from .slots import SlotsRule
from .stats_reset import StatsResetRule
from .worker_safety import WorkerSafetyRule


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in code order."""
    return [
        AllocationRule(),
        SlotsRule(),
        EnumComparisonRule(),
        StatsResetRule(),
        ParamsImmutabilityRule(),
        ConstructionRule(),
        EffectParityRule(),
        WorkerSafetyRule(),
        ManifestLivenessRule(),
    ]


__all__ = [
    "AllocationRule",
    "ConstructionRule",
    "EffectParityRule",
    "EnumComparisonRule",
    "ManifestLivenessRule",
    "ParamsImmutabilityRule",
    "Rule",
    "SlotsRule",
    "StatsResetRule",
    "WorkerSafetyRule",
    "all_rules",
]
