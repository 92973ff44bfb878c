"""Factory for STLB replacement policies by name.

Built on the shared :class:`repro.common.registry.Registry` base; each entry
is a factory ``(num_sets, associativity, **context) -> policy``.  The
context keywords (``itp_config``, ``p_evict_data``, ``seed``) are sourced
from :class:`SystemConfig` by :class:`repro.tlb.hierarchy.MMU`; factories
take what they need and ignore the rest.  Extensions register their own factories on
:data:`TLB_POLICIES` (see ``examples/custom_policy.py``).
"""

from __future__ import annotations

from typing import Callable, Optional

from ...common.params import ITPConfig
from ...common.registry import Registry
from .base import TLBReplacementPolicy
from .chirp import CHiRPPolicy
from .itp import ITPPolicy
from .lru import TLBLRUPolicy
from .probabilistic import ProbabilisticLRUPolicy

TLBPolicyFactory = Callable[..., TLBReplacementPolicy]

#: The process-wide TLB-policy registry.
TLB_POLICIES: Registry[TLBPolicyFactory] = Registry("TLB policy")


def _lru(num_sets: int, associativity: int, **_context: object) -> TLBLRUPolicy:
    return TLBLRUPolicy(num_sets, associativity)


def _itp(num_sets: int, associativity: int, **context: object) -> ITPPolicy:
    itp_config = context.get("itp_config") or ITPConfig()
    return ITPPolicy(num_sets, associativity, itp_config)


def _chirp(num_sets: int, associativity: int, **_context: object) -> CHiRPPolicy:
    return CHiRPPolicy(num_sets, associativity)


def _problru(
    num_sets: int, associativity: int, **context: object
) -> ProbabilisticLRUPolicy:
    return ProbabilisticLRUPolicy(
        num_sets,
        associativity,
        float(context.get("p_evict_data", 0.8)),
        int(context.get("seed", 1234)),
    )


TLB_POLICIES.register("lru", _lru)
TLB_POLICIES.register("itp", _itp)
TLB_POLICIES.register("chirp", _chirp)
TLB_POLICIES.register("problru", _problru)


def available_tlb_policies() -> tuple:
    return TLB_POLICIES.names()


def make_tlb_policy(
    name: str,
    num_sets: int,
    associativity: int,
    *,
    itp_config: Optional[ITPConfig] = None,
    p_evict_data: float = 0.8,
    seed: int = 1234,
) -> TLBReplacementPolicy:
    """Instantiate a TLB replacement policy by its registry name.

    ``problru`` accepts ``p_evict_data`` (the ``P`` of Figure 3);
    ``itp`` accepts an :class:`ITPConfig` (N, M, Freq width).
    """
    return TLB_POLICIES.get(name)(
        num_sets,
        associativity,
        itp_config=itp_config,
        p_evict_data=p_evict_data,
        seed=seed,
    )
