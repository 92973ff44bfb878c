#!/usr/bin/env python
"""Extending the simulator with a custom STLB replacement policy.

The library's policy interfaces are public extension points.  This example
implements SRRIP-for-TLBs as a new STLB policy, registers it on the TLB
policy registry under the name ``tlb-srrip``, and races it against LRU and
iTP on a server workload — the workflow a researcher prototyping a new TLB
policy would follow.

Registration is the whole integration story: once the name exists in
:data:`repro.tlb.policies.registry.TLB_POLICIES`, every construction path —
``SystemConfig.with_policies``, ``System``/``MulticoreSystem``, the
experiment drivers — can use it like a built-in.

Run:  python examples/custom_policy.py
"""

from typing import Sequence

from repro import ServerWorkload, simulate
from repro.common.params import scaled_config
from repro.common.types import AccessType
from repro.tlb.entry import TLBEntry
from repro.tlb.policies.base import TLBReplacementPolicy
from repro.tlb.policies.registry import TLB_POLICIES

RRPV_MAX = 3


class TLBSRRIPPolicy(TLBReplacementPolicy):
    """Re-reference interval prediction applied to STLB entries.

    Type-oblivious (like LRU/CHiRP): a useful control to show that generic
    scan resistance alone does not recover iTP's instruction-aware gains.
    """

    name = "tlb-srrip"

    def __init__(self, num_sets: int, associativity: int) -> None:
        super().__init__(num_sets, associativity)
        self.rrpv = [[RRPV_MAX] * associativity for _ in range(num_sets)]

    def victim(self, set_index: int, entries: Sequence[TLBEntry]) -> int:
        row = self.rrpv[set_index]
        while True:
            for way, value in enumerate(row):
                if value >= RRPV_MAX:
                    return way
            for way in range(self.associativity):
                row[way] += 1

    def on_insert(self, set_index, way, entries, access_type: AccessType) -> None:
        self.rrpv[set_index][way] = RRPV_MAX - 1

    def on_hit(self, set_index, way, entries, access_type: AccessType) -> None:
        self.rrpv[set_index][way] = 0


# One line of integration: factories receive (num_sets, associativity,
# **context) — context carries SystemConfig-derived keywords (itp_config,
# p_evict_data, ...) that this policy does not need.
TLB_POLICIES.register(
    "tlb-srrip",
    lambda num_sets, associativity, **_ctx: TLBSRRIPPolicy(num_sets, associativity),
)


def run_with_stlb_policy(policy_name, workload):
    """Run the standard driver with the STLB policy selected by name."""
    config = scaled_config().with_policies(stlb=policy_name)
    result = simulate(config, workload, 50_000, 150_000, config_label=policy_name)
    print(f"{policy_name:<12} ipc={result.ipc:.4f} "
          f"stlb impki={result.get('stlb.impki'):.2f} "
          f"dmpki={result.get('stlb.dmpki'):.2f}")
    return result.ipc


def main() -> None:
    workload = ServerWorkload("custom", seed=9)
    lru_ipc = run_with_stlb_policy("lru", workload)
    run_with_stlb_policy("tlb-srrip", workload)
    itp_ipc = run_with_stlb_policy("itp", workload)
    print()
    print(f"iTP vs LRU: {100.0 * (itp_ipc / lru_ipc - 1.0):+.1f}%  — "
          "type-awareness, not just scan resistance, is what pays off.")


if __name__ == "__main__":
    main()
