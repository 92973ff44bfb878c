"""Generic name → object registry.

One registry base backs every lookup-by-name surface of the simulator:
cache replacement policies (:mod:`repro.replacement.registry`), TLB
replacement policies (:mod:`repro.tlb.policies.registry`) and the Table 2
policy suites (:data:`repro.experiments.runner.SUITES`).  That means one
registration API for extensions (``examples/custom_policy.py`` registers a
brand-new TLB policy this way) and one "unknown name" message format whose
candidate list always comes from the registry itself — a single source of
truth.

Entries are arbitrary objects: policy registries store factory callables of
signature ``factory(num_sets, associativity, **context)``, the suite
registry stores :class:`~repro.experiments.runner.PolicySuite` instances.
Insertion order is preserved (Table 2 ordering is meaningful).
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, Tuple, TypeVar

T = TypeVar("T")


class RegistryError(ValueError):
    """Lookup or registration failed; the message lists known names."""


class Registry(Generic[T]):
    """Ordered name → entry mapping with uniform error reporting."""

    def __init__(self, kind: str) -> None:
        #: Human-readable entry kind, used in error messages
        #: (``"cache policy"``, ``"TLB policy"``, ``"policy suite"``).
        self.kind = kind
        self._entries: Dict[str, T] = {}

    def register(self, name: str, entry: T, *, overwrite: bool = False) -> T:
        """Add ``entry`` under ``name``; returns the entry for chaining."""
        if not name:
            raise RegistryError(f"{self.kind} name must be non-empty")
        if name in self._entries and not overwrite:
            raise RegistryError(
                f"{self.kind} {name!r} is already registered; "
                "pass overwrite=True to replace it"
            )
        self._entries[name] = entry
        return entry

    def get(self, name: str) -> T:
        """Look up ``name``; unknown names raise listing every known name."""
        try:
            return self._entries[name]
        except KeyError:
            raise RegistryError(
                f"unknown {self.kind} {name!r}; available: {', '.join(self._entries)}"
            ) from None

    def names(self) -> Tuple[str, ...]:
        """Registered names in insertion order."""
        return tuple(self._entries)

    def items(self) -> Tuple[Tuple[str, T], ...]:
        return tuple(self._entries.items())

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)
