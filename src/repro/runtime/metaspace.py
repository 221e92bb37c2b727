"""Klass registries: the DRAM Meta Space and the global address->Klass map.

The stock JVM keeps Klasses in a Meta Space outside the Java heap; objects
refer to them through the class pointer in their header.  We model class
pointers as absolute word addresses resolved through a process-wide
:class:`KlassRegistry`.  DRAM-resident Klasses get synthetic addresses from a
reserved range that no memory device ever maps; NVM-resident Klasses are
registered by the PJH Klass segment at their real, durable addresses
(:mod:`repro.core.klass_segment`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.errors import HeapCorruptionError, IllegalArgumentException
from repro.runtime.klass import Klass

# Synthetic address range for DRAM Klasses: far above any device mapping.
METASPACE_BASE = 0x7F00_0000_0000
METASPACE_STRIDE = 0x40


class KlassRegistry:
    """Process-wide mapping from class-pointer address to Klass."""

    def __init__(self) -> None:
        self._by_address: Dict[int, Klass] = {}

    def register(self, klass: Klass, address: int) -> None:
        if address == 0:
            raise IllegalArgumentException("klass address 0 is reserved for null")
        existing = self._by_address.get(address)
        if existing is not None and existing is not klass:
            raise IllegalArgumentException(
                f"address {address:#x} already holds {existing.name}")
        klass.address = address
        self._by_address[address] = klass

    def resolve(self, address: int) -> Klass:
        try:
            return self._by_address[address]
        except KeyError:
            raise HeapCorruptionError(
                f"class pointer {address:#x} resolves to no Klass") from None

    def find(self, address: int) -> Optional[Klass]:
        """The Klass registered at *address*, or None."""
        return self._by_address.get(address)


class Metaspace:
    """The DRAM Meta Space: hands out synthetic addresses for DRAM Klasses."""

    def __init__(self, registry: KlassRegistry) -> None:
        self.registry = registry
        self._next = METASPACE_BASE
        self._by_name: Dict[str, Klass] = {}

    def add(self, klass: Klass) -> Klass:
        if klass.name in self._by_name:
            raise IllegalArgumentException(
                f"DRAM Klass {klass.name!r} already defined")
        self.registry.register(klass, self._next)
        self._next += METASPACE_STRIDE
        self._by_name[klass.name] = klass
        return klass

    def lookup(self, name: str) -> Optional[Klass]:
        return self._by_name.get(name)

    def names(self) -> Iterable[str]:
        return self._by_name.keys()
