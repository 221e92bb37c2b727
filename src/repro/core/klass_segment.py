"""The PJH Klass segment: durable class metadata, reinitialised in place.

Paper §3.1/§3.3: all Klasses used by persistent objects live in a dedicated
segment inside the PJH, separate from the DRAM Meta Space.  Their addresses
are what object headers point to, so they must stay put: "we require that
all Klasses in PJH stand for a place holder and be initialized in place.
In this way, all objects and class pointers will become available after
class reinitialization" — which is why loading a heap costs O(#Klasses),
not O(#objects) (Figure 18's flat UG curve).

A Klass record serialises everything needed to rebuild layout after a
reboot: name, superclass record address, array-ness, element type and the
declared fields.  Records are immutable once published; publication order
is record-then-top-then-name-table-entry so a crash can at worst leak a few
words of segment space.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import HeapCorruptionError, OutOfMemoryError
from repro.nvm.device import NvmDevice
from repro.nvm.persist import PersistDomain
from repro.runtime.klass import FieldDescriptor, FieldKind, Klass, Residence
from repro.runtime.metaspace import KlassRegistry

from repro.core.name_table import (
    ENTRY_TYPE_KLASS,
    MAX_NAME_BYTES,
    NameTable,
    _pack_name,
    _unpack_name,
)

_NAME_WORDS = MAX_NAME_BYTES // 8

_KIND_CODE = {None: 0, FieldKind.INT: 1, FieldKind.FLOAT: 2, FieldKind.REF: 3}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}

_FLAG_ARRAY = 1

# Record layout (word offsets).
_R_NAME_LEN = 0
_R_NAME = 1
_R_SUPER = _R_NAME + _NAME_WORDS            # 9
_R_FLAGS = _R_SUPER + 1                     # 10
_R_ELEMENT_KIND = _R_FLAGS + 1              # 11
_R_ELEMENT_KLASS = _R_ELEMENT_KIND + 1      # 12
_R_FIELD_COUNT = _R_ELEMENT_KLASS + 1       # 13
_R_FIELDS = _R_FIELD_COUNT + 1              # 14
_FIELD_RECORD_WORDS = 1 + 1 + _NAME_WORDS   # kind + name_len + name


class KlassSegment:
    """Allocator + (de)serialiser for NVM-resident Klass records."""

    def __init__(self, device: NvmDevice, metadata, name_table: NameTable,
                 base_address: int, registry: KlassRegistry) -> None:
        self.device = device
        self.metadata = metadata
        self.name_table = name_table
        self.base_address = base_address
        self.registry = registry
        layout = metadata.layout()
        self.offset = layout.klass_segment_offset
        self.limit = self.offset + layout.klass_segment_words
        self._by_name: Dict[str, Klass] = {}
        self.persist = PersistDomain(device, name="pjh-klass")

    # ------------------------------------------------------------------
    # Lookup / aliasing
    # ------------------------------------------------------------------
    def klass_count(self) -> int:
        return len(self._by_name)

    def link_alias_if_known(self, volatile_klass: Klass) -> None:
        """Pair a freshly defined DRAM Klass with its NVM twin, if present."""
        nvm = self._by_name.get(volatile_klass.name)
        if nvm is not None and nvm.alias is None:
            volatile_klass.link_alias(nvm)

    # ------------------------------------------------------------------
    # Creation (on first pnew of a class — paper §3.1 Klass entries)
    # ------------------------------------------------------------------
    def persistent_klass_for(self, volatile_klass: Klass) -> Klass:
        existing = self._by_name.get(volatile_klass.name)
        if existing is not None:
            if existing.alias is None and volatile_klass.alias is None:
                volatile_klass.link_alias(existing)
            return existing
        if volatile_klass.residence is Residence.NVM:
            return volatile_klass

        super_nvm: Optional[Klass] = None
        if volatile_klass.super_klass is not None:
            super_nvm = self.persistent_klass_for(volatile_klass.super_klass)
        element_nvm: Optional[Klass] = None
        if volatile_klass.element_klass is not None:
            element_nvm = self.persistent_klass_for(volatile_klass.element_klass)

        nvm_klass = Klass(
            volatile_klass.name,
            fields=volatile_klass.own_fields,
            super_klass=super_nvm,
            residence=Residence.NVM,
            is_array=volatile_klass.is_array,
            element_kind=volatile_klass.element_kind,
            element_klass=element_nvm,
        )
        address = self._serialize(nvm_klass)
        self.registry.register(nvm_klass, address)
        self.name_table.put(ENTRY_TYPE_KLASS, nvm_klass.name, address)
        self._by_name[nvm_klass.name] = nvm_klass
        if volatile_klass.alias is None:
            volatile_klass.link_alias(nvm_klass)
        return nvm_klass

    def _serialize(self, klass: Klass) -> int:
        size = _R_FIELDS + len(klass.own_fields) * _FIELD_RECORD_WORDS
        top = self.metadata.klass_segment_top
        if top + size > self.limit:
            raise OutOfMemoryError(
                f"Klass segment full while storing {klass.name!r}")
        record = np.zeros(size, dtype=np.int64)
        name_words, name_len = _pack_name(klass.name)
        record[_R_NAME_LEN] = name_len
        record[_R_NAME:_R_NAME + _NAME_WORDS] = name_words
        record[_R_SUPER] = (klass.super_klass.address
                            if klass.super_klass is not None else 0)
        record[_R_FLAGS] = _FLAG_ARRAY if klass.is_array else 0
        record[_R_ELEMENT_KIND] = _KIND_CODE[klass.element_kind]
        record[_R_ELEMENT_KLASS] = (klass.element_klass.address
                                    if klass.element_klass is not None else 0)
        record[_R_FIELD_COUNT] = len(klass.own_fields)
        for i, f in enumerate(klass.own_fields):
            off = _R_FIELDS + i * _FIELD_RECORD_WORDS
            fname_words, fname_len = _pack_name(f.name)
            record[off] = _KIND_CODE[f.kind]
            record[off + 1] = fname_len
            record[off + 2:off + 2 + _NAME_WORDS] = fname_words
        self.device.write_block(top, record)
        # Record epoch commits before the top bump publishes it.
        self.persist.persist(top, size)
        self.metadata.set_klass_segment_top(top + size)
        return self.base_address + top

    # ------------------------------------------------------------------
    # Reinitialisation in place (on loadHeap — paper §3.3)
    # ------------------------------------------------------------------
    def reinitialize_all(self, metaspace) -> int:
        """Rebuild every Klass from its record, registered at its old address.

        Records are processed in address order, which is creation order, so
        superclasses and element classes resolve before their dependants.
        Returns the number of Klasses reinitialised.
        """
        entries = sorted(
            self.name_table.entries(ENTRY_TYPE_KLASS), key=lambda e: e[1])
        for name, address, _index in entries:
            klass = self.registry.find(address)
            if klass is not None:
                # Same VM remounting the heap (or a remap that registered
                # it): the Klass is already live at this address, and
                # reinitialisation in place is a no-op.
                if klass.name != name:
                    raise HeapCorruptionError(
                        f"Klass entry {name!r} collides with live Klass "
                        f"{klass.name!r} at {address:#x}")
            else:
                klass = self._deserialize(address)
                if klass.name != name:
                    raise HeapCorruptionError(
                        f"Klass entry {name!r} points at record for "
                        f"{klass.name!r}")
                self.registry.register(klass, address)
            self._by_name[klass.name] = klass
            volatile_twin = metaspace.lookup(klass.name)
            if volatile_twin is not None and volatile_twin.alias is None:
                volatile_twin.link_alias(klass)
        return len(entries)

    def relocate(self, shift: Callable[[int], None]) -> None:
        """Remap (§3.3): hand the address of every record's super and
        element word to *shift*, once the name table holds the records'
        new addresses."""
        for _name, address, _index in self.name_table.entries(
                ENTRY_TYPE_KLASS):
            shift(address + _R_SUPER)
            shift(address + _R_ELEMENT_KLASS)

    def _deserialize(self, address: int) -> Klass:
        offset = address - self.base_address
        name_len = self.device.read(offset + _R_NAME_LEN)
        name = _unpack_name(
            self.device.read_block(offset + _R_NAME, _NAME_WORDS), name_len)
        super_addr = self.device.read(offset + _R_SUPER)
        flags = self.device.read(offset + _R_FLAGS)
        element_kind = _CODE_KIND[self.device.read(offset + _R_ELEMENT_KIND)]
        element_addr = self.device.read(offset + _R_ELEMENT_KLASS)
        field_count = self.device.read(offset + _R_FIELD_COUNT)
        fields: List[FieldDescriptor] = []
        for i in range(field_count):
            foff = offset + _R_FIELDS + i * _FIELD_RECORD_WORDS
            kind = _CODE_KIND[self.device.read(foff)]
            fname_len = self.device.read(foff + 1)
            fname = _unpack_name(
                self.device.read_block(foff + 2, _NAME_WORDS), fname_len)
            fields.append(FieldDescriptor(fname, kind))
        super_klass = (self.registry.resolve(super_addr)
                       if super_addr else None)
        element_klass = (self.registry.resolve(element_addr)
                         if element_addr else None)
        return Klass(name, fields, super_klass, Residence.NVM,
                     is_array=bool(flags & _FLAG_ARRAY),
                     element_kind=element_kind,
                     element_klass=element_klass)
