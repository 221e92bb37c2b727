"""Object access over raw heap words, plus GC-safe handles.

:class:`HeapAccess` is the single place that knows how to interpret heap
words as objects: headers, field slots, array elements, sizes.  Both heaps
(DRAM and PJH) and all collectors go through it.

:class:`HandleTable` models the JVM's handle area: Python code never holds a
raw address across a safepoint — it holds an :class:`ObjectHandle` whose
slot the collectors update when objects move.  Handles double as GC roots.
"""

from __future__ import annotations

import struct
import weakref
from typing import Iterator, List, Optional

import numpy as np

from repro.errors import (
    ArrayIndexOutOfBoundsException,
    IllegalArgumentException,
    NullPointerException,
)
from repro.nvm.device import AddressSpace
from repro.runtime import layout
from repro.runtime.klass import FieldKind, Klass
from repro.runtime.metaspace import KlassRegistry


def float_to_bits(value: float) -> int:
    """IEEE-754 bit pattern of a double, as a signed 64-bit int."""
    return struct.unpack("<q", struct.pack("<d", value))[0]


def bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


class HeapAccess:
    """Interprets raw words in an address space as Java-like objects."""

    def __init__(self, memory: AddressSpace, registry: KlassRegistry) -> None:
        self.memory = memory
        self.registry = registry

    # -- headers ---------------------------------------------------------------
    def klass_of(self, address: int) -> Klass:
        if address == layout.NULL:
            raise NullPointerException("klass_of(null)")
        return self.registry.resolve(
            self.memory.read(address + layout.KLASS_WORD_OFFSET))

    def klass_pointer(self, address: int) -> int:
        return self.memory.read(address + layout.KLASS_WORD_OFFSET)

    def set_klass(self, address: int, klass: Klass) -> None:
        self.memory.write(address + layout.KLASS_WORD_OFFSET, klass.address)

    def mark_of(self, address: int) -> int:
        return self.memory.read(address + layout.MARK_WORD_OFFSET)

    def set_mark(self, address: int, mark: int) -> None:
        self.memory.write(address + layout.MARK_WORD_OFFSET, mark)

    # -- sizing -----------------------------------------------------------------
    def object_words(self, address: int) -> int:
        klass = self.klass_of(address)
        if klass.is_array:
            return klass.array_words(self.array_length(address))
        return klass.instance_words

    def array_length(self, address: int) -> int:
        return self.memory.read(address + layout.ARRAY_LENGTH_OFFSET)

    # -- initialization -----------------------------------------------------------
    def init_instance(self, address: int, klass: Klass) -> None:
        """Zero the body and write the header of a fresh instance."""
        self.memory.write_block(
            address, np.zeros(klass.instance_words, dtype=np.int64))
        self.set_mark(address, layout.mark_encode())
        self.set_klass(address, klass)

    def init_array(self, address: int, klass: Klass, length: int) -> None:
        self.memory.write_block(
            address, np.zeros(klass.array_words(length), dtype=np.int64))
        self.set_mark(address, layout.mark_encode())
        self.set_klass(address, klass)
        self.memory.write(address + layout.ARRAY_LENGTH_OFFSET, length)

    # -- fields --------------------------------------------------------------------
    def field_word(self, address: int, offset: int) -> int:
        return self.memory.read(address + offset)

    def set_field_word(self, address: int, offset: int, value: int) -> None:
        self.memory.write(address + offset, value)

    def element_slot(self, address: int, index: int) -> int:
        length = self.array_length(address)
        if index < 0 or index >= length:
            raise ArrayIndexOutOfBoundsException(
                f"index {index} for array of length {length}")
        return address + layout.ARRAY_HEADER_WORDS + index

    # -- traversal ----------------------------------------------------------------
    def ref_slot_addresses(self, address: int) -> Iterator[int]:
        """Absolute addresses of every reference-holding word of the object."""
        klass = self.klass_of(address)
        if klass.is_array:
            if klass.element_kind is FieldKind.REF:
                length = self.array_length(address)
                start = address + layout.ARRAY_HEADER_WORDS
                yield from range(start, start + length)
        else:
            for offset in klass.ref_field_offsets():
                yield address + offset

    def copy_object(self, src: int, dst: int, size_words: int) -> None:
        self.memory.write_block(dst, self.memory.read_block(src, size_words))


class HandleTable:
    """Indirection table between Python-held handles and heap addresses."""

    def __init__(self) -> None:
        self._slots: List[int] = []
        self._free: List[int] = []

    def create(self, address: int) -> int:
        if self._free:
            index = self._free.pop()
            self._slots[index] = address
        else:
            index = len(self._slots)
            self._slots.append(address)
        return index

    def address(self, index: int) -> int:
        return self._slots[index]

    def update(self, index: int, address: int) -> None:
        self._slots[index] = address

    def release(self, index: int) -> None:
        self._slots[index] = layout.NULL
        self._free.append(index)

    def live_indices(self) -> Iterator[int]:
        free = set(self._free)
        for index, address in enumerate(self._slots):
            if index not in free and address != layout.NULL:
                yield index

    def __len__(self) -> int:
        return len(self._slots) - len(self._free)


class ObjectHandle:
    """A GC-safe reference to a heap object.

    The handle stays valid across collections: collectors rewrite the
    underlying table slot when the object moves.  Releasing is automatic
    (when Python drops the handle) or explicit via :meth:`close`.
    """

    __slots__ = ("_table", "_index", "_finalizer", "__weakref__")

    def __init__(self, table: HandleTable, address: int) -> None:
        if address == layout.NULL:
            raise NullPointerException("cannot make a handle to null")
        self._table = table
        self._index = table.create(address)
        self._finalizer = weakref.finalize(self, table.release, self._index)

    @property
    def address(self) -> int:
        """Current address of the referent (may change across GCs)."""
        return self._table.address(self._index)

    def same_object(self, other: Optional["ObjectHandle"]) -> bool:
        """Reference equality (Java ``==``)."""
        return other is not None and self.address == other.address

    def close(self) -> None:
        self._finalizer()

    def __repr__(self) -> str:
        return f"ObjectHandle(@{self.address:#x})"


class RootSlot:
    """One GC root: a readable/writable cell holding a reference."""

    def get(self) -> int:
        raise NotImplementedError

    def set(self, address: int) -> None:
        raise NotImplementedError


class HandleRoot(RootSlot):
    """Root slot over a handle-table entry."""

    def __init__(self, table: HandleTable, index: int) -> None:
        self._table = table
        self._index = index

    def get(self) -> int:
        return self._table.address(self._index)

    def set(self, address: int) -> None:
        self._table.update(self._index, address)


class MemoryRoot(RootSlot):
    """Root slot over a raw word in some mapped device (e.g. a remset slot)."""

    def __init__(self, memory: AddressSpace, slot_address: int) -> None:
        self._memory = memory
        self.slot_address = slot_address

    def get(self) -> int:
        return self._memory.read(self.slot_address)

    def set(self, address: int) -> None:
        self._memory.write(self.slot_address, address)
