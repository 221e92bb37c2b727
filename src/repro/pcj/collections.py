"""PCJ's persistent collections: arrays, tuples, array lists, hashmaps.

These are the data structures the Figure 15 microbenchmarks exercise
("tuples, generic arrays and hashmaps").  Every mutation rides the full
off-heap ACID envelope of :class:`~repro.pcj.base.PersistentObject` —
transaction, undo log, type-metadata validation, reference counting — which
is precisely why PJH's on-heap equivalents outrun them.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ArrayIndexOutOfBoundsException, IllegalArgumentException
from repro.pcj.base import PersistentObject
from repro.pcj.nvml import HDR_TYPE, MemoryPool
from repro.pcj.types import pcj_equals, pcj_hash


def _wrap(pool: MemoryPool, offset: int) -> Optional[PersistentObject]:
    if not offset:
        return None
    cls = pool.type_classes.get(pool.header_word(offset, HDR_TYPE),
                                PersistentObject)
    return cls.from_offset(pool, offset)


class PersistentArray(PersistentObject):
    """Fixed-length array of references: payload [length, slot...]."""

    TYPE_NAME = "PersistentArray"

    def __init__(self, pool: MemoryPool, length: int) -> None:
        if length < 0:
            raise IllegalArgumentException(f"negative length {length}")
        self._pending_length = length
        super().__init__(pool, 1 + length)

    def _init_payload(self) -> None:
        device = self.pool.device
        device.write(self.offset, self._pending_length)
        self.pool.persist.flush(self.offset)  # drained by the create tx

    def length(self) -> int:
        return self._read_word(0)

    def _check(self, index: int) -> None:
        n = self.pool.device.read(self.offset)
        if index < 0 or index >= n:
            raise ArrayIndexOutOfBoundsException(
                f"index {index} for PersistentArray of length {n}")

    def get(self, index: int) -> Optional[PersistentObject]:
        self._check(index)
        return _wrap(self.pool, self._read_word(1 + index))

    def get_offset(self, index: int) -> int:
        self._check(index)
        return self._read_word(1 + index)

    def set(self, index: int, value: Optional[PersistentObject]) -> None:
        self._check(index)
        self._write_word(1 + index, value.offset if value else 0,
                         old_is_ref=True, new_is_ref=True)

    def _release_children(self) -> None:
        n = self.pool.device.read(self.offset)
        for i in range(n):
            self._dec_offset(self.pool,
                             self.pool.device.read(self.offset + 1 + i))


class PersistentLongArray(PersistentObject):
    """Fixed-length array of primitive longs ("Primitive" in Fig. 15)."""

    TYPE_NAME = "PersistentLongArray"

    def __init__(self, pool: MemoryPool, length: int) -> None:
        if length < 0:
            raise IllegalArgumentException(f"negative length {length}")
        self._pending_length = length
        super().__init__(pool, 1 + length)

    def _init_payload(self) -> None:
        device = self.pool.device
        device.write(self.offset, self._pending_length)
        self.pool.persist.flush(self.offset)  # drained by the create tx

    def length(self) -> int:
        return self._read_word(0)

    def _check(self, index: int) -> None:
        n = self.pool.device.read(self.offset)
        if index < 0 or index >= n:
            raise ArrayIndexOutOfBoundsException(
                f"index {index} for PersistentLongArray of length {n}")

    def get(self, index: int) -> int:
        self._check(index)
        return self._read_word(1 + index)

    def set(self, index: int, value: int) -> None:
        self._check(index)
        self._write_word(1 + index, int(value))


class PersistentTuple(PersistentObject):
    """Fixed-arity tuple of references ("Tuple" in Fig. 15)."""

    TYPE_NAME = "PersistentTuple"

    def __init__(self, pool: MemoryPool, arity: int) -> None:
        if arity <= 0:
            raise IllegalArgumentException(f"tuple arity must be > 0")
        self._pending_arity = arity
        super().__init__(pool, 1 + arity)

    def _init_payload(self) -> None:
        device = self.pool.device
        device.write(self.offset, self._pending_arity)
        self.pool.persist.flush(self.offset)  # drained by the create tx

    def arity(self) -> int:
        return self._read_word(0)

    def _check(self, index: int) -> None:
        n = self.pool.device.read(self.offset)
        if index < 0 or index >= n:
            raise ArrayIndexOutOfBoundsException(
                f"position {index} for {n}-tuple")

    def get(self, index: int) -> Optional[PersistentObject]:
        self._check(index)
        return _wrap(self.pool, self._read_word(1 + index))

    def set(self, index: int, value: Optional[PersistentObject]) -> None:
        self._check(index)
        self._write_word(1 + index, value.offset if value else 0,
                         old_is_ref=True, new_is_ref=True)

    def _release_children(self) -> None:
        n = self.pool.device.read(self.offset)
        for i in range(n):
            self._dec_offset(self.pool,
                             self.pool.device.read(self.offset + 1 + i))


class PersistentArrayList(PersistentObject):
    """Growable list of references ("ArrayList" in Fig. 15).

    Payload: [size, backing-array offset].  Growth allocates a doubled
    backing :class:`PersistentArray` and copies element by element — each
    copy a full ACID write, as the off-heap design demands.
    """

    TYPE_NAME = "PersistentArrayList"
    _INITIAL_CAPACITY = 8

    def __init__(self, pool: MemoryPool) -> None:
        super().__init__(pool, 2)
        backing = PersistentArray(pool, self._INITIAL_CAPACITY)
        self._write_word(1, backing.offset, new_is_ref=True)
        backing.dec_ref()  # ownership transferred to the list

    def size(self) -> int:
        return self._read_word(0)

    def _backing(self) -> PersistentArray:
        return PersistentArray.from_offset(self.pool, self._read_word(1))

    def _check(self, index: int) -> None:
        n = self.pool.device.read(self.offset)
        if index < 0 or index >= n:
            raise ArrayIndexOutOfBoundsException(
                f"index {index} for list of size {n}")

    def add(self, value: Optional[PersistentObject]) -> None:
        size = self.size()
        backing = self._backing()
        if size >= backing.length():
            bigger = PersistentArray(self.pool, max(1, backing.length()) * 2)
            for i in range(size):
                bigger.set(i, backing.get(i))
            self._write_word(1, bigger.offset,
                             old_is_ref=True, new_is_ref=True)
            bigger.dec_ref()  # ownership transferred to the list
            backing = bigger
        backing.set(size, value)
        self._write_word(0, size + 1)

    def get(self, index: int) -> Optional[PersistentObject]:
        self._check(index)
        return self._backing().get(index)

    def set(self, index: int, value: Optional[PersistentObject]) -> None:
        self._check(index)
        self._backing().set(index, value)

    def _release_children(self) -> None:
        self._dec_offset(self.pool, self.pool.device.read(self.offset + 1))


class _HashEntry(PersistentObject):
    """Chained hashmap entry: [hash, key, value, next]."""

    TYPE_NAME = "PersistentHashEntry"

    def __init__(self, pool: MemoryPool) -> None:
        super().__init__(pool, 4)

    def _release_children(self) -> None:
        device = self.pool.device
        self._dec_offset(self.pool, device.read(self.offset + 1))
        self._dec_offset(self.pool, device.read(self.offset + 2))
        self._dec_offset(self.pool, device.read(self.offset + 3))


class PersistentHashmap(PersistentObject):
    """Chained hash map over persistent keys/values ("Hashmap" in Fig. 15).

    Payload: [size, bucket-array offset].  Keys compare by content for the
    boxed types and by identity otherwise (see
    :func:`repro.pcj.types.pcj_equals`).
    """

    TYPE_NAME = "PersistentHashmap"
    _INITIAL_BUCKETS = 16
    _LOAD_FACTOR = 0.75

    def __init__(self, pool: MemoryPool) -> None:
        super().__init__(pool, 2)
        buckets = PersistentArray(pool, self._INITIAL_BUCKETS)
        self._write_word(1, buckets.offset, new_is_ref=True)
        buckets.dec_ref()  # ownership transferred to the map

    def size(self) -> int:
        return self._read_word(0)

    def _buckets(self) -> PersistentArray:
        return PersistentArray.from_offset(self.pool, self._read_word(1))

    def put(self, key: PersistentObject,
            value: Optional[PersistentObject]) -> None:
        pool = self.pool
        buckets = self._buckets()
        h = pcj_hash(pool, key.offset)
        index = h % buckets.length()
        cursor = buckets.get_offset(index)
        while cursor:
            entry_key = pool.device.read(cursor + 1)
            if pcj_equals(pool, entry_key, key.offset):
                entry = _HashEntry.from_offset(pool, cursor)
                entry._write_word(2, value.offset if value else 0,
                                  old_is_ref=True, new_is_ref=True)
                return
            cursor = pool.device.read(cursor + 3)
        entry = _HashEntry(pool)
        entry._write_word(0, h)
        entry._write_word(1, key.offset, new_is_ref=True)
        entry._write_word(2, value.offset if value else 0, new_is_ref=True)
        entry._write_word(3, buckets.get_offset(index), new_is_ref=True)
        # Old head's chain ref transfers from the bucket to entry.next: the
        # bucket store below decrements it again, netting zero.
        buckets.set(index, entry)
        entry.dec_ref()  # ownership transferred to the bucket chain
        new_size = self.size() + 1
        self._write_word(0, new_size)
        if new_size > buckets.length() * self._LOAD_FACTOR:
            self._rehash(buckets)

    def _rehash(self, buckets: PersistentArray) -> None:
        pool = self.pool
        # Pin every entry so chain rewrites cannot free one mid-traversal.
        protected = []
        for i in range(buckets.length()):
            cursor = buckets.get_offset(i)
            while cursor:
                entry = _HashEntry.from_offset(pool, cursor)
                entry.inc_ref()
                protected.append(entry)
                cursor = pool.device.read(cursor + 3)
        bigger = PersistentArray(pool, buckets.length() * 2)
        for entry in protected:
            h = pool.device.read(entry.offset)
            target = h % bigger.length()
            entry._write_word(3, bigger.get_offset(target),
                              old_is_ref=True, new_is_ref=True)
            bigger.set(target, entry)
        self._write_word(1, bigger.offset, old_is_ref=True, new_is_ref=True)
        bigger.dec_ref()  # ownership transferred to the map
        for entry in protected:
            entry.dec_ref()  # unpin

    def get(self, key: PersistentObject) -> Optional[PersistentObject]:
        pool = self.pool
        buckets = self._buckets()
        h = pcj_hash(pool, key.offset)
        cursor = buckets.get_offset(h % buckets.length())
        while cursor:
            if pcj_equals(pool, pool.device.read(cursor + 1), key.offset):
                return _wrap(pool, pool.device.read(cursor + 2))
            cursor = pool.device.read(cursor + 3)
        return None

    def remove(self, key: PersistentObject) -> bool:
        pool = self.pool
        buckets = self._buckets()
        h = pcj_hash(pool, key.offset)
        index = h % buckets.length()
        prev = 0
        cursor = buckets.get_offset(index)
        while cursor:
            next_off = pool.device.read(cursor + 3)
            if pcj_equals(pool, pool.device.read(cursor + 1), key.offset):
                entry = _HashEntry.from_offset(pool, cursor)
                successor = _wrap(pool, next_off)
                if successor is not None:
                    successor.inc_ref()  # pin across the relink
                if prev:
                    # prev.next: entry -> successor.  The old ref to entry
                    # transfers; the explicit dec below drops it.
                    prev_entry = _HashEntry.from_offset(pool, prev)
                    prev_entry._write_word(3, next_off,
                                           old_is_ref=False, new_is_ref=True)
                    entry._write_word(3, 0, old_is_ref=True)
                    entry.dec_ref()  # chain's ref; frees the entry
                else:
                    entry._write_word(3, 0, old_is_ref=True)
                    buckets.set(index, successor)  # decs entry -> freed
                if successor is not None:
                    successor.dec_ref()  # unpin
                self._write_word(0, self.size() - 1)
                return True
            prev = cursor
            cursor = next_off
        return False

    def _release_children(self) -> None:
        self._dec_offset(self.pool, self.pool.device.read(self.offset + 1))
