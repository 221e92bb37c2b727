"""PCJ's persistent collections: arrays, tuples, array lists, hashmaps.

These are the data structures the Figure 15 microbenchmarks exercise
("tuples, generic arrays and hashmaps").  Every mutation rides the full
off-heap ACID envelope of :class:`~repro.pcj.base.PersistentObject` —
transaction, undo log, type-metadata validation, reference counting — which
is precisely why PJH's on-heap equivalents outrun them.  The list and map
algorithms are :mod:`repro.structures`; :class:`PcjSubstrate` is what
they run on here.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ArrayIndexOutOfBoundsException, IllegalArgumentException
from repro.pcj.base import PersistentObject
from repro.pcj.nvml import HDR_TYPE, MemoryPool
from repro.pcj.types import pcj_equals, pcj_hash
from repro.structures import ArrayList, Hashmap


def _wrap(pool: MemoryPool, offset: int) -> Optional[PersistentObject]:
    if not offset:
        return None
    cls = pool.type_classes.get(pool.header_word(offset, HDR_TYPE),
                                PersistentObject)
    return cls.from_offset(pool, offset)


class _FixedArray(PersistentObject):
    """Fixed-length payload [length, slot...] of references; each
    subclass keeps its own ``TYPE_NAME``, interned in the pool."""

    _MIN_LENGTH = 0

    def __init__(self, pool: MemoryPool, length: int) -> None:
        if length < self._MIN_LENGTH:
            raise IllegalArgumentException(
                f"{self.TYPE_NAME} length {length} < {self._MIN_LENGTH}")
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
                f"index {index} for {self.TYPE_NAME} of length {n}")

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


class PersistentArray(_FixedArray):
    """Fixed-length array of references ("Generic" in Fig. 15)."""

    TYPE_NAME = "PersistentArray"

    def get_offset(self, index: int) -> int:
        self._check(index)
        return self._read_word(1 + index)


class PersistentTuple(_FixedArray):
    """Fixed-arity tuple of references ("Tuple" in Fig. 15)."""

    TYPE_NAME = "PersistentTuple"
    _MIN_LENGTH = 1

    arity = _FixedArray.length


class PersistentLongArray(_FixedArray):
    """Fixed-length array of primitive longs ("Primitive" in Fig. 15)."""

    TYPE_NAME = "PersistentLongArray"

    def get(self, index: int) -> int:
        self._check(index)
        return self._read_word(1 + index)

    def set(self, index: int, value: int) -> None:
        self._check(index)
        self._write_word(1 + index, int(value))

    def _release_children(self) -> None:
        """Longs reference nothing."""


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


#: Payload word of each record field and whether it holds a reference:
#: header [size, array], entry [hash, key, value, next].
_FIELDS = {"size": (0, False), "backing": (1, True), "buckets": (1, True),
           "hash": (0, False), "key": (1, True), "value": (2, True),
           "next": (3, True)}


def _word(value) -> int:
    """The payload word for *value*: a proxy's offset, 0 for None."""
    if isinstance(value, PersistentObject):
        return value.offset
    return value or 0


class PcjSubstrate(PersistentObject):
    """The :mod:`repro.structures` operations on an NVML-style pool.

    The header is this object, arrays are :class:`PersistentArray`
    proxies and chain cursors raw entry offsets.  Every store is its own
    ACID ``_write_word`` (so ``_begin``, ``_commit`` and ``_log`` do
    nothing), user-facing reads pay its ``_read_word`` envelope while
    chain walks read raw words, and references are counted: a record
    ``_release``-s what it hands over, and a rehash or an unlink pins
    the entries it moves.
    """

    @property
    def h(self):
        return self

    def _release_children(self) -> None:
        self._dec_offset(self.pool, self.pool.device.read(self.offset + 1))

    def _field(self, record, name):
        return record._read_word(_FIELDS[name][0])

    def _array_field(self, record, name):
        return PersistentArray.from_offset(self.pool, self._field(record, name))

    def _peek(self, record, name):
        if isinstance(record, PersistentObject):
            record = record.offset
        return self.pool.device.read(record + _FIELDS[name][0])

    def _load(self, array, index):
        return array.get_offset(index)

    def _length(self, array):
        return array.length()

    def _wrap(self, offset):
        return _wrap(self.pool, offset)

    def _ref(self, value):
        return value

    def _key(self, key):
        return key.offset

    def _hash(self, key):
        return pcj_hash(self.pool, key)

    def _matches(self, entry, key):
        return pcj_equals(self.pool, self._peek(entry, "key"), key)

    def _new_array(self, length):
        return PersistentArray(self.pool, length)

    def _new_entry(self):
        return _HashEntry(self.pool)

    def _fill(self, record, name, value) -> None:
        """Each word of a fresh record is an ACID write of its own."""
        word, is_ref = _FIELDS[name]
        record._write_word(word, _word(value), new_is_ref=is_ref)

    def _persist_fresh(self, record) -> None:
        """Every word was persisted by its own transaction."""

    def _begin(self) -> None:
        """No bracket: each ``_write_word`` is a transaction."""

    _commit = _begin

    def _log(self, record, name) -> None:
        """``_write_word`` undo-logs its word itself."""

    def _write(self, record, name, slot, value) -> None:
        word, is_ref = _FIELDS[name]
        record._write_word(word, _word(value),
                           old_is_ref=is_ref, new_is_ref=is_ref)

    def _store_element(self, array, index, value) -> None:
        array.set(index, value)

    _init_element = _set_element = _store_element

    def _update(self, entry, name, value) -> None:
        self._write(_HashEntry.from_offset(self.pool, entry), name, None,
                    value)

    def _bypass(self, prev, nxt) -> None:
        # The chain's reference to the removed entry moves with it, and
        # the caller's release drops it: the old word is not released.
        _HashEntry.from_offset(self.pool, prev)._write_word(
            3, nxt, old_is_ref=False, new_is_ref=True)

    def _detach(self, entry):
        """Clear a removed entry's next before its release frees it."""
        removed = _HashEntry.from_offset(self.pool, entry)
        removed._write_word(3, 0, old_is_ref=True)
        return removed

    def _pin(self, entry):
        pinned = _wrap(self.pool, entry)
        if pinned is not None:
            pinned.inc_ref()
        return pinned

    def _pinned(self, buckets, n):
        """Pin every entry before the rehash moves any, so a chain
        rewrite cannot free one mid-traversal."""
        pinned = []
        for i in range(n):
            cursor = buckets.get_offset(i)
            while cursor:
                entry = _HashEntry.from_offset(self.pool, cursor)
                entry.inc_ref()
                pinned.append(entry)
                cursor = self._peek(cursor, "next")
        return pinned

    def _release(self, ref) -> None:
        if ref is not None:
            ref.dec_ref()


class PersistentArrayList(ArrayList, PcjSubstrate):
    """Growable list of references ("ArrayList" in Fig. 15).

    Payload: [size, backing-array offset].  Growth allocates a doubled
    backing :class:`PersistentArray` and copies element by element — each
    copy a full ACID write, as the off-heap design demands.
    """

    TYPE_NAME = "PersistentArrayList"

    def __init__(self, pool: MemoryPool) -> None:
        super().__init__(pool, 2)
        self._create()


class PersistentHashmap(Hashmap, PcjSubstrate):
    """Chained hash map over persistent keys/values ("Hashmap" in Fig. 15).

    Payload: [size, bucket-array offset].  Keys compare by content for the
    boxed types and by identity otherwise (see
    :func:`repro.pcj.types.pcj_equals`).
    """

    TYPE_NAME = "PersistentHashmap"

    def __init__(self, pool: MemoryPool) -> None:
        super().__init__(pool, 2)
        self._create()
