"""PJH equivalents of the PCJ data types used in Figure 15.

Each type is an ordinary Java class allocated with ``pnew``; operations are
plain field stores plus the §3.5 flush APIs, wrapped in the simple
Java-level undo log of :mod:`repro.pjhlib.txn` for ACID parity with PCJ.
Note what is *absent* compared to :mod:`repro.pcj`: no native allocator
round-trips, no type-table memorization (the type information is "only a
pointer store" into the header), and no reference-counting bookkeeping —
the JVM's garbage collector owns liveness.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ArrayIndexOutOfBoundsException, IllegalArgumentException
from repro.nvm.publish import durable_metadata
from repro.runtime.klass import (FieldKind, Klass, field,
                                 java_string_hash)
from repro.runtime.objects import ObjectHandle

from repro.pjhlib.txn import PjhTransaction

_LONG = "pjh.Long"
_LIST = "pjh.ArrayList"
_MAP = "pjh.HashMap"
_ENTRY = "pjh.HashMapEntry"


def _ensure(jvm, name: str, fields) -> Klass:
    existing = jvm.vm.metaspace.lookup(name)
    return existing if existing is not None else jvm.define_class(name, fields)


def _long_klass(jvm) -> Klass:
    return _ensure(jvm, _LONG, [field("value", FieldKind.INT)])


class _PjhBase:
    """Shared plumbing: a jvm, a transaction, and a handle."""

    def __init__(self, jvm, txn: PjhTransaction, handle: ObjectHandle) -> None:
        self.jvm = jvm
        self.txn = txn
        self.h = handle

    def _flush_words(self, address: int, count: int) -> None:
        service = self.jvm.vm.service_of(self.h.address)
        service.flush_words(address, count, fence=True)

    def _acid_field_store(self, name: str, value) -> None:
        """Single-field update: an 8-byte store is failure-atomic on its
        own (paper §3.5 restricts the flush APIs to 8-byte work sets for
        exactly this reason), so flush + fence is the whole ACID story —
        no undo log needed.  Multi-slot operations use ``self.txn``."""
        vm = self.jvm.vm
        klass = vm.klass_of(self.h)
        slot = self.h.address + klass.field_offset(name)
        vm.set_field(self.h, name, value)
        self._flush_words(slot, 1)

    def _acid_element_store(self, array: ObjectHandle, index: int,
                            value) -> None:
        """Single-element update: atomic by word size, like above."""
        vm = self.jvm.vm
        slot = vm.access.element_slot(array.address, index)
        vm.array_set(array, index, value)
        self._flush_words(slot, 1)


class PjhLong(_PjhBase):
    """Boxed long on PJH: the PersistentLong counterpart."""

    def __init__(self, jvm, txn: PjhTransaction, value: int = 0,
                 handle: Optional[ObjectHandle] = None) -> None:
        if handle is None:
            handle = jvm.pnew(_long_klass(jvm))
            jvm.set_field(handle, "value", int(value))
            jvm.flush_field(handle, "value")
        super().__init__(jvm, txn, handle)

    def long_value(self) -> int:
        return self.jvm.get_field(self.h, "value")

    def set(self, value: int) -> None:
        self._acid_field_store("value", int(value))


class PjhString(_PjhBase):
    """Persistent string on PJH (just a pnew'd java.lang.String)."""

    def __init__(self, jvm, txn: PjhTransaction, text: str = "",
                 handle: Optional[ObjectHandle] = None) -> None:
        if handle is None:
            handle = jvm.pnew_string(text)
            jvm.flush_reachable(handle)
        super().__init__(jvm, txn, handle)

    def str_value(self) -> str:
        return self.jvm.read_string(self.h)


class PjhLongArray(_PjhBase):
    """Primitive long array on PJH."""

    def __init__(self, jvm, txn: PjhTransaction, length: int = 0,
                 handle: Optional[ObjectHandle] = None) -> None:
        if handle is None:
            handle = jvm.pnew_array(FieldKind.INT, length)
        super().__init__(jvm, txn, handle)

    def length(self) -> int:
        return self.jvm.array_length(self.h)

    def get(self, index: int) -> int:
        return self.jvm.array_get(self.h, index)

    def set(self, index: int, value: int) -> None:
        self._acid_element_store(self.h, index, int(value))


class PjhTuple(_PjhBase):
    """Fixed-arity tuple: an Object[] allocated with panewarray."""

    def __init__(self, jvm, txn: PjhTransaction, arity: int = 1,
                 handle: Optional[ObjectHandle] = None) -> None:
        if handle is None:
            if arity <= 0:
                raise IllegalArgumentException("tuple arity must be > 0")
            handle = jvm.pnew_array(jvm.vm.object_klass, arity)
        super().__init__(jvm, txn, handle)

    def arity(self) -> int:
        return self.jvm.array_length(self.h)

    def get(self, index: int) -> Optional[ObjectHandle]:
        return self.jvm.array_get(self.h, index)

    def set(self, index: int, value) -> None:
        handle = value.h if isinstance(value, _PjhBase) else value
        self._acid_element_store(self.h, index, handle)


class PjhArrayList(_PjhBase):
    """Growable list: {size, Object[] backing} as an ordinary class."""

    _INITIAL_CAPACITY = 8

    def __init__(self, jvm, txn: PjhTransaction,
                 handle: Optional[ObjectHandle] = None) -> None:
        klass = _ensure(jvm, _LIST, [field("size", FieldKind.INT),
                                     field("backing", FieldKind.REF)])
        if handle is None:
            handle = jvm.pnew(klass)
            backing = jvm.pnew_array(jvm.vm.object_klass,
                                     self._INITIAL_CAPACITY)
            jvm.set_field(handle, "backing", backing)
            jvm.flush_object(handle)
        super().__init__(jvm, txn, handle)

    def size(self) -> int:
        return self.jvm.get_field(self.h, "size")

    def _backing(self) -> ObjectHandle:
        return self.jvm.get_field(self.h, "backing")

    def _check(self, index: int) -> None:
        if index < 0 or index >= self.size():
            raise ArrayIndexOutOfBoundsException(
                f"index {index} for list of size {self.size()}")

    def add(self, value) -> None:
        jvm, vm = self.jvm, self.jvm.vm
        handle = value.h if isinstance(value, _PjhBase) else value
        size = self.size()
        backing = self._backing()
        capacity = jvm.array_length(backing)
        self.txn.begin()
        if size >= capacity:
            bigger = jvm.pnew_array(vm.object_klass, capacity * 2)
            for i in range(size):  # fresh memory: no undo needed
                jvm.array_set(bigger, i, jvm.array_get(backing, i))
            jvm.flush_object(bigger)
            klass = vm.klass_of(self.h)
            slot = self.h.address + klass.field_offset("backing")
            self.txn.log_slot(slot)
            jvm.set_field(self.h, "backing", bigger)
            self._flush_words(slot, 1)
            backing = bigger
        element_slot = vm.access.element_slot(backing.address, size)
        self.txn.log_slot(element_slot)
        jvm.array_set(backing, size, handle)
        self._flush_words(element_slot, 1)
        klass = vm.klass_of(self.h)
        size_slot = self.h.address + klass.field_offset("size")
        self.txn.log_slot(size_slot)
        jvm.set_field(self.h, "size", size + 1)
        self._flush_words(size_slot, 1)
        self.txn.commit()

    def get(self, index: int) -> Optional[ObjectHandle]:
        self._check(index)
        return self.jvm.array_get(self._backing(), index)

    def set(self, index: int, value) -> None:
        self._check(index)
        handle = value.h if isinstance(value, _PjhBase) else value
        self._acid_element_store(self._backing(), index, handle)


def _hash_raw(key) -> int:
    """Content hash of a raw Python key (int or str), matching
    :func:`_hash_handle` for the boxed equivalents."""
    if isinstance(key, int):
        return key & 0x7FFF_FFFF
    return java_string_hash(key) & 0x7FFF_FFFF


def _hash_handle(jvm, handle: ObjectHandle) -> int:
    """Content hash for boxed keys, identity hash otherwise."""
    klass = jvm.vm.klass_of(handle)
    if klass.name == _LONG:
        return jvm.get_field(handle, "value") & 0x7FFF_FFFF
    if klass.name == "java.lang.String":
        return java_string_hash(jvm.read_string(handle)) & 0x7FFF_FFFF
    return handle.address & 0x7FFF_FFFF


def _equal_handles(jvm, a: ObjectHandle, b: ObjectHandle) -> bool:
    if a.same_object(b):
        return True
    ka = jvm.vm.klass_of(a)
    kb = jvm.vm.klass_of(b)
    if ka.name != kb.name:
        return False
    if ka.name == _LONG:
        return jvm.get_field(a, "value") == jvm.get_field(b, "value")
    if ka.name == "java.lang.String":
        return jvm.read_string(a) == jvm.read_string(b)
    return False


class PjhHashmap(_PjhBase):
    """Chained hash map: {size, Object[] buckets} + entry objects."""

    _INITIAL_BUCKETS = 16
    _LOAD_FACTOR = 0.75

    def __init__(self, jvm, txn: PjhTransaction,
                 handle: Optional[ObjectHandle] = None) -> None:
        klass = _ensure(jvm, _MAP, [field("size", FieldKind.INT),
                                    field("buckets", FieldKind.REF)])
        self._entry_klass = _ensure(
            jvm, _ENTRY, [field("hash", FieldKind.INT),
                          field("key", FieldKind.REF),
                          field("value", FieldKind.REF),
                          field("next", FieldKind.REF)])
        if handle is None:
            handle = jvm.pnew(klass)
            buckets = jvm.pnew_array(jvm.vm.object_klass,
                                     self._INITIAL_BUCKETS)
            jvm.set_field(handle, "buckets", buckets)
            jvm.flush_object(handle)
        super().__init__(jvm, txn, handle)

    def size(self) -> int:
        return self.jvm.get_field(self.h, "size")

    def _buckets(self) -> ObjectHandle:
        return self.jvm.get_field(self.h, "buckets")

    @staticmethod
    def _key_handle(key) -> ObjectHandle:
        return key.h if isinstance(key, _PjhBase) else key

    def put(self, key, value, unique: bool = False) -> None:
        """Insert or update; with *unique* an existing key is an error
        (primary-key semantics, checked during the same chain walk)."""
        jvm, vm = self.jvm, self.jvm.vm
        key_h = self._key_handle(key)
        value_h = value.h if isinstance(value, _PjhBase) else value
        buckets = self._buckets()
        n = jvm.array_length(buckets)
        h = _hash_handle(jvm, key_h)
        index = h % n
        cursor = jvm.array_get(buckets, index)
        while cursor is not None:
            if _equal_handles(jvm, jvm.get_field(cursor, "key"), key_h):
                if unique:
                    from repro.errors import SqlError
                    raise SqlError("duplicate key in unique map")
                entry_klass = vm.klass_of(cursor)
                slot = cursor.address + entry_klass.field_offset("value")
                self.txn.begin()
                self.txn.log_slot(slot)
                jvm.set_field(cursor, "value", value_h)
                self._flush_words(slot, 1)
                self.txn.commit()
                return
            cursor = jvm.get_field(cursor, "next")
        entry = jvm.pnew(self._entry_klass)
        jvm.set_field(entry, "hash", h)
        jvm.set_field(entry, "key", key_h)
        jvm.set_field(entry, "value", value_h)
        jvm.set_field(entry, "next", jvm.array_get(buckets, index))
        jvm.flush_object(entry)
        self.txn.begin()
        bucket_slot = vm.access.element_slot(buckets.address, index)
        self.txn.log_slot(bucket_slot)
        jvm.array_set(buckets, index, entry)
        self._flush_words(bucket_slot, 1)
        klass = vm.klass_of(self.h)
        size_slot = self.h.address + klass.field_offset("size")
        self.txn.log_slot(size_slot)
        new_size = self.size() + 1
        jvm.set_field(self.h, "size", new_size)
        self._flush_words(size_slot, 1)
        self.txn.commit()
        if new_size > n * self._LOAD_FACTOR:
            self._rehash(buckets, n)

    @durable_metadata("hashmap rehash splice")
    def _rehash(self, buckets: ObjectHandle, n: int) -> None:
        # Splicing reuses the live entry objects, so every mutated "next"
        # pointer must be undo-logged *and* flushed: a crash mid-rehash
        # rolls the chains back wholesale (the old bucket array is still
        # the published one), and a crash after the bucket flip must not
        # resurrect pre-rehash next pointers from unflushed lines.
        jvm, vm = self.jvm, self.jvm.vm
        bigger = jvm.pnew_array(vm.object_klass, n * 2)
        self.txn.begin()
        for i in range(n):
            cursor = jvm.array_get(buckets, i)
            while cursor is not None:
                nxt = jvm.get_field(cursor, "next")
                target = jvm.get_field(cursor, "hash") % (n * 2)
                entry_klass = vm.klass_of(cursor)
                slot = cursor.address + entry_klass.field_offset("next")
                self.txn.log_slot(slot)
                jvm.set_field(cursor, "next", jvm.array_get(bigger, target))
                self._flush_words(slot, 1)
                jvm.array_set(bigger, target, cursor)
                cursor = nxt
        jvm.flush_object(bigger)
        klass = vm.klass_of(self.h)
        buckets_slot = self.h.address + klass.field_offset("buckets")
        self.txn.log_slot(buckets_slot)
        jvm.set_field(self.h, "buckets", bigger)
        self._flush_words(buckets_slot, 1)
        self.txn.commit()

    def get(self, key) -> Optional[ObjectHandle]:
        jvm = self.jvm
        key_h = self._key_handle(key)
        buckets = self._buckets()
        h = _hash_handle(jvm, key_h)
        cursor = jvm.array_get(buckets, h % jvm.array_length(buckets))
        while cursor is not None:
            if _equal_handles(jvm, jvm.get_field(cursor, "key"), key_h):
                return jvm.get_field(cursor, "value")
            cursor = jvm.get_field(cursor, "next")
        return None

    def items(self):
        """Yield (key handle, value handle) for every entry."""
        jvm = self.jvm
        buckets = self._buckets()
        for index in range(jvm.array_length(buckets)):
            cursor = jvm.array_get(buckets, index)
            while cursor is not None:
                yield (jvm.get_field(cursor, "key"),
                       jvm.get_field(cursor, "value"))
                cursor = jvm.get_field(cursor, "next")

    # -- raw-key fast paths (no probe-object allocation) -------------------
    def _raw_key_matches(self, entry: ObjectHandle, key) -> bool:
        jvm = self.jvm
        stored = jvm.get_field(entry, "key")
        if stored is None:
            return False
        klass = jvm.vm.klass_of(stored)
        if isinstance(key, int):
            return klass.name == _LONG and jvm.get_field(stored, "value") == key
        return (klass.name == "java.lang.String"
                and jvm.read_string(stored) == key)

    def get_raw(self, key) -> Optional[ObjectHandle]:
        """Lookup by a raw Python key (int or str) without boxing it."""
        jvm = self.jvm
        buckets = self._buckets()
        cursor = jvm.array_get(
            buckets, _hash_raw(key) % jvm.array_length(buckets))
        while cursor is not None:
            if self._raw_key_matches(cursor, key):
                return jvm.get_field(cursor, "value")
            cursor = jvm.get_field(cursor, "next")
        return None

    def _remove_entry(self, buckets: ObjectHandle, index: int,
                      prev: Optional[ObjectHandle],
                      nxt: Optional[ObjectHandle]) -> None:
        """One logged transaction: splice the entry after *prev* (the
        bucket head when None) out of chain *index*, decrement size."""
        jvm, vm = self.jvm, self.jvm.vm
        self.txn.begin()
        if prev is None:
            slot = vm.access.element_slot(buckets.address, index)
            self.txn.log_slot(slot)
            jvm.array_set(buckets, index, nxt)
            self._flush_words(slot, 1)
        else:
            entry_klass = vm.klass_of(prev)
            slot = prev.address + entry_klass.field_offset("next")
            self.txn.log_slot(slot)
            jvm.set_field(prev, "next", nxt)
            self._flush_words(slot, 1)
        klass = vm.klass_of(self.h)
        size_slot = self.h.address + klass.field_offset("size")
        self.txn.log_slot(size_slot)
        jvm.set_field(self.h, "size", self.size() - 1)
        self._flush_words(size_slot, 1)
        self.txn.commit()

    def remove_raw(self, key) -> bool:
        """Remove by a raw Python key without boxing it."""
        jvm = self.jvm
        buckets = self._buckets()
        n = jvm.array_length(buckets)
        index = _hash_raw(key) % n
        prev = None
        cursor = jvm.array_get(buckets, index)
        while cursor is not None:
            nxt = jvm.get_field(cursor, "next")
            if self._raw_key_matches(cursor, key):
                self._remove_entry(buckets, index, prev, nxt)
                return True
            prev = cursor
            cursor = nxt
        return False

    def remove(self, key) -> bool:
        jvm = self.jvm
        key_h = self._key_handle(key)
        buckets = self._buckets()
        n = jvm.array_length(buckets)
        h = _hash_handle(jvm, key_h)
        index = h % n
        prev = None
        cursor = jvm.array_get(buckets, index)
        while cursor is not None:
            nxt = jvm.get_field(cursor, "next")
            if _equal_handles(jvm, jvm.get_field(cursor, "key"), key_h):
                self._remove_entry(buckets, index, prev, nxt)
                return True
            prev = cursor
            cursor = nxt
        return False
