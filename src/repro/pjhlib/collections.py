"""PJH equivalents of the PCJ data types used in Figure 15.

Each type is an ordinary Java class allocated with ``pnew``; operations are
plain field stores plus the §3.5 flush APIs, wrapped in the simple
Java-level undo log of :mod:`repro.pjhlib.txn` for ACID parity with PCJ.
Note what is *absent* compared to :mod:`repro.pcj`: no native allocator
round-trips, no type-table memorization (the type information is "only a
pointer store" into the header), and no reference-counting bookkeeping —
the JVM's garbage collector owns liveness.  The list and map algorithms
are :mod:`repro.structures`; :class:`PjhSubstrate` is what they run on
here.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import IllegalArgumentException
from repro.runtime.klass import (FieldKind, Klass, field,
                                 java_string_hash)
from repro.runtime.objects import ObjectHandle
from repro.structures import ArrayList, Hashmap

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


class PjhSubstrate:
    """A jvm, an undo log and a handle: the :mod:`repro.structures`
    operations on PJH.

    Records and arrays are object handles.  The GC owns liveness, so
    pinning and releasing do nothing; fresh memory is stored plainly and
    flushed once; an update inside ``_begin``/``_commit`` (one
    :class:`PjhTransaction` per operation) is ``log_slot`` + store +
    ``flush_words``, and a lone one-slot update skips the log: an 8-byte
    store is failure-atomic (paper §3.5 restricts the flush APIs to
    8-byte work sets for exactly this reason).
    """

    def __init__(self, jvm, txn: PjhTransaction, handle: ObjectHandle) -> None:
        self.jvm = jvm
        self.txn = txn
        self.h = handle

    def _flush_words(self, address: int, count: int) -> None:
        service = self.jvm.vm.service_of(self.h.address)
        service.flush_words(address, count, fence=True)

    def _slot(self, record, name: str) -> int:
        return record.address + self.jvm.vm.klass_of(record).field_offset(name)

    def _field(self, record, name):
        return self.jvm.vm.get_field(record, name)

    _array_field = _peek = _field

    def _load(self, array, index):
        return self.jvm.vm.array_get(array, index)

    def _length(self, array):
        return self.jvm.vm.array_length(array)

    @staticmethod
    def _ref(value):
        return value.h if isinstance(value, PjhSubstrate) else value

    _key = _wrap = _ref

    def _hash(self, key):
        return _hash_handle(self.jvm, key)

    def _matches(self, entry, key):
        jvm = self.jvm
        return _equal_handles(jvm, jvm.vm.get_field(entry, "key"), key)

    def _new_array(self, length):
        vm = self.jvm.vm
        return vm.pnew_array(vm.object_klass, length)

    def _new_entry(self):
        return self.jvm.vm.pnew(self._entry_klass)

    def _fill(self, record, name: str, value) -> None:
        self.jvm.vm.set_field(record, name, value)

    def _init_element(self, array, index: int, value) -> None:
        self.jvm.vm.array_set(array, index, value)

    def _persist_fresh(self, record) -> None:
        self.jvm.flush_object(record)

    def _begin(self) -> None:
        self.txn.begin()

    def _commit(self) -> None:
        self.txn.commit()

    def _log(self, record, name: str) -> int:
        """Undo-log a field's slot; returns the slot address."""
        slot = self._slot(record, name)
        self.txn.log_slot(slot)
        return slot

    def _write(self, record, name: str, slot: int, value) -> None:
        self.jvm.vm.set_field(record, name, value)
        self._flush_words(slot, 1)

    def _store_element(self, array, index: int, value) -> None:
        vm = self.jvm.vm
        slot = vm.access.element_slot(array.address, index)
        self.txn.log_slot(slot)
        vm.array_set(array, index, value)
        self._flush_words(slot, 1)

    def _set_element(self, array, index: int, value) -> None:
        vm = self.jvm.vm
        slot = vm.access.element_slot(array.address, index)
        vm.array_set(array, index, value)
        self._flush_words(slot, 1)

    def _update(self, record, name: str, value) -> None:
        slot = self._slot(record, name)
        self.txn.begin()
        self.txn.log_slot(slot)
        self._write(record, name, slot, value)
        self.txn.commit()

    def _bypass(self, prev, nxt) -> None:
        self._write(prev, "next", self._log(prev, "next"), nxt)

    def _detach(self, entry):
        return entry

    _pin = _detach

    def _release(self, ref) -> None:
        """The GC owns liveness."""

    def _pinned(self, buckets, n: int):
        """Walk the chains lazily, reading each next before its splice."""
        for i in range(n):
            cursor = self._load(buckets, i)
            while cursor is not None:
                nxt = self._field(cursor, "next")
                yield cursor
                cursor = nxt


class PjhLong(PjhSubstrate):
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
        """A single-field store: flush + fence is the whole ACID story."""
        self._write(self.h, "value", self._slot(self.h, "value"), int(value))


class PjhString(PjhSubstrate):
    """Persistent string on PJH (just a pnew'd java.lang.String)."""

    def __init__(self, jvm, txn: PjhTransaction, text: str = "",
                 handle: Optional[ObjectHandle] = None) -> None:
        if handle is None:
            handle = jvm.pnew_string(text)
            jvm.flush_reachable(handle)
        super().__init__(jvm, txn, handle)

    def str_value(self) -> str:
        return self.jvm.read_string(self.h)


class _PjhArray(PjhSubstrate):
    """A fixed-length array on PJH; the handle is the array itself."""

    def length(self) -> int:
        return self.jvm.array_length(self.h)

    def get(self, index: int):
        return self.jvm.array_get(self.h, index)

    def set(self, index: int, value) -> None:
        self._set_element(self.h, index, self._ref(value))


class PjhLongArray(_PjhArray):
    """Primitive long array on PJH."""

    def __init__(self, jvm, txn: PjhTransaction, length: int = 0,
                 handle: Optional[ObjectHandle] = None) -> None:
        if handle is None:
            handle = jvm.pnew_array(FieldKind.INT, length)
        super().__init__(jvm, txn, handle)

    @staticmethod
    def _ref(value) -> int:
        return int(value)


class PjhTuple(_PjhArray):
    """Fixed-arity tuple: an Object[] allocated with panewarray."""

    def __init__(self, jvm, txn: PjhTransaction, arity: int = 1,
                 handle: Optional[ObjectHandle] = None) -> None:
        if handle is None:
            if arity <= 0:
                raise IllegalArgumentException("tuple arity must be > 0")
            handle = jvm.pnew_array(jvm.vm.object_klass, arity)
        super().__init__(jvm, txn, handle)

    arity = _PjhArray.length


class PjhArrayList(ArrayList, PjhSubstrate):
    """Growable list: {size, Object[] backing} as an ordinary class."""

    def __init__(self, jvm, txn: PjhTransaction,
                 handle: Optional[ObjectHandle] = None) -> None:
        klass = _ensure(jvm, _LIST, [field("size", FieldKind.INT),
                                     field("backing", FieldKind.REF)])
        super().__init__(jvm, txn, handle or jvm.pnew(klass))
        if handle is None:
            self._create()


class PjhHashmap(Hashmap, PjhSubstrate):
    """Chained hash map: {size, Object[] buckets} + entry objects."""

    def __init__(self, jvm, txn: PjhTransaction,
                 handle: Optional[ObjectHandle] = None) -> None:
        klass = _ensure(jvm, _MAP, [field("size", FieldKind.INT),
                                    field("buckets", FieldKind.REF)])
        self._entry_klass = _ensure(
            jvm, _ENTRY, [field("hash", FieldKind.INT),
                          field("key", FieldKind.REF),
                          field("value", FieldKind.REF),
                          field("next", FieldKind.REF)])
        super().__init__(jvm, txn, handle or jvm.pnew(klass))
        if handle is None:
            self._create()

    def items(self):
        """Yield (key handle, value handle) for every entry."""
        jvm = self.jvm
        buckets = self._array_field(self.h, "buckets")
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
        return self._lookup(key, _hash_raw, self._raw_key_matches)

    def remove_raw(self, key) -> bool:
        """Remove by a raw Python key without boxing it."""
        return self._remove_matching(key, _hash_raw, self._raw_key_matches)
