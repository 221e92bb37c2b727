"""The Fig. 15 collections, written once over a persistence substrate.

Paper §6.2 credits PJH's win over PCJ to the *substrate*: PCJ pays for a
separate type system, off-heap allocation, reference counting and a
transaction per operation (§2.2).  So the algorithms live here once — a
growable :class:`ArrayList` (capacity 8, doubling) and a chained
:class:`Hashmap` (16 buckets, load factor 0.75, head insertion, doubling
rehash) — and every operation that touches memory is a method of the
substrate mixed in beside them:
:class:`repro.pcj.collections.PcjSubstrate` or
:class:`repro.pjhlib.collections.PjhSubstrate`.  DESIGN.md §3.1 lists
those operations with the §2.2 cause of each difference.

Records are a header ``self.h`` = [size, array] and hashmap entries
[hash, key, value, next]; a falsy cursor ends a chain.
"""

from __future__ import annotations

from repro.errors import ArrayIndexOutOfBoundsException, SqlError
from repro.nvm.publish import durable_metadata


class _Header:
    """A [size, array] header record."""

    _ARRAY = ""
    _INITIAL_LENGTH = 0

    def size(self) -> int:
        return self._field(self.h, "size")

    def _create(self) -> None:
        """Give a fresh header its first array."""
        array = self._new_array(self._INITIAL_LENGTH)
        self._fill(self.h, self._ARRAY, array)
        self._persist_fresh(self.h)
        self._release(array)  # ownership transferred to the header


class ArrayList(_Header):
    """Growable list of references ("ArrayList" in Fig. 15)."""

    _ARRAY = "backing"
    _INITIAL_LENGTH = 8

    def _check(self, index: int) -> None:
        n = self._peek(self.h, "size")
        if index < 0 or index >= n:
            raise ArrayIndexOutOfBoundsException(
                f"index {index} for list of size {n}")

    def add(self, value) -> None:
        value, h = self._ref(value), self.h
        size = self._field(h, "size")
        backing = self._array_field(h, "backing")
        capacity = self._length(backing)
        self._begin()
        if size >= capacity:
            bigger = self._new_array(capacity * 2)
            for i in range(size):
                self._init_element(bigger, i,
                                   self._wrap(self._load(backing, i)))
            self._persist_fresh(bigger)
            self._write(h, "backing", self._log(h, "backing"), bigger)
            self._release(bigger)  # ownership transferred to the list
            backing = bigger
        self._store_element(backing, size, value)
        self._write(h, "size", self._log(h, "size"), size + 1)
        self._commit()

    def get(self, index: int):
        self._check(index)
        backing = self._array_field(self.h, "backing")
        return self._wrap(self._load(backing, index))

    def set(self, index: int, value) -> None:
        self._check(index)
        self._set_element(self._array_field(self.h, "backing"), index,
                          self._ref(value))


class Hashmap(_Header):
    """Chained hash map ("Hashmap" in Fig. 15): boxed longs and strings
    compare by content, anything else by identity."""

    _ARRAY = "buckets"
    _INITIAL_LENGTH = 16
    _LOAD_FACTOR = 0.75

    def put(self, key, value, unique: bool = False) -> None:
        """Insert or update; with *unique* an existing key is an error
        (primary-key semantics, checked during the same chain walk)."""
        key, value, h = self._key(key), self._ref(value), self.h
        buckets = self._array_field(h, "buckets")
        n = self._length(buckets)
        key_hash = self._hash(key)
        index = key_hash % n
        cursor = self._load(buckets, index)
        while cursor:
            if self._matches(cursor, key):
                if unique:
                    raise SqlError("duplicate key in unique map")
                self._update(cursor, "value", value)
                return
            cursor = self._peek(cursor, "next")
        entry = self._new_entry()
        self._fill(entry, "hash", key_hash)
        self._fill(entry, "key", key)
        self._fill(entry, "value", value)
        self._fill(entry, "next", self._load(buckets, index))
        self._persist_fresh(entry)
        self._begin()
        self._store_element(buckets, index, entry)
        self._release(entry)  # ownership transferred to the bucket chain
        slot = self._log(h, "size")
        new_size = self._field(h, "size") + 1
        self._write(h, "size", slot, new_size)
        self._commit()
        if new_size > n * self._LOAD_FACTOR:
            self._rehash(buckets, n)

    @durable_metadata("hashmap rehash splice")
    def _rehash(self, buckets, n: int) -> None:
        # Splicing reuses the live entries, so every rewritten "next" is a
        # logged store: a crash mid-rehash rolls the chains back wholesale
        # (the old bucket array is still the published one), and a crash
        # after the flip cannot resurrect pre-rehash next pointers.
        entries = self._pinned(buckets, n)
        bigger = self._new_array(n * 2)
        self._begin()
        for entry in entries:
            target = self._peek(entry, "hash") % (n * 2)
            slot = self._log(entry, "next")
            self._write(entry, "next", slot, self._load(bigger, target))
            self._init_element(bigger, target, entry)
        self._persist_fresh(bigger)
        self._write(self.h, "buckets", self._log(self.h, "buckets"), bigger)
        self._release(bigger)  # ownership transferred to the map
        for entry in entries:
            self._release(entry)  # unpin
        self._commit()

    def get(self, key):
        return self._lookup(self._key(key), self._hash, self._matches)

    def remove(self, key) -> bool:
        return self._remove_matching(self._key(key), self._hash, self._matches)

    def _lookup(self, key, hash_of, matches):
        """The value of the entry whose key *matches*, or None."""
        buckets = self._array_field(self.h, "buckets")
        cursor = self._load(buckets, hash_of(key) % self._length(buckets))
        while cursor:
            if matches(cursor, key):
                return self._wrap(self._peek(cursor, "value"))
            cursor = self._peek(cursor, "next")
        return None

    def _remove_matching(self, key, hash_of, matches) -> bool:
        """Remove the entry whose key *matches*; False if there is none."""
        h = self.h
        buckets = self._array_field(h, "buckets")
        n = self._length(buckets)
        index = hash_of(key) % n
        prev, cursor = None, self._load(buckets, index)
        while cursor:
            nxt = self._peek(cursor, "next")
            if matches(cursor, key):
                self._begin()
                successor = self._pin(nxt)
                if prev:
                    self._bypass(prev, nxt)
                    self._release(self._detach(cursor))
                else:
                    self._detach(cursor)
                    self._store_element(buckets, index, successor)
                self._release(successor)  # unpin
                slot = self._log(h, "size")
                self._write(h, "size", slot, self._field(h, "size") - 1)
                self._commit()
                return True
            prev, cursor = cursor, nxt
        return False
