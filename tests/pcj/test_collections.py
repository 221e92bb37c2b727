"""Tests for PCJ collections: arrays, tuples, lists, hashmaps, refcounting."""

import pytest

from repro.errors import ArrayIndexOutOfBoundsException
from repro.pcj import (
    MemoryPool,
    PersistentArray,
    PersistentArrayList,
    PersistentHashmap,
    PersistentInteger,
    PersistentLong,
    PersistentLongArray,
    PersistentString,
    PersistentTuple,
)


@pytest.fixture
def pool():
    return MemoryPool(512 * 1024, tx_log_words=16384)


class TestArrays:
    def test_ref_array_roundtrip(self, pool):
        arr = PersistentArray(pool, 4)
        v = PersistentLong(pool, 10)
        arr.set(2, v)
        assert arr.get(2).long_value() == 10
        assert arr.get(0) is None

    def test_bounds(self, pool):
        arr = PersistentArray(pool, 2)
        with pytest.raises(ArrayIndexOutOfBoundsException):
            arr.get(2)
        with pytest.raises(ArrayIndexOutOfBoundsException):
            arr.set(-1, None)

    def test_long_array(self, pool):
        arr = PersistentLongArray(pool, 5)
        arr.set(0, -3)
        arr.set(4, 99)
        assert arr.get(0) == -3
        assert arr.get(4) == 99
        assert arr.length() == 5

    def test_overwrite_decrements_old(self, pool):
        arr = PersistentArray(pool, 1)
        a = PersistentLong(pool, 1)
        b = PersistentLong(pool, 2)
        arr.set(0, a)
        assert a.refcount == 2
        arr.set(0, b)
        assert a.refcount == 1
        assert b.refcount == 2


class TestTuple:
    def test_tuple_roundtrip(self, pool):
        t = PersistentTuple(pool, 3)
        t.set(0, PersistentString(pool, "a"))
        t.set(1, PersistentLong(pool, 2))
        assert t.get(0).str_value() == "a"
        assert t.get(1).long_value() == 2
        assert t.get(2) is None
        assert t.arity() == 3


class TestArrayList:
    def test_add_and_get(self, pool):
        lst = PersistentArrayList(pool)
        for i in range(20):  # forces growth past the initial capacity
            lst.add(PersistentLong(pool, i))
        assert lst.size() == 20
        assert [lst.get(i).long_value() for i in range(20)] == list(range(20))

    def test_set_replaces(self, pool):
        lst = PersistentArrayList(pool)
        lst.add(PersistentLong(pool, 1))
        lst.set(0, PersistentLong(pool, 9))
        assert lst.get(0).long_value() == 9

    def test_bounds(self, pool):
        lst = PersistentArrayList(pool)
        with pytest.raises(ArrayIndexOutOfBoundsException):
            lst.get(0)


class TestHashmap:
    def test_put_get(self, pool):
        m = PersistentHashmap(pool)
        m.put(PersistentString(pool, "one"), PersistentLong(pool, 1))
        m.put(PersistentString(pool, "two"), PersistentLong(pool, 2))
        assert m.get(PersistentString(pool, "one")).long_value() == 1
        assert m.get(PersistentString(pool, "two")).long_value() == 2
        assert m.size() == 2

    def test_missing_key(self, pool):
        m = PersistentHashmap(pool)
        assert m.get(PersistentString(pool, "none")) is None

    def test_update_value(self, pool):
        m = PersistentHashmap(pool)
        key = PersistentLong(pool, 7)
        m.put(key, PersistentLong(pool, 1))
        m.put(PersistentLong(pool, 7), PersistentLong(pool, 2))
        assert m.size() == 1
        assert m.get(key).long_value() == 2

    def test_remove(self, pool):
        m = PersistentHashmap(pool)
        m.put(PersistentLong(pool, 1), PersistentLong(pool, 10))
        m.put(PersistentLong(pool, 2), PersistentLong(pool, 20))
        assert m.remove(PersistentLong(pool, 1))
        assert not m.remove(PersistentLong(pool, 1))
        assert m.get(PersistentLong(pool, 1)) is None
        assert m.get(PersistentLong(pool, 2)).long_value() == 20
        assert m.size() == 1

    def test_rehash_preserves_entries(self, pool):
        m = PersistentHashmap(pool)
        for i in range(50):  # forces several rehashes
            m.put(PersistentLong(pool, i), PersistentLong(pool, i * i))
        for i in range(50):
            assert m.get(PersistentLong(pool, i)).long_value() == i * i
        assert m.size() == 50

    def test_collisions_chain(self, pool):
        """Keys with identical hashes land in one bucket and still resolve."""
        m = PersistentHashmap(pool)
        step = 16  # initial bucket count: 0, 16, 32 collide
        for i in range(3):
            m.put(PersistentLong(pool, i * step), PersistentLong(pool, i))
        for i in range(3):
            assert m.get(PersistentLong(pool, i * step)).long_value() == i


class TestRefcounting:
    def test_dec_to_zero_frees(self, pool):
        v = PersistentLong(pool, 5)
        assert pool.free_list_length() == 0
        v.dec_ref()
        assert pool.free_list_length() == 1

    def test_container_release_cascades(self, pool):
        arr = PersistentArray(pool, 2)
        a = PersistentLong(pool, 1)
        arr.set(0, a)
        a.dec_ref()  # only the array holds it now
        assert a.refcount == 1
        arr.dec_ref()  # frees the array and, transitively, a
        assert pool.free_list_length() >= 2

    @pytest.mark.parametrize("kind, blocks", [
        ("tuple", 2), ("list", 3), ("hashmap", 5)])
    def test_collection_release_cascades(self, pool, kind, blocks):
        """Freeing a collection frees what only it referenced: the tuple
        and its child; the list, its backing array and the child; the
        map, its buckets, the entry, the key and the value."""
        child = PersistentLong(pool, 7)
        if kind == "tuple":
            collection = PersistentTuple(pool, 2)
            collection.set(1, child)
        elif kind == "list":
            collection = PersistentArrayList(pool)
            collection.add(child)
        else:
            collection = PersistentHashmap(pool)
            key = PersistentString(pool, "k")
            collection.put(key, child)
            key.dec_ref()
        child.dec_ref()  # only the collection holds it now
        before = pool.free_list_length()
        collection.dec_ref()
        assert pool.free_list_length() - before == blocks
        assert child.refcount == 0

    def test_removed_entry_is_freed(self, pool):
        m = PersistentHashmap(pool)
        key = PersistentLong(pool, 1)
        val = PersistentLong(pool, 2)
        m.put(key, val)
        free_before = pool.free_list_length()
        m.remove(PersistentLong(pool, 1))
        assert pool.free_list_length() > free_before
