"""PCJ collection operations cut by a power failure at every flush.

Each operation runs on a pool reopened from one pre-operation image, and
is cut after its N-th ``clflush`` for every N: the durable image is taken
at that instant, so no exception handler runs before the cut.  Reopening
rolls the cut transaction back.  Then the collection's size is its
before- or its after-size, no block it reaches is on the free list, and
every read works and finds the right value or nothing.

Regression: a ``pfree`` issued inside a ``_write_word`` transaction (a
refcount dropping to zero) spliced the free list and committed at once,
so the rollback left the map's bucket pointer naming a freed block whose
length word had become a free-list link (every ``get`` then divided by
zero).

PCJ's ACID unit here is the word write, not the collection operation, so
a cut inside a rehash or an unlink can leave a key unreachable; the
checks below allow a missing key.
"""

import pytest

from repro.errors import SimulatedCrash
from repro.pcj import (MemoryPool, PersistentArray, PersistentArrayList,
                       PersistentHashmap, PersistentLong)
from repro.pcj.collections import _HashEntry
from repro.pcj.nvml import _FREE_HEAD, HEADER_WORDS

_CLASSES = (PersistentLong, PersistentArray, PersistentArrayList,
            PersistentHashmap, _HashEntry)


def _open(image):
    pool = MemoryPool.open(image)
    for cls in _CLASSES:
        pool.bind_class(cls)
    return pool


def _image_at_flush(pool, nth, operation):
    """The durable image a power cut after *operation*'s nth clflush
    leaves (None when it issues fewer)."""
    device, cut = pool.device, {}
    original = device.clflush

    def guarded(offset, count=1, asynchronous=False):
        original(offset, count, asynchronous)
        if len(cut) == 0 and device.stats.flushes >= nth:
            cut["image"] = device.durable_image()
            raise SimulatedCrash(f"power cut after flush {nth}")

    device.stats.flushes = 0
    device.clflush = guarded
    try:
        operation(pool)
    except SimulatedCrash:
        pass
    finally:
        del device.__dict__["clflush"]
    return cut.get("image")


def _sweep(image, operation, check):
    """Cut *operation* at each of its flushes and *check* each reopened
    pool; returns the flush count."""
    full = _open(image)
    full.device.stats.flushes = 0
    operation(full)
    flushes = full.device.stats.flushes
    assert flushes > 0
    for nth in range(1, flushes + 1):
        cut = _image_at_flush(_open(image), nth, operation)
        assert cut is not None
        check(_open(cut), nth)
    return flushes


#: Boxed keys 0..12 and 32: once the map has 32 buckets, 0 and 32 chain.
_KEYS = (*range(13), 32)


def _map_image(mapped):
    """A pool whose root "map" maps key i to value 100 + i for *mapped*;
    every key and value of ``_KEYS`` is reachable from roots "k<i>" and
    "v<i>"."""
    pool = MemoryPool(32 * 1024, tx_log_words=1 << 12)
    mapping = PersistentHashmap(pool)
    pool.set_root("map", mapping.offset)
    for i in _KEYS:
        key, value = PersistentLong(pool, i), PersistentLong(pool, 100 + i)
        pool.set_root(f"k{i}", key.offset)
        pool.set_root(f"v{i}", value.offset)
        if i in mapped:
            mapping.put(key, value)
    return pool.close()


def _root(pool, cls, name):
    return cls.from_offset(pool, pool.get_root(name))


def _free_blocks(pool):
    """Payload offsets on the pool's free list."""
    read, free = pool.device.read, set()
    cursor = read(_FREE_HEAD)
    while cursor and cursor + HEADER_WORDS not in free:
        free.add(cursor + HEADER_WORDS)
        cursor = read(cursor + HEADER_WORDS)
    return free


def _reachable(pool, header, chained):
    """Payload offsets a [size, array] header reaches: itself, its array
    and the array's referents — entry chains with their keys and values
    when *chained*, else the elements themselves."""
    read = pool.device.read
    array = read(header + 1)
    seen = {header, array}
    for i in range(read(array)):
        cursor = read(array + 1 + i)
        while cursor and cursor not in seen:
            seen.add(cursor)
            if not chained:
                break
            seen.update(w for w in (read(cursor + 1), read(cursor + 2)) if w)
            cursor = read(cursor + 3)
    return seen


def _check_map(before, after):
    def check(pool, nth):
        mapping = _root(pool, PersistentHashmap, "map")
        assert mapping.size() in (len(before), len(after)), nth
        assert not (_reachable(pool, mapping.offset, chained=True)
                    & _free_blocks(pool)), nth
        for i in _KEYS:
            got = mapping.get(_root(pool, PersistentLong, f"k{i}"))
            got = got and got.long_value()
            assert got in (None, 100 + i), (nth, i, got)
            if got is not None:
                assert i in before or i in after, (nth, i)
    return check


def test_rehashing_put_cut_at_every_flush():
    """The 13th put rehashes 16 buckets into 32, moving every entry."""
    before = set(range(12))

    def put(pool):
        _root(pool, PersistentHashmap, "map").put(
            _root(pool, PersistentLong, "k32"),
            _root(pool, PersistentLong, "v32"))

    assert _sweep(_map_image(before), put,
                  _check_map(before, before | {32})) > 100


@pytest.mark.parametrize("victim", [0, 32, 5])
def test_remove_cut_at_every_flush(victim):
    """Keys 0 and 32 share a chain (one is its head), key 5 is alone."""
    mapped = set(range(12)) | {32}

    def remove(pool):
        assert _root(pool, PersistentHashmap, "map").remove(
            _root(pool, PersistentLong, f"k{victim}"))

    _sweep(_map_image(mapped), remove,
           _check_map(mapped, mapped - {victim}))


def test_growing_add_cut_at_every_flush():
    """The 9th add doubles the backing array and copies the first eight."""
    pool = MemoryPool(32 * 1024, tx_log_words=1 << 12)
    items = PersistentArrayList(pool)
    pool.set_root("list", items.offset)
    for i in range(9):
        value = PersistentLong(pool, i)
        pool.set_root(f"v{i}", value.offset)
        if i < 8:
            items.add(value)
    image = pool.close()

    def add(pool):
        _root(pool, PersistentArrayList, "list").add(
            _root(pool, PersistentLong, "v8"))

    def check(pool, nth):
        items = _root(pool, PersistentArrayList, "list")
        size = items.size()
        assert size in (8, 9), (nth, size)
        assert not (_reachable(pool, items.offset, chained=False)
                    & _free_blocks(pool)), nth
        assert [items.get(i).long_value() for i in range(size)] \
            == list(range(size)), nth

    assert _sweep(image, add, check) > 8
