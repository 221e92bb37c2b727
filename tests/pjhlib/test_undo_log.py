"""The self-validating PJH undo log (DESIGN.md §19): what each operation
costs in flushes and fences, and what recovery does after a crash at
every store of a logged operation, after stale entries of an earlier
transaction, and after a crash inside recovery itself."""

import shutil

import pytest

from repro.api import Espresso
from repro.errors import IllegalStateException, SimulatedCrash
from repro.nvm.device import FaultMode
from repro.pjhlib import PjhArrayList, PjhHashmap, PjhLong, PjhTransaction
from repro.runtime.klass import FieldKind

from tests.pjhlib.test_crash_sweep import _CrashAfterNFlushes

HEAP = "kv"
HEAP_BYTES = 512 * 1024


def _device(jvm):
    return jvm.heaps.heap(HEAP).device


def _flushes_and_fences(device, action):
    before = device.stats.snapshot()
    action()
    spent = device.stats.delta(before)
    return spent.flushes, spent.fences


class TestBudget:
    """Per-operation persist cost, pinned: one entry flush+fence per logged
    slot, one per in-place store, one for the commit, nothing else."""

    @pytest.fixture
    def session(self, tmp_path):
        jvm = Espresso(tmp_path / "h")
        jvm.create_heap(HEAP, HEAP_BYTES)
        return jvm, PjhTransaction(jvm)

    def test_one_slot_hashmap_set(self, session):
        jvm, txn = session
        table = PjhHashmap(jvm, txn)
        key = PjhLong(jvm, txn, 5)
        table.put(key, PjhLong(jvm, txn, 1))
        value = PjhLong(jvm, txn, 2)
        assert _flushes_and_fences(
            _device(jvm), lambda: table.put(key, value)) == (3, 3)

    def test_array_list_add(self, session):
        jvm, txn = session
        items = PjhArrayList(jvm, txn)
        value = PjhLong(jvm, txn, 1)
        items.add(value)  # no growth below the initial capacity of 8
        assert _flushes_and_fences(
            _device(jvm), lambda: items.add(value)) == (5, 5)

    def test_empty_transaction_is_free(self, session):
        jvm, txn = session

        def empty():
            txn.begin()
            txn.commit()

        assert _flushes_and_fences(_device(jvm), empty) == (0, 0)


def _log_and_store(jvm, txn, array, index, value):
    slot = jvm.vm.access.element_slot(array.address, index)
    txn.log_slot(slot)
    jvm.array_set(array, index, value)
    jvm.vm.service_of(array.address).flush_words(slot, 1)


def _rooted_log(jvm, txn):
    jvm.set_root("txn_entries", txn._entries)
    jvm.set_root("txn_meta", txn._meta)


def _reattach(jvm):
    return PjhTransaction.reattach(jvm, jvm.get_root("txn_entries"),
                                   jvm.get_root("txn_meta"))


def test_stale_entries_of_a_committed_transaction_are_not_undone(tmp_path):
    """A 5-slot transaction commits, a 2-slot one crashes: entries 2..4
    still hold the first transaction's words, and recovery must undo the
    two entries of the second and nothing else."""
    jvm = Espresso(tmp_path / "h")
    jvm.create_heap(HEAP, HEAP_BYTES)
    txn = PjhTransaction(jvm)
    cells = jvm.pnew_array(FieldKind.INT, 8)
    jvm.flush_object(cells)
    jvm.set_root("cells", cells)
    _rooted_log(jvm, txn)
    txn.begin()
    for i in range(5):
        _log_and_store(jvm, txn, cells, i, 10 + i)
    txn.commit()
    txn.begin()
    _log_and_store(jvm, txn, cells, 5, 99)
    _log_and_store(jvm, txn, cells, 6, 98)
    jvm.crash()

    jvm2 = Espresso(tmp_path / "h")
    jvm2.load_heap(HEAP)
    txn2 = _reattach(jvm2)
    with pytest.raises(IllegalStateException):
        txn2.begin()  # the crashed transaction must be recovered first
    assert txn2.recover()
    cells2 = jvm2.get_root("cells")
    assert [jvm2.array_get(cells2, i) for i in range(8)] == \
        [10, 11, 12, 13, 14, 0, 0, 0]
    assert not txn2.recover()  # settled: a second recovery finds nothing
    txn2.begin()               # and the log is usable again
    txn2.commit()


def test_recovery_after_a_remapped_load(tmp_path):
    """Entries name their slot relative to the log's heap, so a crashed
    transaction rolls back when the heap reloads at another address."""
    jvm = Espresso(tmp_path / "h")
    jvm.create_heap(HEAP, HEAP_BYTES)
    txn = PjhTransaction(jvm)
    cells = jvm.pnew_array(FieldKind.INT, 4)
    for i in range(4):
        jvm.array_set(cells, i, i + 1)
    jvm.flush_object(cells)
    jvm.set_root("cells", cells)
    _rooted_log(jvm, txn)
    txn.begin()
    _log_and_store(jvm, txn, cells, 0, -1)
    jvm.crash()

    jvm2 = Espresso(tmp_path / "h")
    jvm2.create_heap("squatter", HEAP_BYTES)  # lands on the log heap's hint
    _heap, report = jvm2.heaps.load_heap_with_report(HEAP)
    assert report.remapped
    assert _reattach(jvm2).recover()
    cells2 = jvm2.get_root("cells")
    assert [jvm2.array_get(cells2, i) for i in range(4)] == [1, 2, 3, 4]


class _StoreBomb:
    """Raise after the *nth* store (``write``/``write_block``/``fill``)
    on *device*; the store itself lands first."""

    NAMES = ("write", "write_block", "fill")

    def __init__(self, device, nth):
        self.device = device
        self.remaining = nth

    def __enter__(self):
        for name in self.NAMES:
            original = getattr(self.device, name)

            def guarded(*args, _original=original, **kwargs):
                _original(*args, **kwargs)
                self.remaining -= 1
                if self.remaining == 0:
                    raise SimulatedCrash("injected crash after a store")

            setattr(self.device, name, guarded)
        return self

    def __exit__(self, *exc):
        for name in self.NAMES:
            del self.device.__dict__[name]
        return False


# Hashmap: 16 buckets, load factor 0.75, so the 13th put rehashes.
BEFORE = {i: i * 10 for i in range(12)}
AFTER = {**BEFORE, 12: 120}


def _rehashing_put(heap_dir, mode, nth):
    """Build a 12-entry map, then put a 13th key (which rehashes) with a
    crash after the *nth* heap store; True when the put ran to the end."""
    jvm = Espresso(heap_dir)
    jvm.create_heap(HEAP, HEAP_BYTES)
    txn = PjhTransaction(jvm)
    table = PjhHashmap(jvm, txn)
    jvm.set_root("table", table.h)
    _rooted_log(jvm, txn)
    for key, value in BEFORE.items():
        table.put(PjhLong(jvm, txn, key), PjhLong(jvm, txn, value))
    key, value = PjhLong(jvm, txn, 12), PjhLong(jvm, txn, 120)
    device = _device(jvm)
    device.set_fault_mode(mode, seed=nth)
    completed = False
    try:
        with _StoreBomb(device, nth):
            table.put(key, value)
            completed = True
    except SimulatedCrash:
        pass
    jvm.crash()
    return completed


def _recovered_map(heap_dir):
    jvm = Espresso(heap_dir)
    jvm.load_heap(HEAP)
    txn = _reattach(jvm)
    txn.recover()
    table = PjhHashmap(jvm, txn, handle=jvm.get_root("table"))
    seen = {jvm.get_field(k, "value"): jvm.get_field(v, "value")
            for k, v in table.items()}
    assert table.size() == len(seen)
    return seen


@pytest.mark.parametrize("mode", [FaultMode.TORN, FaultMode.REORDERED])
def test_crash_at_every_store_of_a_rehashing_put(tmp_path, mode):
    nth = 0
    while True:
        nth += 1
        heap_dir = tmp_path / f"n{nth}"
        completed = _rehashing_put(heap_dir, mode, nth)
        seen = _recovered_map(heap_dir)
        if completed:
            assert seen == AFTER
            break
        assert seen in (BEFORE, AFTER), nth
    assert nth > 100  # the walk covered the rehash, not just the insert


def _data_image(jvm):
    heap = jvm.heaps.heap(HEAP)
    start = heap.data_space.base - heap.base_address
    end = heap.data_space.top - heap.base_address
    return heap.device.durable_image()[start:end]


@pytest.mark.parametrize("mode", FaultMode.ALL)
def test_a_crash_inside_recovery_converges(tmp_path, mode):
    """Crash a 3-slot transaction, then crash its recovery after each of
    its flushes: recovering again yields the image of an uncrashed
    recovery."""
    crashed = tmp_path / "crashed"
    jvm = Espresso(crashed)
    jvm.create_heap(HEAP, HEAP_BYTES)
    txn = PjhTransaction(jvm)
    cells = jvm.pnew_array(FieldKind.INT, 4)
    for i in range(4):
        jvm.array_set(cells, i, i + 1)
    jvm.flush_object(cells)
    jvm.set_root("cells", cells)
    _rooted_log(jvm, txn)
    txn.begin()
    for i in range(3):
        _log_and_store(jvm, txn, cells, i, -1)
    jvm.crash()

    reference = tmp_path / "reference"
    shutil.copytree(crashed, reference)
    jvm = Espresso(reference)
    jvm.load_heap(HEAP)
    assert _reattach(jvm).recover()
    expected = _data_image(jvm)
    cells = jvm.get_root("cells")
    assert [jvm.array_get(cells, i) for i in range(4)] == [1, 2, 3, 4]

    nth = 0
    while True:
        nth += 1
        heap_dir = tmp_path / f"n{nth}"
        shutil.copytree(crashed, heap_dir)
        jvm = Espresso(heap_dir)
        jvm.load_heap(HEAP)
        _device(jvm).set_fault_mode(mode, seed=nth)
        txn = _reattach(jvm)
        try:
            with _CrashAfterNFlushes(_device(jvm), nth):
                txn.recover()
            break
        except SimulatedCrash:
            jvm.crash()
        jvm = Espresso(heap_dir)
        jvm.load_heap(HEAP)
        _reattach(jvm).recover()
        assert (_data_image(jvm) == expected).all(), nth
    # Two crash points: the undo epoch (the three cells share a line) and
    # the settle; the third run is clean.
    assert nth == 3
