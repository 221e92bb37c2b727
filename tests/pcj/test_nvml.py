"""Tests for the NVML-style pool: allocation, transactions, directories."""

import pytest

from repro.errors import IllegalStateException, OutOfMemoryError
from repro.pcj.nvml import HEADER_WORDS, MemoryPool


@pytest.fixture
def pool():
    return MemoryPool(64 * 1024)


class TestAllocation:
    def test_pmalloc_returns_distinct_payloads(self, pool):
        a = pool.pmalloc(4, 0)
        b = pool.pmalloc(4, 0)
        assert b >= a + 4 + HEADER_WORDS

    def test_payload_size_recorded(self, pool):
        a = pool.pmalloc(7, 0)
        assert pool.payload_size(a) == 7

    def test_free_and_reuse(self, pool):
        a = pool.pmalloc(8, 0)
        pool.pfree(a)
        assert pool.free_list_length() == 1
        b = pool.pmalloc(8, 0)
        assert b == a  # first fit reuses the chunk
        assert pool.free_list_length() == 0

    def test_free_chunk_too_small_not_reused(self, pool):
        a = pool.pmalloc(2, 0)
        pool.pfree(a)
        b = pool.pmalloc(10, 0)
        assert b != a
        assert pool.free_list_length() == 1

    def test_exhaustion(self):
        pool = MemoryPool(16 * 1024, tx_log_words=512)
        with pytest.raises(OutOfMemoryError):
            for _ in range(10000):
                pool.pmalloc(16, 0)


class TestTransactions:
    def test_commit_keeps_changes(self, pool):
        a = pool.pmalloc(2, 0)
        pool.tx_begin()
        pool.tx_add_range(a, 1)
        pool.device.write(a, 42)
        pool.tx_commit()
        assert pool.device.read(a) == 42

    def test_abort_restores_old_data(self, pool):
        a = pool.pmalloc(2, 0)
        pool.device.write(a, 1)
        pool.device.clflush(a)
        pool.tx_begin()
        pool.tx_add_range(a, 1)
        pool.device.write(a, 99)
        pool.tx_abort()
        assert pool.device.read(a) == 1

    def test_abort_applies_undo_in_reverse(self, pool):
        a = pool.pmalloc(2, 0)
        pool.device.write(a, 1)
        pool.tx_begin()
        pool.tx_add_range(a, 1)
        pool.device.write(a, 2)
        pool.tx_add_range(a, 1)  # logs the intermediate value 2
        pool.device.write(a, 3)
        pool.tx_abort()
        assert pool.device.read(a) == 1  # reverse order restores original

    def test_nested_begin_rejected(self, pool):
        pool.tx_begin()
        with pytest.raises(IllegalStateException):
            pool.tx_begin()

    def test_log_outside_tx_rejected(self, pool):
        with pytest.raises(IllegalStateException):
            pool.tx_add_range(pool._heap_off, 1)

    def test_crash_during_tx_rolls_back_on_recover(self, pool):
        a = pool.pmalloc(2, 0)
        pool.device.write(a, 5)
        pool.device.clflush(a)
        pool.tx_begin()
        pool.tx_add_range(a, 1)
        pool.device.write(a, 6)
        pool.device.clflush(a)
        pool.device.crash()  # tx_active survives; the new value too
        pool.recover()
        assert pool.device.read(a) == 5


class TestDirectories:
    def test_type_interning_is_stable(self, pool):
        a = pool.intern_type("Foo")
        b = pool.intern_type("Bar")
        assert a != b
        assert pool.intern_type("Foo") == a

    def test_roots(self, pool):
        a = pool.pmalloc(2, 0)
        pool.set_root("head", a)
        assert pool.get_root("head") == a
        assert pool.get_root("missing") is None

    def test_root_update(self, pool):
        a = pool.pmalloc(2, 0)
        b = pool.pmalloc(2, 0)
        pool.set_root("r", a)
        pool.set_root("r", b)
        assert pool.get_root("r") == b

    def test_gc_register_counts(self, pool):
        before = pool.device.read(8)  # _GC_REG_COUNT
        pool.gc_register(pool.pmalloc(2, 0))
        assert pool.device.read(8) == before + 1
