"""Unit tests for DRAM/NVM devices and the address space."""

import numpy as np
import pytest

from repro.errors import IllegalArgumentException
from repro.nvm.clock import Clock
from repro.nvm.device import (
    LINE_WORDS,
    AddressSpace,
    DramDevice,
    NvmDevice,
)
from repro.nvm.latency import LatencyConfig


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def nvm(clock):
    return NvmDevice(1024, clock, name="test-nvm")


@pytest.fixture
def dram(clock):
    return DramDevice(1024, clock, name="test-dram")


class TestBasicAccess:
    def test_read_write_roundtrip(self, nvm):
        nvm.write(5, 12345)
        assert nvm.read(5) == 12345

    def test_initially_zero(self, nvm):
        assert nvm.read(100) == 0

    def test_negative_values_roundtrip(self, nvm):
        nvm.write(0, -42)
        assert nvm.read(0) == -42

    def test_block_roundtrip(self, nvm):
        data = np.arange(10, dtype=np.int64)
        nvm.write_block(32, data)
        assert list(nvm.read_block(32, 10)) == list(range(10))

    def test_fill(self, nvm):
        nvm.fill(0, 16, 7)
        assert all(nvm.read(i) == 7 for i in range(16))

    def test_out_of_bounds_read(self, nvm):
        with pytest.raises(IllegalArgumentException):
            nvm.read(1024)

    def test_out_of_bounds_block(self, nvm):
        with pytest.raises(IllegalArgumentException):
            nvm.write_block(1020, np.zeros(8, dtype=np.int64))

    def test_zero_size_rejected(self, clock):
        with pytest.raises(IllegalArgumentException):
            NvmDevice(0, clock)


class TestLatencyCharging:
    def test_nvm_write_slower_than_read(self, clock):
        lat = LatencyConfig(nvm_read_ns=10.0, nvm_write_ns=100.0)
        dev = NvmDevice(64, clock, latency=lat)
        dev.read(0)
        t_read = clock.now_ns
        dev.write(0, 1)
        assert clock.now_ns - t_read == 100.0
        assert t_read == 10.0

    def test_block_charges_per_word(self, clock):
        lat = LatencyConfig(nvm_write_ns=5.0)
        dev = NvmDevice(64, clock, latency=lat)
        dev.write_block(0, np.zeros(8, dtype=np.int64))
        assert clock.now_ns == 40.0

    def test_stats_counters(self, nvm):
        nvm.write(0, 1)
        nvm.read(0)
        nvm.clflush(0)
        nvm.fence()
        assert nvm.stats.writes == 1
        assert nvm.stats.reads == 1
        assert nvm.stats.flushes == 1
        assert nvm.stats.fences == 1


class TestCrashSemantics:
    def test_unflushed_write_lost_on_crash(self, nvm):
        nvm.write(3, 99)
        nvm.crash()
        assert nvm.read(3) == 0

    def test_flushed_write_survives_crash(self, nvm):
        nvm.write(3, 99)
        nvm.clflush(3)
        nvm.crash()
        assert nvm.read(3) == 99

    def test_flush_covers_whole_line(self, nvm):
        for i in range(LINE_WORDS):
            nvm.write(i, i + 1)
        nvm.clflush(0)  # one flush, same line
        nvm.crash()
        assert [nvm.read(i) for i in range(LINE_WORDS)] == list(range(1, LINE_WORDS + 1))

    def test_flush_does_not_cover_next_line(self, nvm):
        nvm.write(0, 1)
        nvm.write(LINE_WORDS, 2)  # next line
        nvm.clflush(0)
        nvm.crash()
        assert nvm.read(0) == 1
        assert nvm.read(LINE_WORDS) == 0

    def test_multi_line_flush(self, nvm):
        nvm.fill(0, LINE_WORDS * 3, 5)
        nvm.clflush(0, LINE_WORDS * 3)
        nvm.crash()
        assert nvm.read(LINE_WORDS * 3 - 1) == 5

    def test_persist_all_flushes_everything(self, nvm):
        nvm.write(1, 1)
        nvm.write(500, 2)
        assert nvm.dirty_line_count == 2
        nvm.persist_all()
        assert nvm.dirty_line_count == 0
        nvm.crash()
        assert nvm.read(1) == 1
        assert nvm.read(500) == 2

    def test_overwrite_after_flush_lost(self, nvm):
        nvm.write(0, 1)
        nvm.clflush(0)
        nvm.write(0, 2)
        nvm.crash()
        assert nvm.read(0) == 1

    def test_dram_loses_everything(self, dram):
        dram.write(0, 42)
        dram.crash()
        assert dram.read(0) == 0

    def test_durable_word_reads_durable_not_live(self, nvm):
        nvm.write(0, 7)
        assert nvm.durable_word(0) == 0
        nvm.clflush(0)
        assert nvm.durable_word(0) == 7


class TestImages:
    def test_image_roundtrip(self, clock):
        a = NvmDevice(128, clock)
        a.write(10, 77)
        a.persist_all()
        image = a.durable_image()
        b = NvmDevice(128, clock)
        b.load_image(image)
        assert b.read(10) == 77

    def test_image_excludes_unflushed(self, nvm):
        nvm.write(10, 77)
        image = nvm.durable_image()
        assert image[10] == 0

    def test_load_smaller_image_zero_fills(self, clock):
        small = NvmDevice(64, clock)
        small.write(1, 5)
        small.persist_all()
        big = NvmDevice(128, clock)
        big.write(100, 9)
        big.persist_all()
        big.load_image(small.durable_image())
        assert big.read(1) == 5
        assert big.read(100) == 0

    def test_load_oversized_image_rejected(self, clock):
        big = NvmDevice(128, clock)
        big.persist_all()
        small = NvmDevice(64, clock)
        with pytest.raises(IllegalArgumentException):
            small.load_image(big.durable_image())


class TestAddressSpace:
    def test_routing(self, clock):
        space = AddressSpace()
        d1 = DramDevice(64, clock, name="d1")
        d2 = NvmDevice(64, clock, name="d2")
        space.map(0x100, d1)
        space.map(0x1000, d2)
        space.write(0x100 + 3, 1)
        space.write(0x1000 + 3, 2)
        assert d1.read(3) == 1
        assert d2.read(3) == 2
        assert space.read(0x103) == 1

    def test_is_persistent(self, clock):
        space = AddressSpace()
        space.map(0x100, DramDevice(64, clock))
        space.map(0x1000, NvmDevice(64, clock))
        assert space.mapping_at(0x100).device.volatile
        assert not space.mapping_at(0x1000).device.volatile
        with pytest.raises(IllegalArgumentException):
            space.mapping_at(0x999999)

    def test_overlap_rejected(self, clock):
        space = AddressSpace()
        space.map(100, DramDevice(64, clock))
        with pytest.raises(IllegalArgumentException):
            space.map(163, DramDevice(64, clock))

    def test_adjacent_ok(self, clock):
        space = AddressSpace()
        space.map(100, DramDevice(64, clock))
        space.map(164, DramDevice(64, clock))  # no overlap

    def test_zero_base_rejected(self, clock):
        space = AddressSpace()
        with pytest.raises(IllegalArgumentException):
            space.map(0, DramDevice(64, clock))

    def test_unmapped_access_raises(self, clock):
        space = AddressSpace()
        with pytest.raises(IllegalArgumentException):
            space.read(5)

    def test_find_free_base_skips_mappings(self, clock):
        space = AddressSpace()
        space.map(8, DramDevice(64, clock))
        base = space.find_free_base(64)
        assert base >= 72
        assert space.is_free(base, 64)

    def test_unmap(self, clock):
        space = AddressSpace()
        dev = DramDevice(64, clock)
        space.map(8, dev)
        space.unmap(dev)
        assert space.is_free(8, 64)

    def test_block_routing(self, clock):
        space = AddressSpace()
        dev = NvmDevice(64, clock)
        space.map(0x200, dev)
        space.write_block(0x200, np.array([1, 2, 3], dtype=np.int64))
        assert list(space.read_block(0x200, 3)) == [1, 2, 3]
