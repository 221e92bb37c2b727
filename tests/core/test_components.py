"""Unit tests for PJH components: layout plan, metadata, name table,
Klass segment, flush APIs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Espresso
from repro.core.metadata import METADATA_WORDS, plan_layout
from repro.core.name_table import (
    ENTRY_TYPE_KLASS,
    ENTRY_TYPE_ROOT,
    MAX_NAME_BYTES,
)
from repro.errors import (
    IllegalArgumentException,
    IllegalStateException,
    OutOfMemoryError,
)
from repro.runtime.klass import FieldKind, Residence, field

from tests.core.conftest import HEAP_BYTES, define_person


class TestPlanLayout:
    def test_areas_are_disjoint_and_ordered(self):
        layout = plan_layout(1 << 16)
        boundaries = [
            (METADATA_WORDS, layout.name_table_offset),
            (layout.name_table_offset, layout.klass_segment_offset),
            (layout.klass_segment_offset, layout.bitmap_offset),
            (layout.bitmap_offset, layout.region_bitmap_offset),
            (layout.region_bitmap_offset, layout.scratch_offset),
            (layout.scratch_offset, layout.root_redo_offset),
            (layout.root_redo_offset, layout.data_offset),
        ]
        for start, end in boundaries:
            assert start <= end
        assert layout.data_offset + layout.data_words == layout.size_words

    def test_bitmaps_cover_data_region(self):
        for size in (1 << 13, 1 << 16, 1 << 20, (1 << 20) + 12345):
            layout = plan_layout(size)
            needed = 2 * ((layout.data_words + 63) // 64)
            assert layout.bitmap_words >= needed
            n_regions = (layout.data_words + layout.region_words - 1) \
                // layout.region_words
            assert layout.region_bitmap_words * 64 >= n_regions

    def test_too_small_rejected(self):
        with pytest.raises(IllegalArgumentException):
            plan_layout(1024)

    def test_tiny_region_rejected(self):
        with pytest.raises(IllegalArgumentException):
            plan_layout(1 << 16, region_words=32)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(4096, 1 << 21), st.sampled_from([64, 128, 1024, 4096]))
    def test_property_layout_always_consistent(self, size, region):
        try:
            layout = plan_layout(size, region)
        except IllegalArgumentException:
            return  # legitimately too small for this region size
        assert layout.data_words >= region
        assert 2 * ((layout.data_words + 63) // 64) <= layout.bitmap_words


class TestMetadataArea:
    @pytest.fixture
    def heap(self, mounted):
        return mounted.heaps.heap("test")

    def test_top_roundtrip(self, heap):
        heap.metadata.set_top(heap.data_space.base + 64)
        assert heap.metadata.top == heap.data_space.base + 64

    def test_gc_flag(self, heap):
        assert not heap.metadata.gc_in_progress
        heap.metadata.set_gc_in_progress(True)
        assert heap.metadata.gc_in_progress

    def test_cursor_roundtrip(self, heap):
        assert heap.metadata.region_cursor() == (-1, 0)
        heap.metadata.set_region_cursor(7, 42)
        assert heap.metadata.region_cursor() == (7, 42)

    def test_move_record_roundtrip(self, heap):
        assert heap.metadata.move_record() is None
        heap.metadata.set_move_record(100, 80, 300, 2)
        assert heap.metadata.move_record() == (100, 80, 300, 2)
        heap.metadata.set_move_progress(5)
        assert heap.metadata.move_record()[3] == 5
        heap.metadata.clear_move_record()
        assert heap.metadata.move_record() is None

    def test_metadata_survives_crash_when_flushed(self, heap):
        heap.metadata.set_global_timestamp(9)
        heap.device.crash()
        assert heap.metadata.global_timestamp == 9

    def test_layout_roundtrip_through_device(self, heap):
        reread = heap.metadata.layout()
        assert reread == heap.layout


class TestNameTable:
    @pytest.fixture
    def heap(self, mounted):
        return mounted.heaps.heap("test")

    def test_put_lookup(self, heap):
        heap.name_table.put(ENTRY_TYPE_ROOT, "alpha", 0x1234)
        assert heap.name_table.lookup(ENTRY_TYPE_ROOT, "alpha") == 0x1234

    def test_types_are_separate_namespaces(self, heap):
        heap.name_table.put(ENTRY_TYPE_ROOT, "x", 1)
        heap.name_table.put(ENTRY_TYPE_KLASS, "x", 2)
        assert heap.name_table.lookup(ENTRY_TYPE_ROOT, "x") == 1
        assert heap.name_table.lookup(ENTRY_TYPE_KLASS, "x") == 2

    def test_update_in_place(self, heap):
        index_a = heap.name_table.put(ENTRY_TYPE_ROOT, "r", 1)
        index_b = heap.name_table.put(ENTRY_TYPE_ROOT, "r", 2)
        assert index_a == index_b
        assert heap.name_table.lookup(ENTRY_TYPE_ROOT, "r") == 2

    def test_missing_lookup(self, heap):
        assert heap.name_table.lookup(ENTRY_TYPE_ROOT, "missing") is None

    def test_long_name_rejected(self, heap):
        with pytest.raises(IllegalArgumentException):
            heap.name_table.put(ENTRY_TYPE_ROOT, "x" * (MAX_NAME_BYTES + 1), 1)

    def test_utf8_names(self, heap):
        heap.name_table.put(ENTRY_TYPE_ROOT, "café☕", 7)
        heap.name_table._rebuild_index()
        assert heap.name_table.lookup(ENTRY_TYPE_ROOT, "café☕") == 7

    def test_capacity_exhaustion(self, heap):
        with pytest.raises(OutOfMemoryError):
            for i in range(100000):
                heap.name_table.put(ENTRY_TYPE_ROOT, f"r{i}", i)

    def test_entries_survive_crash(self, heap, mounted):
        heap.name_table.put(ENTRY_TYPE_ROOT, "durable", 42)
        heap.device.crash()
        heap.name_table._rebuild_index()
        assert heap.name_table.lookup(ENTRY_TYPE_ROOT, "durable") == 42


class TestKlassSegment:
    def test_roundtrip_through_restart(self, heap_dir):
        jvm = Espresso(heap_dir)
        base = jvm.define_class("KsBase", [field("a", FieldKind.INT)])
        derived = jvm.define_class(
            "KsDerived", [field("b", FieldKind.FLOAT),
                          field("r", FieldKind.REF)], super_klass=base)
        jvm.create_heap("h", HEAP_BYTES)
        obj = jvm.pnew(derived)
        jvm.set_root("o", obj)
        nvm_klass = jvm.vm.klass_of(obj)
        jvm.shutdown()

        jvm2 = Espresso(heap_dir)
        jvm2.load_heap("h")
        reloaded = jvm2.vm.klass_of(jvm2.get_root("o"))
        assert reloaded.name == "KsDerived"
        assert reloaded.residence is Residence.NVM
        assert reloaded.super_klass.name == "KsBase"
        assert [f.name for f in reloaded.all_fields] == ["a", "b", "r"]
        assert [f.kind for f in reloaded.all_fields] == \
            [FieldKind.INT, FieldKind.FLOAT, FieldKind.REF]
        assert reloaded.address == nvm_klass.address  # in place

    def test_array_klass_roundtrip(self, heap_dir):
        jvm = Espresso(heap_dir)
        person = define_person(jvm)
        jvm.create_heap("h", HEAP_BYTES)
        arr = jvm.pnew_array(person, 2)
        jvm.set_root("a", arr)
        jvm.shutdown()

        jvm2 = Espresso(heap_dir)
        jvm2.load_heap("h")
        klass = jvm2.vm.klass_of(jvm2.get_root("a"))
        assert klass.is_array
        assert klass.element_klass.name == "Person"
        assert klass.element_kind is FieldKind.REF

    def test_segment_exhaustion(self, heap_dir):
        jvm = Espresso(heap_dir)
        jvm.create_heap("h", 64 * 1024)  # tiny: small Klass segment
        with pytest.raises(OutOfMemoryError):
            for i in range(2000):
                klass = jvm.define_class(f"Filler{i}")
                jvm.pnew(klass).close()


class TestFlushApiErrors:
    def test_flush_on_dram_object_rejected(self, mounted):
        person = define_person(mounted)
        volatile = mounted.new(person)
        with pytest.raises(IllegalStateException):
            mounted.flush_field(volatile, "id")
        with pytest.raises(IllegalStateException):
            mounted.flush_object(volatile)

    def test_flush_array_element(self, mounted):
        arr = mounted.pnew_array(FieldKind.INT, 4)
        mounted.array_set(arr, 2, 9)
        mounted.flush_array_element(arr, 2)
        mounted.crash()
        jvm2 = Espresso(mounted.heap_dir)
        jvm2.load_heap("test")
        # The anchor is gone (no root), but the flush path must not error;
        # durability of rooted data is covered in test_crash_allocation.

    def test_flush_reachable_counts(self, mounted):
        from tests.core.conftest import define_node, pnew_list
        node = define_node(mounted)
        head = pnew_list(mounted, node, [1, 2, 3, 4, 5])
        assert mounted.flush_reachable(head).objects == 5


class TestHeapStats:
    def test_stats_snapshot(self, mounted):
        person = define_person(mounted)
        for i in range(4):
            p = mounted.pnew(person)
            if i == 0:
                mounted.set_root("keep", p)
        stats = mounted.heaps.heap("test").stats()
        assert stats["objects"] == 4
        assert stats["objects_by_class"]["Person"] == 4
        assert stats["roots"] == 1
        assert stats["klasses"] >= 2  # Person + Object
        assert stats["used_words"] > 0
        assert stats["used_words"] + stats["free_words"] \
            == stats["data_words"]
        assert stats["device"]["flushes"] > 0
