"""Checksummed metadata: corrupted images fail loudly, by region.

Every durable control structure (heap metadata geometry, name-table
entries) carries a CRC32.  Flipping one durable word must turn an
arbitrary decode error into a :class:`~repro.errors.CorruptHeapError`
naming the failing region — and salvage mode must recover what it can.
"""

import pytest

from repro.api import Espresso, EspressoConfig
from repro.core import metadata as md
from repro.core import name_table as nt
from repro.errors import CorruptHeapError, HeapCorruptionError
from repro.runtime import layout
from repro.runtime.klass import FieldKind, field


def _make_image(tmp_path, with_root=True):
    jvm = Espresso(tmp_path / "h")
    klass = jvm.define_class("Corrupt", [field("v", FieldKind.INT)])
    jvm.create_heap("h", 128 * 1024)
    if with_root:
        obj = jvm.pnew(klass)
        jvm.set_field(obj, "v", 41)
        jvm.flush_reachable(obj)
        jvm.set_root("keep", obj)
    jvm.shutdown()
    return jvm


def _flip(jvm, word, xor=0xFF):
    image = jvm.heaps.names.load_image("h")
    image[word] ^= xor
    jvm.heaps.names.save_image("h", image)


def _load(tmp_path, **kwargs):
    return Espresso(tmp_path / "h").load_heap("h", **kwargs)


class TestMetadataRegions:
    def test_flipped_magic_names_the_region(self, tmp_path):
        jvm = _make_image(tmp_path)
        _flip(jvm, md._MAGIC)
        with pytest.raises(CorruptHeapError) as info:
            _load(tmp_path)
        assert info.value.region == "metadata.magic"

    def test_flipped_version_names_the_region(self, tmp_path):
        jvm = _make_image(tmp_path)
        _flip(jvm, md._VERSION)
        with pytest.raises(CorruptHeapError) as info:
            _load(tmp_path)
        assert info.value.region == "metadata.version"

    @pytest.mark.parametrize("word", [md._HEAP_SIZE, md._NAME_TABLE_OFF,
                                      md._DATA_OFF, md._REGION_WORDS])
    def test_flipped_geometry_word_fails_the_layout_crc(self, tmp_path, word):
        jvm = _make_image(tmp_path)
        _flip(jvm, word)
        with pytest.raises(CorruptHeapError) as info:
            _load(tmp_path)
        assert info.value.region == "metadata.layout"

    def test_flipped_crc_itself_fails_the_layout_check(self, tmp_path):
        jvm = _make_image(tmp_path)
        _flip(jvm, md._LAYOUT_CRC)
        with pytest.raises(CorruptHeapError) as info:
            _load(tmp_path)
        assert info.value.region == "metadata.layout"

    def test_corrupt_heap_error_is_a_heap_corruption_error(self, tmp_path):
        # Callers catching the historical type keep working.
        jvm = _make_image(tmp_path)
        _flip(jvm, md._MAGIC)
        with pytest.raises(HeapCorruptionError):
            _load(tmp_path)


class TestNameTableEntries:
    def _entry_word(self, jvm, index, word):
        image = jvm.heaps.names.load_image("h")
        off = int(image[md._NAME_TABLE_OFF])
        return off + index * nt.ENTRY_WORDS + word

    def _corrupt_root_entry(self, jvm, word):
        image = jvm.heaps.names.load_image("h")
        off = int(image[md._NAME_TABLE_OFF])
        count = int(image[md._NAME_TABLE_CAPACITY])
        for index in range(count):
            entry = off + index * nt.ENTRY_WORDS
            if image[entry + nt._TYPE] == nt.ENTRY_TYPE_ROOT:
                image[entry + word] ^= 0xFF
                jvm.heaps.names.save_image("h", image)
                return index
        raise AssertionError("no root entry found")

    def test_flipped_name_word_raises_by_default(self, tmp_path):
        jvm = _make_image(tmp_path)
        index = self._corrupt_root_entry(jvm, nt._NAME)
        with pytest.raises(CorruptHeapError) as info:
            _load(tmp_path)
        assert info.value.region == f"name_table.entry[{index}]"

    def test_flipped_entry_crc_raises_by_default(self, tmp_path):
        jvm = _make_image(tmp_path)
        index = self._corrupt_root_entry(jvm, nt._CRC)
        with pytest.raises(CorruptHeapError) as info:
            _load(tmp_path)
        assert info.value.region == f"name_table.entry[{index}]"

    def test_salvage_skips_the_bad_entry_and_reports(self, tmp_path):
        jvm = _make_image(tmp_path)
        index = self._corrupt_root_entry(jvm, nt._NAME)
        jvm2 = Espresso(tmp_path / "h")
        heap, report = jvm2.heaps.load_heap_with_report("h", salvage=True)
        assert [i for i, _reason in report.discarded_entries] == [index]
        # The corrupted root is gone; the heap is otherwise usable.
        assert jvm2.get_root("keep") is None

    def test_salvage_keeps_clean_roots(self, tmp_path):
        jvm = _make_image(tmp_path)
        jvm.load_heap("h")
        extra = jvm.pnew("Corrupt")
        jvm.set_field(extra, "v", 7)
        jvm.flush_reachable(extra)
        jvm.set_root("extra", extra)
        jvm.shutdown()
        index = self._corrupt_root_entry(jvm, nt._NAME)  # first root entry
        jvm2 = Espresso(tmp_path / "h")
        heap, report = jvm2.heaps.load_heap_with_report("h", salvage=True)
        assert len(report.discarded_entries) == 1
        assert report.salvaged_roots >= 1
        survivors = {"keep", "extra"} - {
            name for name, _v, _i in heap.name_table.entries(
                nt.ENTRY_TYPE_ROOT)}
        assert len(survivors) == 1  # exactly the corrupted one vanished

    def test_value_updates_do_not_touch_the_crc(self, tmp_path):
        # setRoot rewrites _VALUE in place; the entry CRC must still hold.
        jvm = _make_image(tmp_path)
        jvm.load_heap("h")
        for v in (1, 2, 3):
            obj = jvm.pnew("Corrupt")
            jvm.set_field(obj, "v", v)
            jvm.flush_reachable(obj)
            jvm.set_root("keep", obj)
        jvm.shutdown()
        jvm2 = Espresso(tmp_path / "h")
        heap, report = jvm2.heaps.load_heap_with_report("h")
        assert report.discarded_entries == []
        assert jvm2.get_field(jvm2.get_root("keep"), "v") == 3


class TestDataHeap:
    def test_negative_array_length_names_the_data_heap(self, tmp_path):
        jvm = Espresso(tmp_path / "h",
                       config=EspressoConfig(alloc_buffer_words=64))
        jvm.create_heap("h", 128 * 1024)
        array = jvm.pnew_array(FieldKind.INT, 4)
        jvm.set_root("keep", array)
        heap = jvm.heaps.heap("h")
        length_word = (array.address - heap.base_address
                       + layout.ARRAY_LENGTH_OFFSET)
        jvm.crash()  # the buffer claim stays: the load parses its window
        image = jvm.heaps.names.load_image("h")
        image[length_word] = -1
        jvm.heaps.names.save_image("h", image)
        with pytest.raises(CorruptHeapError) as info:
            _load(tmp_path)
        assert info.value.region == "data-heap"
        assert "negative array length -1" in info.value.detail


class TestLoadReport:
    def test_clean_load_lists_verified_regions(self, tmp_path):
        jvm = _make_image(tmp_path)
        jvm2 = Espresso(tmp_path / "h")
        _heap, report = jvm2.heaps.load_heap_with_report("h")
        for region in ("metadata", "name-table", "klass-segment",
                       "gc-recovery", "data-heap"):
            assert region in report.regions_verified
