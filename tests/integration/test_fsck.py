"""Tests for the PJH consistency checker, including corruption detection."""

import pytest

from repro.api import Espresso
from repro.errors import HeapCorruptionError
from repro.runtime import layout
from repro.runtime.klass import FieldKind, field
from repro.tools.fsck import fsck, fsck_heap, main


@pytest.fixture
def populated(tmp_path):
    heap_dir = tmp_path / "heaps"
    jvm = Espresso(heap_dir)
    node = jvm.define_class("FNode", [field("v", FieldKind.INT),
                                      field("next", FieldKind.REF)])
    jvm.create_heap("h", 256 * 1024)
    prev = None
    for i in range(10):
        n = jvm.pnew(node)
        jvm.set_field(n, "v", i)
        if prev is not None:
            jvm.set_field(n, "next", prev)
        prev = n
    jvm.flush_reachable(prev)
    jvm.set_root("head", prev)
    return heap_dir, jvm


def test_clean_heap(populated):
    heap_dir, jvm = populated
    report = fsck_heap(jvm.heaps.heap("h"))
    assert report.clean, report.errors
    assert report.objects == 10
    assert report.references == 9


def test_clean_after_gc(populated):
    heap_dir, jvm = populated
    node = jvm.vm.metaspace.lookup("FNode")
    for _ in range(30):
        jvm.pnew(node).close()
    jvm.persistent_gc()
    report = fsck_heap(jvm.heaps.heap("h"))
    assert report.clean, report.errors
    assert report.objects == 10  # garbage gone


def test_clean_after_restart(populated):
    heap_dir, jvm = populated
    jvm.shutdown()
    report = fsck(heap_dir, "h")
    assert report.clean, report.errors


@pytest.mark.parametrize("word, value, message", [
    (layout.KLASS_WORD_OFFSET, 0xDEAD, "unresolvable klass pointer 0xdead"),
    (layout.ARRAY_LENGTH_OFFSET, -1,
     "unsizeable: negative array length -1"),
    (layout.ARRAY_LENGTH_OFFSET, 1 << 20, "size 1048579 overruns top"),
], ids=["unknown-klass", "negative-length", "length-past-top"])
def test_detects_corrupt_klass_pointer(populated, word, value, message):
    heap_dir, jvm = populated
    heap = jvm.heaps.heap("h")
    fresh = jvm.pnew_array(FieldKind.INT, 4)
    jvm.vm.memory.write(fresh.address + word, value)
    report = fsck_heap(heap)
    assert len(report.errors) == 1, report.errors
    assert report.errors[0].startswith(f"object @{fresh.address:#x}")
    assert message in report.errors[0]
    assert report.objects == 10


def test_walk_raises_where_the_heap_stops_parsing(populated):
    heap_dir, jvm = populated
    heap = jvm.heaps.heap("h")
    fresh = jvm.pnew_array(FieldKind.INT, 4)
    jvm.vm.memory.write(fresh.address + layout.ARRAY_LENGTH_OFFSET, 1 << 20)
    with pytest.raises(HeapCorruptionError, match=f"@{fresh.address:#x}"):
        list(heap.walk())


def test_detects_dangling_internal_reference(populated):
    heap_dir, jvm = populated
    heap = jvm.heaps.heap("h")
    head = jvm.get_root("head")
    klass = jvm.vm.klass_of(head)
    slot = head.address + klass.field_offset("next")
    # Point mid-object: inside the heap but not an object start.
    jvm.vm.memory.write(slot, head.address + 1)
    report = fsck_heap(heap)
    assert any("not at an object start" in e for e in report.errors)


def test_detects_corrupt_root_entry(populated):
    heap_dir, jvm = populated
    heap = jvm.heaps.heap("h")
    from repro.core.name_table import ENTRY_TYPE_ROOT
    index = heap.name_table.entry_index(ENTRY_TYPE_ROOT, "head")
    slot = heap.name_table.value_slot_address(index)
    jvm.vm.memory.write(slot, heap.data_space.base + 3)
    report = fsck_heap(heap)
    assert any("root 'head'" in e for e in report.errors)


def test_out_pointers_are_counted_not_errors(populated):
    heap_dir, jvm = populated
    node = jvm.vm.metaspace.lookup("FNode")
    holder = jvm.pnew(node)
    jvm.set_field(holder, "next", jvm.new(node))  # NVM -> DRAM
    report = fsck_heap(jvm.heaps.heap("h"))
    assert report.clean
    assert report.out_pointers == 1


def test_cli(populated, capsys):
    heap_dir, jvm = populated
    jvm.shutdown()
    assert main([str(heap_dir), "h"]) == 0
    assert "clean" in capsys.readouterr().out
    assert main([]) == 1


def test_fsck_after_crash_recovery(tmp_path):
    """fsck is the structural half of the recovery guarantee."""
    from repro.errors import SimulatedCrash
    heap_dir = tmp_path / "h"
    jvm = Espresso(heap_dir)
    node = jvm.define_class("GNode", [field("v", FieldKind.INT),
                                      field("next", FieldKind.REF)])
    jvm.create_heap("h", 256 * 1024, region_words=128)
    keep = None
    for i in range(40):
        n = jvm.pnew(node)
        jvm.set_field(n, "v", i)
        if i % 4 == 0:
            if keep is not None:
                jvm.set_field(n, "next", keep)
            keep = n
        else:
            n.close()
    jvm.flush_reachable(keep)
    jvm.set_root("keep", keep)
    jvm.vm.failpoints.crash_on_hit("gc.compact.dest_persisted", 1)
    with pytest.raises(SimulatedCrash):
        jvm.persistent_gc()
    jvm.vm.failpoints.clear()
    jvm.crash()

    report = fsck(heap_dir, "h")  # loads + recovers + checks structure
    assert report.clean, report.errors


def test_cli_json_clean(populated, capsys):
    import json
    heap_dir, jvm = populated
    jvm.shutdown()
    assert main(["--json", str(heap_dir), "h"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is True
    assert payload["objects"] == 10
    assert payload["errors"] == []


def test_cli_json_reports_unloadable_image(populated, capsys):
    import json
    heap_dir, jvm = populated
    jvm.shutdown()
    image = jvm.heaps.names.load_image("h")
    image[0] ^= 0xFF  # break the magic
    jvm.heaps.names.save_image("h", image)
    assert main(["--json", str(heap_dir), "h"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is False
    assert any("metadata.magic" in e for e in payload["errors"])


def test_report_to_dict_round_trips(populated):
    heap_dir, jvm = populated
    report = fsck_heap(jvm.heaps.heap("h"))
    data = report.to_dict()
    assert data["clean"] and data["objects"] == report.objects
    assert data["references"] == report.references
