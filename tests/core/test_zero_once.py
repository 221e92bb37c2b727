"""Allocation zeroes each word once (DESIGN.md §19).

``_init_object`` writes no body and ``_claim_words`` skips the part of a
fresh heap's window that was never written.  Both rest on the same
invariant, checked here around every call: every word either one skips
is already zero, in the live array and in the durable array.
"""

import pytest

from repro.api import Espresso, EspressoConfig
from repro.core.persistent_heap import PersistentHeap
from repro.runtime.klass import FieldKind

from tests.core.conftest import HEAP_BYTES, define_node, pnew_list, read_list


def _assert_zero(heap, start, end, what):
    lo, hi = start - heap.base_address, end - heap.base_address
    device = heap.device
    assert not device._words[lo:hi].any(), (what, "live", start, end)
    assert not device._durable[lo:hi].any(), (what, "durable", start, end)


@pytest.fixture
def guard(monkeypatch):
    """Counts of checked words: object bodies, and claim words skipped
    because they lay above the never-written frontier."""
    seen = {"bodies": 0, "skipped": 0}
    claim, init = PersistentHeap._claim_words, PersistentHeap._init_object

    def checked_claim(self, size_words):
        frontier = self._never_written
        address = claim(self, size_words)
        start = max(address, frontier)
        end = address + size_words
        if start < end:
            _assert_zero(self, start, end, "claim")
            seen["skipped"] += end - start
        return address

    def checked_init(self, address, klass, length):
        size = (klass.instance_words if length is None
                else klass.array_words(length))
        _assert_zero(self, address, address + size, "body")
        seen["bodies"] += size
        init(self, address, klass, length)

    monkeypatch.setattr(PersistentHeap, "_claim_words", checked_claim)
    monkeypatch.setattr(PersistentHeap, "_init_object", checked_init)
    return seen


def _allocate(jvm, node, values):
    """A rooted list, garbage in between, and arrays small and oversize."""
    head = pnew_list(jvm, node, values)
    jvm.flush_reachable(head)
    jvm.set_root("head", head)
    for length in (0, 5, 300):
        jvm.pnew(node).close()
        jvm.pnew_array(FieldKind.INT, length).close()
    return head


@pytest.mark.parametrize("buffer_words", [None, 0])
def test_fresh_heap(heap_dir, guard, buffer_words):
    config = (EspressoConfig() if buffer_words is None
              else EspressoConfig(alloc_buffer_words=buffer_words))
    jvm = Espresso(heap_dir, config=config)
    node = define_node(jvm)
    jvm.create_heap("test", HEAP_BYTES)
    head = _allocate(jvm, node, list(range(30)))
    assert read_list(jvm, head) == list(range(30))
    assert guard["bodies"] and guard["skipped"]


def test_compaction_lowers_top_then_allocation(mounted, guard):
    node = define_node(mounted)
    head = _allocate(mounted, node, list(range(10)))
    heap = mounted.heaps.heap("test")
    top = heap.data_space.top
    mounted.persistent_gc()
    assert heap.data_space.top < top
    skipped = guard["skipped"]
    more = pnew_list(mounted, node, list(range(200)))  # refills below top
    jvm_arrays = [mounted.pnew_array(FieldKind.INT, 40) for _ in range(20)]
    assert read_list(mounted, head) == list(range(10))
    assert read_list(mounted, more) == list(range(200))
    assert jvm_arrays and guard["skipped"] > skipped  # back past the frontier


def test_crash_reload_then_allocation(heap_dir, guard):
    jvm = Espresso(heap_dir)
    node = define_node(jvm)
    jvm.create_heap("test", HEAP_BYTES)
    _allocate(jvm, node, list(range(10)))
    unflushed = jvm.pnew(node)
    jvm.set_field(unflushed, "value", 7)  # dirty, never flushed
    jvm.crash()

    jvm2 = Espresso(heap_dir)
    node = define_node(jvm2)
    jvm2.load_heap("test")
    skipped = guard["skipped"]
    head = _allocate(jvm2, node, list(range(20)))
    assert read_list(jvm2, head) == list(range(20))
    assert guard["skipped"] == skipped  # a loaded image zeroes every claim


def test_remapped_load_then_allocation(heap_dir, guard):
    jvm = Espresso(heap_dir)
    node = define_node(jvm)
    jvm.create_heap("first", HEAP_BYTES)
    _allocate(jvm, node, list(range(10)))
    jvm.shutdown()

    jvm2 = Espresso(heap_dir)
    node = define_node(jvm2)
    jvm2.create_heap("squatter", HEAP_BYTES)  # lands on first's hint
    _heap, report = jvm2.heaps.load_heap_with_report("first")
    assert report.remapped
    skipped = guard["skipped"]
    head = _allocate(jvm2, node, list(range(20)))
    assert read_list(jvm2, head) == list(range(20))
    assert guard["skipped"] == skipped
