"""Crash-consistent allocation tests (paper §4.1).

Every test crashes the "machine" at a protocol failpoint, reloads the heap
in a fresh JVM and checks the invariants: objects allocated before the
crash window survive intact; the one object caught in the window is
truncated, never left half-interpretable.
"""

import pytest

from repro.api import Espresso
from repro.errors import SimulatedCrash

from tests.core.conftest import HEAP_BYTES, define_person


def build_and_crash(heap_dir, crash_site, crash_hit):
    """Allocate persons until the injected crash fires; return survivors."""
    jvm = Espresso(heap_dir)
    person = define_person(jvm)
    jvm.create_heap("h", HEAP_BYTES)
    anchor = jvm.pnew_array(person, 64)
    jvm.set_root("anchor", anchor)
    jvm.vm.failpoints.crash_on_hit(crash_site, crash_hit)
    created = 0
    try:
        for i in range(40):
            p = jvm.pnew(person)
            jvm.set_field(p, "id", i)
            jvm.flush_field(p, "id")
            jvm.array_set(anchor, i, p)
            jvm.flush_array_element(anchor, i)
            created += 1
    except SimulatedCrash:
        pass
    jvm.vm.failpoints.clear()
    jvm.crash()  # power loss: unflushed lines vanish
    return created


def reload(heap_dir):
    jvm = Espresso(heap_dir)
    jvm.load_heap("h")
    return jvm


@pytest.mark.parametrize("crash_hit", [1, 2, 5, 11])
def test_crash_after_top_persisted(heap_dir, crash_hit):
    """Crash between top-flush and header-flush: trailing object truncated."""
    created = build_and_crash(heap_dir, "pjh.alloc.top_persisted", crash_hit)
    jvm = reload(heap_dir)
    anchor = jvm.get_root("anchor")
    for i in range(created):
        p = jvm.array_get(anchor, i)
        assert p is not None
        assert jvm.get_field(p, "id") == i
    heap = jvm.heaps.heap("h")
    # Heap walk must terminate cleanly despite the torn allocation.
    assert sum(1 for _ in heap.walk()) >= created


@pytest.mark.parametrize("crash_hit", [1, 3, 8])
def test_crash_after_object_persisted(heap_dir, crash_hit):
    """Crash right after init: the object exists, fields at defaults."""
    created = build_and_crash(heap_dir, "pjh.alloc.object_persisted", crash_hit)
    jvm = reload(heap_dir)
    anchor = jvm.get_root("anchor")
    for i in range(created):
        assert jvm.get_field(jvm.array_get(anchor, i), "id") == i


def test_truncation_reported(heap_dir):
    """The torn trailing object is measurably truncated on load."""
    jvm = Espresso(heap_dir)
    person = define_person(jvm)
    jvm.create_heap("h", HEAP_BYTES)
    p = jvm.pnew(person)
    jvm.set_root("keep", p)
    heap = jvm.heaps.heap("h")
    # Hand-roll the crash window: bump + persist top, never init the object.
    size = jvm.vm.klass_of(p).instance_words
    heap.data_space.allocate(size)
    heap.metadata.set_top(heap.data_space.top)
    jvm.crash()

    jvm2 = Espresso(heap_dir)
    _heap, report = jvm2.heaps.load_heap_with_report("h")
    assert report.truncated_words == size
    assert jvm2.get_root("keep") is not None


def test_unflushed_field_lost_flushed_field_survives(heap_dir):
    """The §3.5 contract: only flushed data is durable."""
    jvm = Espresso(heap_dir)
    person = define_person(jvm)
    jvm.create_heap("h", HEAP_BYTES)
    p = jvm.pnew(person)
    jvm.set_root("p", p)
    jvm.set_field(p, "id", 111)
    jvm.flush_field(p, "id")
    jvm.set_field(p, "id", 222)  # never flushed
    jvm.crash()

    jvm2 = Espresso(heap_dir)
    jvm2.load_heap("h")
    assert jvm2.get_field(jvm2.get_root("p"), "id") == 111


def test_flush_object_persists_all_fields(heap_dir):
    jvm = Espresso(heap_dir)
    person = define_person(jvm)
    jvm.create_heap("h", HEAP_BYTES)
    p = jvm.pnew(person)
    name = jvm.pnew_string("alice")
    jvm.flush_reachable(name)
    jvm.set_field(p, "id", 9)
    jvm.set_field(p, "name", name)
    jvm.flush_object(p)
    jvm.set_root("p", p)
    jvm.crash()

    jvm2 = Espresso(heap_dir)
    jvm2.load_heap("h")
    p2 = jvm2.get_root("p")
    assert jvm2.get_field(p2, "id") == 9
    assert jvm2.read_string(jvm2.get_field(p2, "name")) == "alice"


def test_flush_reachable_persists_graph(heap_dir):
    from tests.core.conftest import define_node, pnew_list, read_list
    jvm = Espresso(heap_dir)
    node = define_node(jvm)
    jvm.create_heap("h", HEAP_BYTES)
    head = pnew_list(jvm, node, [5, 6, 7, 8])
    flushed = jvm.flush_reachable(head)
    assert flushed.objects == 4
    jvm.set_root("head", head)
    jvm.crash()

    jvm2 = Espresso(heap_dir)
    jvm2.load_heap("h")
    assert read_list(jvm2, jvm2.get_root("head")) == [5, 6, 7, 8]


def test_root_entry_is_durable_without_explicit_flush(heap_dir):
    """setRoot persists its name-table entry internally."""
    jvm = Espresso(heap_dir)
    person = define_person(jvm)
    jvm.create_heap("h", HEAP_BYTES)
    p = jvm.pnew(person)
    jvm.set_root("p", p)
    jvm.crash()
    jvm2 = Espresso(heap_dir)
    jvm2.load_heap("h")
    assert jvm2.get_root("p") is not None
