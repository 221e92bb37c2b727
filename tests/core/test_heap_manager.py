"""Tests for the Table 1 heap-management APIs and the load pipeline."""

import shutil

import pytest

from repro.api import Espresso, EspressoConfig
from repro.errors import (
    CorruptHeapError,
    HeapExistsError,
    HeapNotFoundError,
    IllegalArgumentException,
    IllegalStateException,
    SimulatedCrash,
)
from repro.runtime import layout
from repro.runtime.klass import FieldKind, field
from repro.tools.fsck import fsck_heap

from tests.core.conftest import HEAP_BYTES, define_person


class TestCreateExists:
    def test_create_and_exists(self, jvm):
        assert not jvm.exists_heap("Jimmy")
        jvm.create_heap("Jimmy", HEAP_BYTES)
        assert jvm.exists_heap("Jimmy")

    def test_duplicate_create_rejected(self, mounted):
        with pytest.raises(HeapExistsError):
            mounted.create_heap("test", HEAP_BYTES)

    def test_load_missing_heap_rejected(self, jvm):
        with pytest.raises(HeapNotFoundError):
            jvm.load_heap("nope")

    def test_tiny_heap_rejected(self, jvm):
        with pytest.raises(IllegalArgumentException):
            jvm.create_heap("tiny", 1024)

    def test_double_load_rejected(self, mounted):
        with pytest.raises(IllegalStateException):
            mounted.load_heap("test")

    def test_multiple_heaps(self, jvm):
        jvm.create_heap("a", HEAP_BYTES)
        jvm.create_heap("b", HEAP_BYTES)
        person = define_person(jvm)
        pa = jvm.pnew(person, heap="a")
        pb = jvm.pnew(person, heap="b")
        assert jvm.heaps.heap("a").contains(pa.address)
        assert jvm.heaps.heap("b").contains(pb.address)
        assert not jvm.heaps.heap("a").contains(pb.address)


class TestRoots:
    def test_set_and_get_root(self, mounted):
        person = define_person(mounted)
        p = mounted.pnew(person)
        mounted.set_field(p, "id", 7)
        mounted.set_root("me", p)
        fetched = mounted.get_root("me")
        assert fetched.same_object(p)
        assert mounted.get_field(fetched, "id") == 7

    def test_get_missing_root_is_none(self, mounted):
        assert mounted.get_root("missing") is None

    def test_root_update(self, mounted):
        person = define_person(mounted)
        a = mounted.pnew(person)
        b = mounted.pnew(person)
        mounted.set_root("r", a)
        mounted.set_root("r", b)
        assert mounted.get_root("r").same_object(b)

    def test_null_root(self, mounted):
        person = define_person(mounted)
        mounted.set_root("r", mounted.pnew(person))
        mounted.set_root("r", None)
        assert mounted.get_root("r") is None


class TestPersistenceAcrossRestart:
    def test_figure11_workflow(self, heap_dir):
        # First run: create heap and objects.
        jvm = Espresso(heap_dir)
        person = define_person(jvm)
        assert not jvm.exists_heap("Jimmy")
        jvm.create_heap("Jimmy", HEAP_BYTES)
        p = jvm.pnew(person)
        jvm.set_field(p, "id", 42)
        jvm.set_field(p, "name", jvm.pnew_string("Jimmy"))
        jvm.set_root("Jimmy_info", p)
        jvm.shutdown()

        # Second run (fresh "JVM process"): load and fetch.
        jvm2 = Espresso(heap_dir)
        define_person(jvm2)
        assert jvm2.exists_heap("Jimmy")
        jvm2.load_heap("Jimmy")
        p2 = jvm2.get_root("Jimmy_info")
        p2 = jvm2.checkcast(p2, "Person")
        assert jvm2.get_field(p2, "id") == 42
        assert jvm2.read_string(jvm2.get_field(p2, "name")) == "Jimmy"

    def test_load_reinitializes_klasses_in_place(self, heap_dir):
        jvm = Espresso(heap_dir)
        person = define_person(jvm)
        jvm.create_heap("h", HEAP_BYTES)
        p = jvm.pnew(person)
        jvm.set_root("p", p)
        klass_addr_before = jvm.vm.access.klass_pointer(p.address)
        jvm.shutdown()

        jvm2 = Espresso(heap_dir)
        _heap, report = jvm2.heaps.load_heap_with_report("h")
        p2 = jvm2.get_root("p")
        # Klass pointers stay valid: reinitialised at the same address.
        assert jvm2.vm.access.klass_pointer(p2.address) == klass_addr_before
        # One user class + its implicit Object superclass.
        assert report.klasses_reinitialized >= 2

    def test_load_without_predefined_classes(self, heap_dir):
        """Objects are usable even if the program never redefines the class."""
        jvm = Espresso(heap_dir)
        person = define_person(jvm)
        jvm.create_heap("h", HEAP_BYTES)
        p = jvm.pnew(person)
        jvm.set_field(p, "id", 5)
        jvm.set_root("p", p)
        jvm.shutdown()

        jvm2 = Espresso(heap_dir)  # note: no define_person here
        jvm2.load_heap("h")
        p2 = jvm2.get_root("p")
        assert jvm2.get_field(p2, "id") == 5
        assert jvm2.vm.klass_of(p2).name == "Person"

    def test_graph_survives_restart(self, heap_dir):
        from tests.core.conftest import define_node, pnew_list, read_list
        jvm = Espresso(heap_dir)
        node = define_node(jvm)
        jvm.create_heap("h", HEAP_BYTES)
        head = pnew_list(jvm, node, list(range(50)))
        jvm.set_root("head", head)
        jvm.shutdown()

        jvm2 = Espresso(heap_dir)
        jvm2.load_heap("h")
        assert read_list(jvm2, jvm2.get_root("head")) == list(range(50))

    def test_unload_and_reload_same_vm(self, mounted):
        person = define_person(mounted)
        p = mounted.pnew(person)
        mounted.set_field(p, "id", 3)
        mounted.set_root("p", p)
        mounted.heaps.unload_heap("test")
        assert "test" not in mounted.heaps.mounted_names()
        mounted.load_heap("test")
        assert mounted.get_field(mounted.get_root("p"), "id") == 3


class TestRemap:
    def test_remap_when_hint_occupied(self, heap_dir):
        from tests.core.conftest import define_node, pnew_list, read_list
        jvm = Espresso(heap_dir)
        node = define_node(jvm)
        jvm.create_heap("first", HEAP_BYTES)
        head = pnew_list(jvm, node, [1, 2, 3, 4, 5])
        arr = jvm.pnew_array(node, 2)
        jvm.array_set(arr, 0, head)
        jvm.set_root("head", head)
        jvm.set_root("arr", arr)
        jvm.shutdown()

        # A fresh VM where another heap occupies the hint address.
        jvm2 = Espresso(heap_dir)
        jvm2.create_heap("squatter", HEAP_BYTES)  # lands on first's hint
        _heap, report = jvm2.heaps.load_heap_with_report("first")
        assert report.remapped
        head2 = jvm2.get_root("head")
        assert read_list(jvm2, head2) == [1, 2, 3, 4, 5]
        arr2 = jvm2.get_root("arr")
        assert jvm2.array_get(arr2, 0).same_object(head2)
        # And the new hint persists: a third VM reloads without remapping.
        jvm2.shutdown()
        jvm3 = Espresso(heap_dir)
        _heap3, report3 = jvm3.heaps.load_heap_with_report("first")
        assert not report3.remapped
        assert read_list(jvm3, jvm3.get_root("head")) == [1, 2, 3, 4, 5]

    @staticmethod
    def _load(heap_dir, squat: bool):
        """Load 'first' in a fresh VM, with its hint occupied if *squat*."""
        from tests.core.conftest import define_node
        jvm = Espresso(heap_dir, config=EspressoConfig(alloc_buffer_words=64))
        define_node(jvm)
        if squat:
            jvm.create_heap("squatter", HEAP_BYTES)  # lands on first's hint
        heap, report = jvm.heaps.load_heap_with_report("first")
        assert report.remapped == squat
        return jvm, heap, report

    def test_remap_settles_a_crashed_buffer_claim(self, heap_dir, tmp_path):
        from tests.core.conftest import define_node, pnew_list, read_list
        jvm = Espresso(heap_dir, config=EspressoConfig(alloc_buffer_words=64))
        node = define_node(jvm)
        jvm.create_heap("first", HEAP_BYTES)
        head = pnew_list(jvm, node, [1, 2, 3, 4])
        jvm.flush_reachable(head)
        jvm.set_root("head", head)
        assert jvm.heaps.heap("first").metadata.alloc_buffer_entries()
        jvm.crash()  # the buffer's claim and unused tail stay durable
        in_place_dir = tmp_path / "in-place"
        shutil.copytree(heap_dir, in_place_dir)

        loads = [self._load(heap_dir, squat=True),
                 self._load(in_place_dir, squat=False)]
        assert loads[0][2].truncated_words == loads[1][2].truncated_words > 0
        for jvm, heap, _report in loads:
            assert read_list(jvm, jvm.get_root("head")) == [1, 2, 3, 4]
            assert fsck_heap(heap).clean

    def test_remap_moves_the_scan_hint(self, heap_dir, tmp_path):
        from tests.core.conftest import define_node, pnew_list
        jvm = Espresso(heap_dir, config=EspressoConfig(alloc_buffer_words=64))
        node = define_node(jvm)
        jvm.create_heap("first", HEAP_BYTES)
        jvm.set_root("head", pnew_list(jvm, node, list(range(200))))
        jvm.shutdown()
        in_place_dir = tmp_path / "in-place"
        shutil.copytree(heap_dir, in_place_dir)

        load_ns = []
        for where, squat in ((heap_dir, True), (in_place_dir, False)):
            self._load(where, squat)[0].shutdown()
            _jvm, heap, report = self._load(where, squat=False)
            space = heap.data_space
            assert space.base <= heap.metadata.alloc_scan_hint <= space.top
            load_ns.append(report.load_ns)
        # The scan hint keeps a reload O(#Klasses): no data-heap parse.
        assert load_ns[0] == load_ns[1]

    def test_remap_refuses_an_unknown_klass_word(self, heap_dir):
        from tests.core.conftest import define_node, pnew_list
        jvm = Espresso(heap_dir)
        node = define_node(jvm)
        heap = jvm.heaps.create_heap("first", HEAP_BYTES)
        jvm.set_root("head", pnew_list(jvm, node, [1, 2, 3]))
        last = list(heap.walk())[-1]
        jvm.shutdown()
        image = jvm.heaps.names.load_image("first")
        image[last - heap.base_address + layout.KLASS_WORD_OFFSET] = 0xDEAD
        jvm.heaps.names.save_image("first", image)

        squatted = Espresso(heap_dir)
        define_node(squatted)
        squatted.create_heap("squatter", HEAP_BYTES)
        with pytest.raises(CorruptHeapError) as failure:
            squatted.heaps.load_heap_with_report("first")
        assert failure.value.region == "remap"

    def test_recovery_pending_with_hint_occupied_is_refused(self, heap_dir):
        from tests.core.conftest import define_node, pnew_list, read_list
        jvm = Espresso(heap_dir)
        node = define_node(jvm)
        jvm.create_heap("first", HEAP_BYTES, region_words=128)
        for _ in range(64):
            jvm.pnew(node).close()  # garbage for the compactor to move over
        head = pnew_list(jvm, node, [1, 2, 3])
        jvm.flush_reachable(head)
        jvm.set_root("head", head)
        jvm.vm.failpoints.crash_on_hit("gc.compact.region_done", 1)
        with pytest.raises(SimulatedCrash):
            jvm.persistent_gc()
        jvm.crash()

        squatted = Espresso(heap_dir)
        define_node(squatted)
        squatted.create_heap("squatter", HEAP_BYTES)
        with pytest.raises(IllegalStateException, match="needs recovery"):
            squatted.heaps.load_heap_with_report("first")

        fresh = Espresso(heap_dir)
        define_node(fresh)
        heap, report = fresh.heaps.load_heap_with_report("first")
        assert report.recovery.performed and not report.remapped
        assert read_list(fresh, fresh.get_root("head")) == [1, 2, 3]
        assert fsck_heap(heap).clean

    def test_no_remap_when_hint_free(self, heap_dir):
        jvm = Espresso(heap_dir)
        jvm.create_heap("h", HEAP_BYTES)
        jvm.shutdown()
        jvm2 = Espresso(heap_dir)
        _heap, report = jvm2.heaps.load_heap_with_report("h")
        assert not report.remapped
