"""Write-barrier / remembered-set unit tests, and System.arraycopy."""

import pytest

from repro.api import Espresso
from repro.errors import IllegalArgumentException
from repro.runtime.dram_heap import HeapConfig
from repro.runtime.klass import FieldKind, field
from repro.runtime.vm import EspressoVM


class TestRemsets:
    @pytest.fixture
    def jvm(self, tmp_path):
        vm = Espresso(tmp_path / "h")
        vm.create_heap("b", 512 * 1024)
        return vm

    def test_old_to_young_store_registers(self, jvm):
        vm = jvm.vm
        node = jvm.define_class("BNode", [field("ref", FieldKind.REF)])
        holder = jvm.new(node)
        vm.young_gc()
        vm.young_gc()  # promote holder to old
        assert vm.heap.old.contains(holder.address)
        young = jvm.new(node)
        before = len(vm._remset_into_young)
        jvm.set_field(holder, "ref", young)
        assert len(vm._remset_into_young) == before + 1

    def test_young_to_young_store_not_registered(self, jvm):
        vm = jvm.vm
        node = jvm.define_class("BNode2", [field("ref", FieldKind.REF)])
        a = jvm.new(node)
        b = jvm.new(node)
        before = len(vm._remset_into_young)
        jvm.set_field(a, "ref", b)
        assert len(vm._remset_into_young) == before

    def test_dram_to_pjh_store_registers(self, jvm):
        vm = jvm.vm
        node = jvm.define_class("BNode3", [field("ref", FieldKind.REF)])
        holder = jvm.new(node)
        target = jvm.pnew(node)
        before = len(vm._remset_dram_to_pjh)
        jvm.set_field(holder, "ref", target)
        assert len(vm._remset_dram_to_pjh) == before + 1

    def test_pjh_to_dram_store_registers(self, jvm):
        vm = jvm.vm
        node = jvm.define_class("BNode4", [field("ref", FieldKind.REF)])
        holder = jvm.pnew(node)
        target = jvm.new(node)
        before = len(vm._remset_pjh_to_dram)
        jvm.set_field(holder, "ref", target)
        assert len(vm._remset_pjh_to_dram) == before + 1

    def test_null_store_not_registered(self, jvm):
        vm = jvm.vm
        node = jvm.define_class("BNode5", [field("ref", FieldKind.REF)])
        holder = jvm.pnew(node)
        before = len(vm._remset_pjh_to_dram)
        jvm.set_field(holder, "ref", None)
        assert len(vm._remset_pjh_to_dram) == before

    def test_remset_pruned_after_full_gc(self, jvm):
        vm = jvm.vm
        node = jvm.define_class("BNode6", [field("ref", FieldKind.REF)])
        holder = jvm.new(node)
        target = jvm.pnew(node)
        jvm.set_field(holder, "ref", target)
        vm.full_gc()
        # Slots rebuilt against the compacted old space, still valid:
        assert all(vm.heap.in_heap(s) for s in vm._remset_dram_to_pjh)
        fetched = jvm.get_field(holder, "ref")
        assert fetched.same_object(target)

    def test_every_ref_store_runs_the_barrier(self, jvm):
        """set_field, array_set and an n-element array_copy run the barrier
        1, 1 and n times, even on a persist-only class the closure
        analysis classifies closed."""
        from repro.analysis.closure import analyze_vm
        vm = jvm.vm
        node = jvm.define_class(
            "BNode6", [field("ref", FieldKind.REF, declared="BNode6")])
        nodes = vm.array_klass(node)
        report = analyze_vm(vm, persist_only={"BNode6", nodes.name})
        assert {("BNode6", "ref"), (nodes.name, "[]")} \
            <= set(report.certified_fields)
        holder, target = jvm.pnew(node), jvm.pnew(node)
        src, dst = jvm.pnew_array(node, 5), jvm.pnew_array(node, 5)
        before = vm.barrier_checks
        jvm.set_field(holder, "ref", target)
        assert vm.barrier_checks == before + 1
        jvm.array_set(src, 0, target)
        assert vm.barrier_checks == before + 2
        vm.array_copy(src, 0, dst, 0, 5)
        assert vm.barrier_checks == before + 7
        assert vm.barrier_elided == 0

class TestArrayCopy:
    @pytest.fixture
    def vm(self):
        return EspressoVM()

    def test_int_copy(self, vm):
        src = vm.new_array(FieldKind.INT, 6)
        dst = vm.new_array(FieldKind.INT, 6)
        for i in range(6):
            vm.array_set(src, i, i + 1)
        vm.array_copy(src, 1, dst, 3, 3)
        assert [vm.array_get(dst, i) for i in range(6)] == [0, 0, 0, 2, 3, 4]

    def test_overlapping_copy_is_memmove(self, vm):
        arr = vm.new_array(FieldKind.INT, 6)
        for i in range(6):
            vm.array_set(arr, i, i)
        vm.array_copy(arr, 0, arr, 2, 4)
        assert [vm.array_get(arr, i) for i in range(6)] == [0, 1, 0, 1, 2, 3]

    def test_ref_copy_updates_barriers(self, tmp_path):
        jvm = Espresso(tmp_path / "h")
        jvm.create_heap("b", 256 * 1024)
        vm = jvm.vm
        node = jvm.define_class("CNode", [field("v", FieldKind.INT)])
        volatile_obj = jvm.new(node)
        src = jvm.new_array(vm.object_klass, 2)
        jvm.array_set(src, 0, volatile_obj)
        dst = jvm.pnew_array(vm.object_klass, 2)  # persistent destination
        before = len(vm._remset_pjh_to_dram)
        vm.array_copy(src, 0, dst, 0, 2)
        assert len(vm._remset_pjh_to_dram) == before + 1  # the non-null ref

    def test_kind_mismatch_rejected(self, vm):
        src = vm.new_array(FieldKind.INT, 2)
        dst = vm.new_array(vm.object_klass, 2)
        with pytest.raises(IllegalArgumentException):
            vm.array_copy(src, 0, dst, 0, 1)

    def test_bounds_checked(self, vm):
        from repro.errors import ArrayIndexOutOfBoundsException
        src = vm.new_array(FieldKind.INT, 3)
        dst = vm.new_array(FieldKind.INT, 3)
        with pytest.raises(ArrayIndexOutOfBoundsException):
            vm.array_copy(src, 1, dst, 0, 3)

    def test_zero_length_noop(self, vm):
        src = vm.new_array(FieldKind.INT, 1)
        dst = vm.new_array(FieldKind.INT, 1)
        vm.array_copy(src, 0, dst, 0, 0)

    def test_non_array_rejected(self, vm):
        klass = vm.define_class("NotArray")
        obj = vm.new(klass)
        arr = vm.new_array(FieldKind.INT, 1)
        with pytest.raises(IllegalArgumentException):
            vm.array_copy(obj, 0, arr, 0, 1)
