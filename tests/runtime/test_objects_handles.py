"""Unit tests for handles, heap access helpers and value encodings."""

import gc as pygc

import pytest

from repro.errors import NullPointerException
from repro.runtime.klass import FieldKind, field
from repro.runtime.objects import (
    HandleTable,
    ObjectHandle,
    bits_to_float,
    float_to_bits,
)
from repro.runtime.vm import EspressoVM


class TestFloatBits:
    @pytest.mark.parametrize("value", [0.0, -0.0, 1.5, -1.5, 1e308, 1e-308,
                                       float("inf"), float("-inf")])
    def test_roundtrip(self, value):
        assert bits_to_float(float_to_bits(value)) == value

    def test_nan_roundtrip(self):
        result = bits_to_float(float_to_bits(float("nan")))
        assert result != result  # NaN

    def test_bits_are_signed_words(self):
        assert float_to_bits(-0.0) < 0  # sign bit set


class TestHandleTable:
    def test_create_and_read(self):
        table = HandleTable()
        index = table.create(0x100)
        assert table.address(index) == 0x100

    def test_update(self):
        table = HandleTable()
        index = table.create(0x100)
        table.update(index, 0x200)
        assert table.address(index) == 0x200

    def test_release_recycles_slots(self):
        table = HandleTable()
        a = table.create(1)
        table.release(a)
        b = table.create(2)
        assert b == a  # slot reused
        assert len(table) == 1

    def test_live_indices_skip_released(self):
        table = HandleTable()
        a = table.create(1)
        b = table.create(2)
        table.release(a)
        assert list(table.live_indices()) == [b]

    def test_handle_auto_release_on_gc(self):
        table = HandleTable()
        handle = ObjectHandle(table, 0x10)
        index = handle._index
        del handle
        pygc.collect()
        assert index in {i for i in table._free}

    def test_null_handle_rejected(self):
        with pytest.raises(NullPointerException):
            ObjectHandle(HandleTable(), 0)


class TestHeapAccessTraversal:
    @pytest.fixture
    def vm(self):
        return EspressoVM()

    def test_ref_slots_of_instance(self, vm):
        klass = vm.define_class("Mix", [field("a", FieldKind.INT),
                                        field("r1", FieldKind.REF),
                                        field("b", FieldKind.FLOAT),
                                        field("r2", FieldKind.REF)])
        obj = vm.new(klass)
        slots = list(vm.access.ref_slot_addresses(obj.address))
        assert len(slots) == 2
        offsets = [s - obj.address for s in slots]
        assert offsets == [klass.field_offset("r1"), klass.field_offset("r2")]

    def test_ref_slots_of_primitive_array_empty(self, vm):
        arr = vm.new_array(FieldKind.INT, 5)
        assert list(vm.access.ref_slot_addresses(arr.address)) == []

    def test_ref_slots_of_object_array(self, vm):
        arr = vm.new_array(vm.object_klass, 3)
        assert len(list(vm.access.ref_slot_addresses(arr.address))) == 3

    def test_object_words(self, vm):
        klass = vm.define_class("Two", [field("a", FieldKind.INT),
                                        field("b", FieldKind.INT)])
        obj = vm.new(klass)
        assert vm.access.object_words(obj.address) == 4  # header + 2
        arr = vm.new_array(FieldKind.INT, 7)
        assert vm.access.object_words(arr.address) == 10  # hdr + len + 7

    def test_null_dereference_raises(self, vm):
        with pytest.raises(NullPointerException):
            vm.access.klass_of(0)
