"""VM facade tests: allocation, field access, arrays, strings, typechecks."""

import pytest

from repro.errors import (
    ArrayIndexOutOfBoundsException,
    ClassCastException,
    IllegalArgumentException,
)
from repro.runtime.klass import FieldKind, field
from repro.runtime.vm import EspressoVM


@pytest.fixture
def vm():
    return EspressoVM()


@pytest.fixture
def person_klass(vm):
    return vm.define_class("Person", [field("id", FieldKind.INT),
                                      field("name", FieldKind.REF)])


class TestInstances:
    def test_new_and_field_roundtrip(self, vm, person_klass):
        p = vm.new(person_klass)
        vm.set_field(p, "id", 42)
        assert vm.get_field(p, "id") == 42

    def test_fields_default_to_zero_null(self, vm, person_klass):
        p = vm.new(person_klass)
        assert vm.get_field(p, "id") == 0
        assert vm.get_field(p, "name") is None

    def test_reference_field(self, vm, person_klass):
        p = vm.new(person_klass)
        name = vm.new_string("alice")
        vm.set_field(p, "name", name)
        fetched = vm.get_field(p, "name")
        assert fetched.same_object(name)
        assert vm.read_string(fetched) == "alice"

    def test_null_store(self, vm, person_klass):
        p = vm.new(person_klass)
        vm.set_field(p, "name", vm.new_string("x"))
        vm.set_field(p, "name", None)
        assert vm.get_field(p, "name") is None

    def test_new_by_name(self, vm, person_klass):
        p = vm.new("Person")
        assert vm.klass_of(p) is person_klass

    def test_type_mismatch_rejected(self, vm, person_klass):
        p = vm.new(person_klass)
        with pytest.raises(IllegalArgumentException):
            vm.set_field(p, "id", "not an int")
        with pytest.raises(IllegalArgumentException):
            vm.set_field(p, "name", 42)

    def test_negative_int_field(self, vm, person_klass):
        p = vm.new(person_klass)
        vm.set_field(p, "id", -7)
        assert vm.get_field(p, "id") == -7

    def test_int64_wraparound(self, vm, person_klass):
        p = vm.new(person_klass)
        vm.set_field(p, "id", 2**63)  # wraps to most negative value
        assert vm.get_field(p, "id") == -(2**63)


class TestFloats:
    def test_float_field_roundtrip(self, vm):
        k = vm.define_class("Point", [field("x", FieldKind.FLOAT)])
        p = vm.new(k)
        vm.set_field(p, "x", 3.25)
        assert vm.get_field(p, "x") == 3.25

    def test_float_array(self, vm):
        arr = vm.new_array(FieldKind.FLOAT, 3)
        vm.array_set(arr, 0, -1.5)
        assert vm.array_get(arr, 0) == -1.5


class TestArrays:
    def test_int_array(self, vm):
        arr = vm.new_array(FieldKind.INT, 5)
        assert vm.array_length(arr) == 5
        vm.array_set(arr, 4, 99)
        assert vm.array_get(arr, 4) == 99
        assert vm.array_get(arr, 0) == 0

    def test_bounds_check(self, vm):
        arr = vm.new_array(FieldKind.INT, 3)
        with pytest.raises(ArrayIndexOutOfBoundsException):
            vm.array_get(arr, 3)
        with pytest.raises(ArrayIndexOutOfBoundsException):
            vm.array_set(arr, -1, 0)

    def test_ref_array(self, vm, person_klass):
        p = vm.new(person_klass)
        arr = vm.new_array(person_klass, 2)
        vm.array_set(arr, 0, p)
        assert vm.array_get(arr, 0).same_object(p)
        assert vm.array_get(arr, 1) is None

    def test_array_ops_on_instance_rejected(self, vm, person_klass):
        p = vm.new(person_klass)
        with pytest.raises(IllegalArgumentException):
            vm.array_get(p, 0)


class TestStrings:
    def test_string_roundtrip(self, vm):
        s = vm.new_string("hello world")
        assert vm.read_string(s) == "hello world"

    def test_empty_string(self, vm):
        assert vm.read_string(vm.new_string("")) == ""

    def test_unicode(self, vm):
        assert vm.read_string(vm.new_string("café ☕")) == "café ☕"

    @pytest.mark.parametrize("text, java_hash_code", [
        ("", 0),
        ("a", 97),
        ("hello", 99162322),
        ("hello world", 1794106052),
        ("polygenelubricants", -(1 << 31)),   # wraps to Integer.MIN_VALUE
    ])
    def test_hash_word_is_java_hash_code(self, vm, text, java_hash_code):
        """Never Python's per-process ``hash(str)``: the word is durable."""
        assert vm.get_field(vm.new_string(text), "hash") == java_hash_code


class TestTypeChecks:
    def test_instance_of_self(self, vm, person_klass):
        p = vm.new(person_klass)
        assert vm.instance_of(p, person_klass)

    def test_instance_of_super(self, vm):
        base = vm.define_class("Base")
        derived = vm.define_class("Derived", super_klass=base)
        d = vm.new(derived)
        assert vm.instance_of(d, base)
        assert not vm.instance_of(vm.new(base), derived)

    def test_checkcast_failure(self, vm, person_klass):
        other = vm.define_class("Other")
        with pytest.raises(ClassCastException):
            vm.checkcast(vm.new(other), person_klass)

    def test_checkcast_success_returns_handle(self, vm, person_klass):
        p = vm.new(person_klass)
        assert vm.checkcast(p, "Person") is p

    def test_everything_is_object(self, vm, person_klass):
        p = vm.new(person_klass)
        assert vm.instance_of(p, "java.lang.Object")
