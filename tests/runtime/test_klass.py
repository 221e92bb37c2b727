"""Unit tests for Klass metadata and layout."""

import pytest

from repro.errors import IllegalArgumentException, NoSuchFieldException
from repro.runtime import layout
from repro.runtime.klass import (
    FieldKind,
    Klass,
    Residence,
    array_klass_name,
    field,
)


def make_person():
    return Klass("Person", [field("id", FieldKind.INT),
                            field("name", FieldKind.REF)])


class TestInstanceLayout:
    def test_instance_size_includes_header(self):
        person = make_person()
        assert person.instance_words == layout.HEADER_WORDS + 2

    def test_field_offsets_follow_header(self):
        person = make_person()
        assert person.field_offset("id") == layout.HEADER_WORDS
        assert person.field_offset("name") == layout.HEADER_WORDS + 1

    def test_unknown_field_raises(self):
        with pytest.raises(NoSuchFieldException):
            make_person().field_offset("nope")

    def test_ref_field_offsets(self):
        person = make_person()
        assert person.ref_field_offsets() == (layout.HEADER_WORDS + 1,)

    def test_duplicate_field_rejected(self):
        with pytest.raises(IllegalArgumentException):
            Klass("Bad", [field("x"), field("x")])

    def test_empty_class(self):
        assert Klass("Empty").instance_words == layout.HEADER_WORDS


class TestInheritance:
    def test_super_fields_come_first(self):
        base = Klass("Base", [field("a", FieldKind.INT)])
        derived = Klass("Derived", [field("b", FieldKind.INT)], super_klass=base)
        assert derived.field_offset("a") == layout.HEADER_WORDS
        assert derived.field_offset("b") == layout.HEADER_WORDS + 1

    def test_shadowing_rejected(self):
        base = Klass("Base", [field("a", FieldKind.INT)])
        with pytest.raises(IllegalArgumentException):
            Klass("Derived", [field("a", FieldKind.INT)], super_klass=base)

    def test_subclass_relation(self):
        from repro.runtime.typecheck import is_instance_of
        base = Klass("Base")
        mid = Klass("Mid", super_klass=base)
        leaf = Klass("Leaf", super_klass=mid)
        assert is_instance_of(leaf, base)
        assert is_instance_of(leaf, leaf)
        assert not is_instance_of(base, leaf)


class TestArrays:
    def test_array_size(self):
        arr = Klass("[J", is_array=True, element_kind=FieldKind.INT)
        assert arr.array_words(10) == layout.ARRAY_HEADER_WORDS + 10

    def test_negative_length_rejected(self):
        arr = Klass("[J", is_array=True, element_kind=FieldKind.INT)
        with pytest.raises(IllegalArgumentException):
            arr.array_words(-1)

    def test_instance_size_of_array_rejected(self):
        arr = Klass("[J", is_array=True, element_kind=FieldKind.INT)
        with pytest.raises(IllegalArgumentException):
            _ = arr.instance_words

    def test_array_klass_requires_element_kind(self):
        with pytest.raises(IllegalArgumentException):
            Klass("[X", is_array=True)

    def test_array_name_for_ref_elements(self):
        person = make_person()
        assert array_klass_name(person) == "[LPerson;"
        assert array_klass_name(FieldKind.INT) == "[J"
        assert array_klass_name(FieldKind.FLOAT) == "[D"


class TestAlias:
    def test_alias_linking(self):
        dram = Klass("Person", residence=Residence.DRAM)
        nvm = Klass("Person", residence=Residence.NVM)
        dram.link_alias(nvm)
        assert dram.is_alias_of(nvm)
        assert nvm.is_alias_of(dram)
        assert not dram.is_alias_of(dram)

    def test_alias_requires_same_name(self):
        a = Klass("A")
        b = Klass("B")
        with pytest.raises(IllegalArgumentException):
            a.link_alias(b)
