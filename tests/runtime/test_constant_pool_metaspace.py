"""Unit tests for constant pools, the metaspace, and alias-aware typecheck."""

import pytest

from repro.errors import (
    ClassCastException,
    HeapCorruptionError,
    IllegalArgumentException,
)
from repro.runtime.constant_pool import ConstantPool
from repro.runtime.klass import FieldKind, Klass, Residence, field
from repro.runtime.metaspace import KlassRegistry, Metaspace
from repro.runtime.typecheck import checkcast, is_instance_of


class TestConstantPool:
    def test_resolution_updates_slot(self):
        pool = ConstantPool()
        dram = Klass("P")
        nvm = Klass("P", residence=Residence.NVM)
        pool.resolve("P", dram)
        assert pool.resolved_slot("P") is dram
        pool.resolve("P", nvm)  # the Figure 10 flip
        assert pool.resolved_slot("P") is nvm

    def test_unresolved_symbol(self):
        assert ConstantPool().resolved_slot("Nope") is None

    def test_symbol_name_must_match(self):
        pool = ConstantPool()
        with pytest.raises(IllegalArgumentException):
            pool.resolve("A", Klass("B"))

    def test_clear(self):
        pool = ConstantPool()
        pool.resolve("P", Klass("P"))
        pool.clear()
        assert pool.resolved_slot("P") is None


class TestKlassRegistry:
    def test_register_resolve(self):
        registry = KlassRegistry()
        klass = Klass("X")
        registry.register(klass, 0x1000)
        assert registry.resolve(0x1000) is klass
        assert klass.address == 0x1000
        assert registry.find(0x1000) is klass
        assert registry.find(0x2000) is None

    def test_unknown_address(self):
        with pytest.raises(HeapCorruptionError):
            KlassRegistry().resolve(0x2000)

    def test_address_zero_reserved(self):
        with pytest.raises(IllegalArgumentException):
            KlassRegistry().register(Klass("X"), 0)

    def test_conflicting_registration(self):
        registry = KlassRegistry()
        registry.register(Klass("A"), 0x10)
        with pytest.raises(IllegalArgumentException):
            registry.register(Klass("B"), 0x10)

    def test_reregistering_same_klass_ok(self):
        registry = KlassRegistry()
        klass = Klass("A")
        registry.register(klass, 0x10)
        registry.register(klass, 0x10)  # idempotent


class TestMetaspace:
    def test_distinct_addresses(self):
        metaspace = Metaspace(KlassRegistry())
        a = metaspace.add(Klass("A"))
        b = metaspace.add(Klass("B"))
        assert a.address != b.address
        assert metaspace.lookup("A") is a
        assert metaspace.lookup("missing") is None

    def test_duplicate_name_rejected(self):
        metaspace = Metaspace(KlassRegistry())
        metaspace.add(Klass("A"))
        with pytest.raises(IllegalArgumentException):
            metaspace.add(Klass("A"))


class TestAliasAwareTypecheck:
    def make_pair(self):
        dram = Klass("P", [field("x", FieldKind.INT)])
        nvm = Klass("P", [field("x", FieldKind.INT)],
                    residence=Residence.NVM)
        dram.link_alias(nvm)
        return dram, nvm

    def test_alias_accepted_when_aware(self):
        dram, nvm = self.make_pair()
        assert is_instance_of(dram, nvm, alias_aware=True)
        checkcast(nvm, dram, alias_aware=True)  # no raise

    def test_alias_rejected_when_stock(self):
        dram, nvm = self.make_pair()
        assert not is_instance_of(dram, nvm, alias_aware=False)
        with pytest.raises(ClassCastException):
            checkcast(dram, nvm, alias_aware=False)

    def test_alias_through_superclass_chain(self):
        base_dram = Klass("Base")
        base_nvm = Klass("Base", residence=Residence.NVM)
        base_dram.link_alias(base_nvm)
        derived_nvm = Klass("Derived", super_klass=base_nvm,
                            residence=Residence.NVM)
        # NVM Derived -> NVM Base, alias of DRAM Base.
        assert is_instance_of(derived_nvm, base_dram)

    def test_unrelated_still_fails(self):
        dram, _ = self.make_pair()
        other = Klass("Other")
        assert not is_instance_of(other, dram)

    def test_ref_array_covariance(self):
        base = Klass("Base")
        derived = Klass("Derived", super_klass=base)
        arr_base = Klass("[LBase;", is_array=True,
                         element_kind=FieldKind.REF, element_klass=base)
        arr_derived = Klass("[LDerived;", is_array=True,
                            element_kind=FieldKind.REF, element_klass=derived)
        assert is_instance_of(arr_derived, arr_base)
        assert not is_instance_of(arr_base, arr_derived)
