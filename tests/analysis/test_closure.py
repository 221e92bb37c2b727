"""Persistent-closure analysis: field classification."""

import pytest

from repro.analysis.closure import (
    ARRAY_FIELD,
    analyze_closure,
    analyze_vm,
)
from repro.api import Espresso
from repro.runtime.klass import (
    FieldKind,
    Klass,
    STRING_KLASS_NAME,
    field,
)


def classification_of(report, class_name, field_name):
    for f in report.fields:
        if f.class_name == class_name and f.field_name == field_name:
            return f
    raise AssertionError(f"no classification for {class_name}.{field_name}")


class TestClassification:
    def test_escaping_field_flagged_esp101(self):
        """Seeded escaping graph: declared type with no persistable subtype."""
        volatile = Klass("Volatile")
        holder = Klass("P", [field("v", FieldKind.REF, declared="Volatile")])
        report = analyze_closure([volatile, holder],
                                 persistable={"P"}, persist_only={"P"})
        f = classification_of(report, "P", "v")
        assert f.classification == "escaping"
        codes = [d.code for d in report.diagnostics()]
        assert codes == ["ESP101"]
        assert report.diagnostics()[0].where == "P.v"

    def test_closed_field_certified(self):
        target = Klass("Q")
        holder = Klass("P", [field("q", FieldKind.REF, declared="Q")])
        report = analyze_closure([target, holder],
                                 persist_only={"P", "Q"})
        f = classification_of(report, "P", "q")
        assert f.classification == "closed"
        assert ("P", "q") in report.certified_fields
        assert report.diagnostics() == []  # ESP101-free by default

    def test_subclass_outside_persist_only_opens_field(self):
        """cone(Q) = {Q, R}; R can be DRAM-allocated, so the field stays
        open (a store of an R instance could be volatile)."""
        target = Klass("Q")
        sub = Klass("R", super_klass=target)
        holder = Klass("P", [field("q", FieldKind.REF, declared="Q")])
        report = analyze_closure([target, sub, holder],
                                 persist_only={"P", "Q"})
        f = classification_of(report, "P", "q")
        assert f.classification == "open"
        assert "R" in f.reason
        assert ("P", "q") not in report.certified_fields

    def test_object_declared_field_is_open(self):
        holder = Klass("P", [field("any", FieldKind.REF)])
        report = analyze_closure([holder], persist_only={"P"})
        assert classification_of(report, "P", "any").classification == "open"

    def test_primitive_array_field_is_closed(self):
        """[J holds no pointers; its cone is a leaf."""
        holder = Klass("P", [field("data", FieldKind.REF, declared="[J")])
        report = analyze_closure([holder], persist_only={"P"})
        assert classification_of(report, "P", "data").classification \
            == "closed"

    def test_ref_array_covariance_widens_cone(self):
        """A [LQ; field must consider [LR; for every subclass R."""
        target = Klass("Q")
        sub = Klass("R", super_klass=target)
        holder = Klass("P", [field("qs", FieldKind.REF, declared="[LQ;")])
        report = analyze_closure([target, sub, holder],
                                 persist_only={"P", "Q", "R"})
        f = classification_of(report, "P", "qs")
        assert "[LR;" in f.cone
        assert f.classification == "closed"

    def test_array_klass_element_pseudo_field(self):
        target = Klass("Q")
        array = Klass("[LQ;", is_array=True, element_kind=FieldKind.REF,
                      element_klass=target)
        report = analyze_closure([target, array],
                                 persist_only={"Q", "[LQ;"})
        f = classification_of(report, "[LQ;", ARRAY_FIELD)
        assert f.classification == "closed"

    def test_certificate_skips_closed_field_of_open_holder(self):
        """A certified field needs its holder persist-only too: a DRAM
        holder's stores never reach persistent memory, but a mixed holder
        cone cannot be keyed by class name alone."""
        target = Klass("Q")
        holder = Klass("P", [field("q", FieldKind.REF, declared="Q")])
        report = analyze_closure([target, holder], persistable={"P", "Q"},
                                 persist_only={"Q"})
        assert classification_of(report, "P", "q").classification == "closed"
        assert ("P", "q") not in report.certified_fields


class TestLiveSession:
    def test_analyze_vm_classifies_declared_string(self, tmp_path):
        jvm = Espresso(tmp_path)
        jvm.define_class("Person", [
            field("id", FieldKind.INT),
            field("name", FieldKind.REF, declared=STRING_KLASS_NAME)])
        report = analyze_vm(jvm.vm, persist_only={
            "Person", STRING_KLASS_NAME, "[J"})
        assert classification_of(report, "Person", "name").classification \
            == "closed"
        # String.value ([J) rides along from the bootstrapped metaspace.
        assert classification_of(
            report, STRING_KLASS_NAME, "value").classification == "closed"

    def test_dbp_schema_closes_varchar_and_reference_columns(self, tmp_path):
        """BasicTest's db.* schema is closed (what `make analyze` proves)."""
        from repro.jpab import BASIC_TEST
        from repro.pjo.provider import PjoEntityManager
        jvm = Espresso(tmp_path)
        jvm.create_heap("jpab", 4 * 1024 * 1024)
        em = PjoEntityManager(jvm)
        em.create_schema(BASIC_TEST.entities)
        db_names = {name for name in jvm.vm.metaspace.names()
                    if name.startswith("db.")}
        report = analyze_vm(jvm.vm, persist_only=db_names | {
            STRING_KLASS_NAME, "[J"})
        assert ("db.BasicPerson", "first_name") in report.certified_fields
        assert len(report.certified_fields) >= 4
        assert [d for d in report.diagnostics() if d.code == "ESP101"] == []
