"""Cross-subsystem integration tests.

These exercise several layers at once: PJO entities under crash + restart,
DRAM-and-PJH GC interplay under memory pressure, multiple heaps, the
@persistent_type annotation flowing into type-based safety, and a mixed
application using both the fine-grained and coarse-grained models — the
"unified persistence" requirement of paper §2.3.
"""

import pytest

from repro.api import Espresso
from repro.core.safety import (SafetyLevel, is_marked_persistent,
                               persistent_type)
from repro.errors import SimulatedCrash, UnsafePointerError
from repro.jpab.model import BasicPerson
from repro.pjhlib import PjhHashmap, PjhLong, PjhTransaction
from repro.pjo import PjoEntityManager
from repro.runtime.dram_heap import HeapConfig
from repro.runtime.klass import FieldKind, field


class TestPjoCrashMidCommit:
    def test_torn_pjo_commit_rolls_back(self, tmp_path):
        """Crash in the middle of a PJO transaction: the backend undo log
        rolls the partial update back on reload."""
        heap_dir = tmp_path / "h"
        jvm = Espresso(heap_dir)
        jvm.create_heap("jpab", 8 * 1024 * 1024)
        em = PjoEntityManager(jvm)
        em.create_schema([BasicPerson])
        tx = em.get_transaction()
        tx.begin()
        em.persist(BasicPerson(1, "Ada", "L", "+44"))
        tx.commit()
        # Preserve the backend's undo log across the restart.
        jvm.set_root("txn_entries", em.backend.txn._entries)
        jvm.set_root("txn_meta", em.backend.txn._meta)

        # Tear an update: begin, modify one field, never commit.
        tx.begin()
        p = em.find(BasicPerson, 1)
        p.phone = "+99"
        em._flush()  # field shipped to the backend, tx left open
        jvm.crash()

        jvm2 = Espresso(heap_dir)
        jvm2.load_heap("jpab")
        txn = PjhTransaction.reattach(jvm2, jvm2.get_root("txn_entries"),
                                      jvm2.get_root("txn_meta"))
        assert txn.recover()  # rolls the torn field write back
        em2 = PjoEntityManager(jvm2)
        assert em2.find(BasicPerson, 1).phone == "+44"


class TestGcInterplay:
    def test_dram_pressure_with_live_pjh_references(self, tmp_path):
        """Heavy DRAM churn with PJH objects referencing DRAM and vice
        versa: both collectors must cooperate through the remembered sets."""
        jvm = Espresso(tmp_path / "h",
                       heap_config=HeapConfig(eden_words=1024,
                                              survivor_words=512,
                                              old_words=8192,
                                              region_words=512))
        node = jvm.define_class("N", [field("v", FieldKind.INT),
                                      field("ref", FieldKind.REF)])
        jvm.create_heap("x", 1024 * 1024)
        anchors = []
        for i in range(30):
            p = jvm.pnew(node)           # persistent holder
            d = jvm.new(node)            # volatile target
            jvm.set_field(d, "v", i)
            jvm.set_field(p, "ref", d)   # NVM -> DRAM pointer
            anchors.append(p)
            d.close()
        # Churn DRAM hard: many young + full collections.
        for _ in range(800):
            jvm.new(node).close()
        jvm.system_gc()
        for _ in range(400):
            jvm.new(node).close()
        # PJH GC moves the holders too.
        jvm.persistent_gc()
        for i, p in enumerate(anchors):
            assert jvm.get_field(jvm.get_field(p, "ref"), "v") == i

    def test_volatile_target_kept_alive_only_by_pjh(self, tmp_path):
        jvm = Espresso(tmp_path / "h")
        node = jvm.define_class("N2", [field("v", FieldKind.INT),
                                       field("ref", FieldKind.REF)])
        jvm.create_heap("x", 512 * 1024)
        holder = jvm.pnew(node)
        target = jvm.new(node)
        jvm.set_field(target, "v", 123)
        jvm.set_field(holder, "ref", target)
        target.close()  # only the NVM->DRAM pointer keeps it alive
        jvm.system_gc()
        jvm.system_gc()
        assert jvm.get_field(jvm.get_field(holder, "ref"), "v") == 123


class TestMultipleHeaps:
    def test_cross_heap_references(self, tmp_path):
        """Paper §3.3: users may create multiple PJH instances.  References
        across heaps behave like NVM->NVM pointers."""
        jvm = Espresso(tmp_path / "h")
        node = jvm.define_class("X", [field("v", FieldKind.INT),
                                      field("ref", FieldKind.REF)])
        jvm.create_heap("a", 256 * 1024)
        jvm.create_heap("b", 256 * 1024)
        in_a = jvm.pnew(node, heap="a")
        in_b = jvm.pnew(node, heap="b")
        jvm.set_field(in_b, "v", 7)
        jvm.set_field(in_a, "ref", in_b)
        jvm.flush_object(in_a)
        jvm.flush_object(in_b)
        jvm.set_root("a_root", in_a, heap="a")
        assert jvm.get_field(jvm.get_field(in_a, "ref"), "v") == 7
        # GC of heap a must not disturb the cross-heap pointer target.
        jvm.persistent_gc("a")
        assert jvm.get_field(jvm.get_field(jvm.get_root("a_root"), "ref"),
                             "v") == 7

    def test_heaps_unload_independently(self, tmp_path):
        jvm = Espresso(tmp_path / "h")
        jvm.create_heap("a", 256 * 1024)
        jvm.create_heap("b", 256 * 1024)
        jvm.heaps.unload_heap("a")
        assert jvm.heaps.mounted_names() == ["b"]
        jvm.load_heap("a")
        assert jvm.heaps.mounted_names() == ["a", "b"]


class TestPersistentTypeAnnotation:
    def test_annotation_feeds_type_based_safety(self, tmp_path):
        jvm = Espresso(tmp_path / "h")
        safe = jvm.define_class("SafeType", [field("v", FieldKind.INT)])
        unsafe = jvm.define_class("UnsafeType")
        jvm.persistent_type("SafeType")
        jvm.create_heap("t", 256 * 1024, safety=SafetyLevel.TYPE_BASED)
        obj = jvm.pnew(safe)  # annotated: allowed
        assert jvm.vm.in_pjh(obj.address)
        with pytest.raises(UnsafePointerError):
            jvm.pnew(unsafe)

    def test_annotations_are_per_session(self, tmp_path):
        """One session's @persistent_type never leaks into another."""
        a = Espresso(tmp_path / "a")
        b = Espresso(tmp_path / "b")
        for jvm in (a, b):
            jvm.define_class("SafeType", [field("v", FieldKind.INT)])
            jvm.create_heap("t", 256 * 1024, safety=SafetyLevel.TYPE_BASED)
        a.persistent_type("SafeType")
        assert a.vm.in_pjh(a.pnew("SafeType").address)
        with pytest.raises(UnsafePointerError):
            b.pnew("SafeType")

    def test_annotation_survives_restart(self, tmp_path):
        jvm = Espresso(tmp_path / "h")
        jvm.define_class("SafeType", [field("v", FieldKind.INT)])
        jvm.persistent_type("SafeType")
        jvm.create_heap("t", 256 * 1024, safety=SafetyLevel.TYPE_BASED)
        jvm2 = jvm.restart()
        jvm2.define_class("SafeType", [field("v", FieldKind.INT)])
        jvm2.load_heap("t", safety=SafetyLevel.TYPE_BASED)
        assert jvm2.vm.in_pjh(jvm2.pnew("SafeType").address)

    def test_decorator_form(self, tmp_path):
        @persistent_type
        class Decorated:
            pass
        assert is_marked_persistent(Decorated)

        jvm = Espresso(tmp_path / "h")
        jvm.persistent_type(Decorated)
        assert "Decorated" in jvm.config.persistent_types

    def test_string_form_requires_a_session(self):
        with pytest.raises(TypeError):
            persistent_type("Unbound")


class TestUnifiedPersistence:
    def test_fine_and_coarse_grained_in_one_app(self, tmp_path):
        """§2.3's requirement: one framework, both models, one heap."""
        heap_dir = tmp_path / "h"
        jvm = Espresso(heap_dir)
        jvm.create_heap("app", 8 * 1024 * 1024)
        # Coarse-grained: entities through the PJO EntityManager.
        em = PjoEntityManager(jvm)
        em.create_schema([BasicPerson])
        tx = em.get_transaction()
        tx.begin()
        em.persist(BasicPerson(1, "Ada", "L", "+44"))
        tx.commit()
        # Fine-grained: a PJH hashmap in the same heap.
        txn = PjhTransaction(jvm)
        counters = PjhHashmap(jvm, txn)
        counters.put(PjhLong(jvm, txn, 1), PjhLong(jvm, txn, 100))
        jvm.set_root("counters", counters.h)
        jvm.shutdown()

        jvm2 = Espresso(heap_dir)
        jvm2.load_heap("app")
        em2 = PjoEntityManager(jvm2)
        assert em2.find(BasicPerson, 1).first_name == "Ada"
        txn2 = PjhTransaction(jvm2)
        counters2 = PjhHashmap(jvm2, txn2, handle=jvm2.get_root("counters"))
        assert jvm2.get_field(counters2.get_raw(1), "value") == 100
