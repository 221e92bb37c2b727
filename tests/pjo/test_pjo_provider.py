"""PJO provider tests: JPA's API over PJH, plus the §5 optimisations."""

import gc

import pytest

from repro.api import Espresso
from repro.errors import SqlError
from repro.jpa import state_of
from repro.jpab.model import (
    ALL_ENTITIES,
    BasicPerson,
    CollectionPerson,
    ExtEmployee,
    ExtManager,
    ExtPerson,
    Node,
)
from repro.pjo import PjoEntityManager

HEAP_BYTES = 8 * 1024 * 1024


def make_em(heap_dir, **kwargs):
    jvm = Espresso(heap_dir)
    jvm.create_heap("jpab", HEAP_BYTES)
    em = PjoEntityManager(jvm, **kwargs)
    em.create_schema(ALL_ENTITIES)
    return em


@pytest.fixture
def em(tmp_path):
    return make_em(tmp_path / "heaps")


def persist_one(em, obj):
    tx = em.get_transaction()
    tx.begin()
    em.persist(obj)
    tx.commit()
    return obj


class TestApiCompatibility:
    """The same Figure 3 code runs unchanged against the PJO provider."""

    def test_figure3_workflow(self, em):
        tx = em.get_transaction()
        tx.begin()
        em.persist(BasicPerson(1, "Ada", "Lovelace", "+44"))
        tx.commit()
        em.clear()
        found = em.find(BasicPerson, 1)
        assert found.first_name == "Ada"
        assert found.phone == "+44"

    def test_find_missing(self, em):
        assert em.find(BasicPerson, 404) is None

    def test_update(self, em):
        persist_one(em, BasicPerson(1, "Ada", "L", "+44"))
        em.clear()
        tx = em.get_transaction()
        tx.begin()
        p = em.find(BasicPerson, 1)
        p.phone = "+1"
        tx.commit()
        em.clear()
        assert em.find(BasicPerson, 1).phone == "+1"

    def test_remove(self, em):
        persist_one(em, BasicPerson(1, "Ada", "L", "+44"))
        em.clear()
        tx = em.get_transaction()
        tx.begin()
        em.remove(em.find(BasicPerson, 1))
        tx.commit()
        em.clear()
        assert em.find(BasicPerson, 1) is None

    def test_duplicate_pk_rejected(self, em):
        persist_one(em, BasicPerson(1, "Ada", "L", "+44"))
        tx = em.get_transaction()
        tx.begin()
        em.persist(BasicPerson(1, "Bob", "B", "+1"))
        with pytest.raises(SqlError):
            tx.commit()

    def test_inheritance(self, em):
        persist_one(em, ExtPerson(1, "P", "Plain"))
        persist_one(em, ExtEmployee(2, "E", "Emp", 1234.5, "eng"))
        persist_one(em, ExtManager(3, "M", "Mgr", 9999.0, "mgmt", 500.0))
        em.clear()
        assert type(em.find(ExtPerson, 1)) is ExtPerson
        e = em.find(ExtPerson, 2)
        assert type(e) is ExtEmployee and e.salary == 1234.5
        m = em.find(ExtPerson, 3)
        assert type(m) is ExtManager and m.bonus == 500.0

    def test_collections(self, em):
        persist_one(em, CollectionPerson(1, "C", ["a", "b"]))
        em.clear()
        found = em.find(CollectionPerson, 1)
        assert found.phones == ["a", "b"]

    def test_collection_update(self, em):
        persist_one(em, CollectionPerson(1, "C", ["a"]))
        em.clear()
        tx = em.get_transaction()
        tx.begin()
        c = em.find(CollectionPerson, 1)
        c.phones = list(c.phones) + ["b"]
        tx.commit()
        em.clear()
        assert em.find(CollectionPerson, 1).phones == ["a", "b"]

    def test_references(self, em):
        tx = em.get_transaction()
        tx.begin()
        a = Node(1, "a")
        b = Node(2, "b", next=a)
        em.persist(b)
        tx.commit()
        em.clear()
        loaded = em.find(Node, 2)
        assert loaded.next.name == "a"

    def test_no_transformation_cost(self, em):
        """The whole point: the SQL transformation phase is removed."""
        persist_one(em, BasicPerson(1, "Ada", "L", "+44"))
        breakdown = em.clock.breakdown()
        assert breakdown.get("transformation", 0) == 0
        assert breakdown.get("database", 0) > 0


class TestDurability:
    def test_entities_survive_restart(self, tmp_path):
        heap_dir = tmp_path / "heaps"
        em = make_em(heap_dir)
        persist_one(em, BasicPerson(1, "Ada", "Lovelace", "+44"))
        persist_one(em, CollectionPerson(2, "C", ["x", "y"]))
        em.jvm.shutdown()

        jvm2 = Espresso(heap_dir)
        jvm2.load_heap("jpab")
        em2 = PjoEntityManager(jvm2)
        found = em2.find(BasicPerson, 1)
        assert found.last_name == "Lovelace"
        assert em2.find(CollectionPerson, 2).phones == ["x", "y"]

    def test_entities_survive_crash(self, tmp_path):
        heap_dir = tmp_path / "heaps"
        em = make_em(heap_dir)
        persist_one(em, BasicPerson(1, "Ada", "Lovelace", "+44"))
        em.jvm.crash()  # power loss, not graceful

        jvm2 = Espresso(heap_dir)
        jvm2.load_heap("jpab")
        em2 = PjoEntityManager(jvm2)
        found = em2.find(BasicPerson, 1)
        assert found is not None and found.first_name == "Ada"

    def test_references_survive_restart(self, tmp_path):
        heap_dir = tmp_path / "heaps"
        em = make_em(heap_dir)
        tx = em.get_transaction()
        tx.begin()
        em.persist(Node(2, "b", next=Node(1, "a")))
        tx.commit()
        em.jvm.shutdown()

        jvm2 = Espresso(heap_dir)
        jvm2.load_heap("jpab")
        em2 = PjoEntityManager(jvm2)
        assert em2.find(Node, 2).next.name == "a"


class TestOptimisations:
    def test_dedup_redirects_reads_to_persistent_copy(self, em):
        p = persist_one(em, BasicPerson(1, "Ada", "L", "+44"))
        state = state_of(p)
        assert "first_name" in state.deduplicated_fields
        # The volatile copy is gone; the read comes from PJH.
        assert "first_name" not in p.__dict__
        assert p.first_name == "Ada"

    def test_dedup_copy_on_write(self, em):
        p = persist_one(em, BasicPerson(1, "Ada", "L", "+44"))
        p.phone = "+99"  # shadow, non-persistent copy-on-write field
        state = state_of(p)
        assert "phone" not in state.deduplicated_fields
        assert p.phone == "+99"
        # Unmodified fields still read through.
        assert p.first_name == "Ada"

    def test_dedup_disabled(self, tmp_path):
        em = make_em(tmp_path / "heaps", deduplication=False)
        p = persist_one(em, BasicPerson(1, "Ada", "L", "+44"))
        assert "first_name" in p.__dict__

    def test_field_tracking_limits_writes(self, tmp_path):
        """With tracking, an update ships only the dirty field."""
        em_tracked = make_em(tmp_path / "a", field_tracking=True,
                             deduplication=False)
        em_full = make_em(tmp_path / "b", field_tracking=False,
                          deduplication=False)

        def update_cost(em):
            persist_one(em, BasicPerson(1, "Ada", "L", "+44"))
            em.clear()
            tx = em.get_transaction()
            tx.begin()
            p = em.find(BasicPerson, 1)
            start = em.clock.now_ns
            p.phone = "+1"
            tx.commit()
            return em.clock.now_ns - start

        assert update_cost(em_tracked) < update_cost(em_full)


class TestIdentityMapLifetime:
    """``_dbp_of`` is keyed on ``id(entity)``: an id must never be
    recycled by a new object while its old entry is still mapped."""

    def test_fresh_entities_after_clear_are_persisted(self, em):
        # CPython hands a freed entity's address to the next entity of
        # the same size, so each round's objects reuse the ids of the
        # previous round's.  A stale id -> handle entry made persist()
        # skip them as "already flushed via a cascade".
        for round_no in range(6):
            tx = em.get_transaction()
            tx.begin()
            batch = [BasicPerson(round_no * 10 + i, f"first{round_no}",
                                 "last", "+0") for i in range(8)]
            for person in batch:
                em.persist(person)
            tx.commit()
            em.clear()
            del batch, person
            gc.collect()
        em.clear()
        for pk in range(0, 60, 10):
            for i in range(8):
                found = em.find(BasicPerson, pk + i)
                assert found is not None, f"entity {pk + i} was not persisted"
                assert found.first_name == f"first{pk // 10}"

    def test_mapped_entity_is_kept_alive(self, em):
        persist_one(em, BasicPerson(1, "Ada", "L", "+44"))
        assert all(entity is not None and id(entity) == key
                   for key, (entity, _dbp) in em._dbp_of.items())
        em.clear()
        assert em._dbp_of == {}
