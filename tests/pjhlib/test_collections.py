"""Tests for the PJH-native collection library (Fig. 15's Espresso side)."""

import pytest

from repro.api import Espresso
from repro.errors import ArrayIndexOutOfBoundsException
from repro.pjhlib import (
    PjhArrayList,
    PjhHashmap,
    PjhLong,
    PjhLongArray,
    PjhString,
    PjhTransaction,
    PjhTuple,
)


@pytest.fixture
def ctx(tmp_path):
    jvm = Espresso(tmp_path / "heaps")
    jvm.create_heap("lib", 2 * 1024 * 1024)
    txn = PjhTransaction(jvm)
    return jvm, txn


class TestBoxed:
    def test_long(self, ctx):
        jvm, txn = ctx
        v = PjhLong(jvm, txn, 42)
        assert v.long_value() == 42
        v.set(-17)
        assert v.long_value() == -17

    def test_string(self, ctx):
        jvm, txn = ctx
        s = PjhString(jvm, txn, "espresso")
        assert s.str_value() == "espresso"


class TestLongArray:
    def test_roundtrip(self, ctx):
        jvm, txn = ctx
        arr = PjhLongArray(jvm, txn, 10)
        arr.set(3, 99)
        assert arr.get(3) == 99
        assert arr.length() == 10


class TestTuple:
    def test_roundtrip(self, ctx):
        jvm, txn = ctx
        t = PjhTuple(jvm, txn, 3)
        t.set(0, PjhLong(jvm, txn, 5))
        got = t.get(0)
        assert jvm.get_field(got, "value") == 5
        assert t.get(1) is None
        assert t.arity() == 3


class TestArrayList:
    def test_growth(self, ctx):
        jvm, txn = ctx
        lst = PjhArrayList(jvm, txn)
        for i in range(25):
            lst.add(PjhLong(jvm, txn, i))
        assert lst.size() == 25
        assert [jvm.get_field(lst.get(i), "value") for i in range(25)] \
            == list(range(25))

    def test_set(self, ctx):
        jvm, txn = ctx
        lst = PjhArrayList(jvm, txn)
        lst.add(PjhLong(jvm, txn, 1))
        lst.set(0, PjhLong(jvm, txn, 2))
        assert jvm.get_field(lst.get(0), "value") == 2

    def test_bounds(self, ctx):
        jvm, txn = ctx
        lst = PjhArrayList(jvm, txn)
        with pytest.raises(ArrayIndexOutOfBoundsException):
            lst.get(0)


class TestHashmap:
    def test_put_get_remove(self, ctx):
        jvm, txn = ctx
        m = PjhHashmap(jvm, txn)
        m.put(PjhLong(jvm, txn, 1), PjhLong(jvm, txn, 10))
        m.put(PjhLong(jvm, txn, 2), PjhLong(jvm, txn, 20))
        assert jvm.get_field(m.get(PjhLong(jvm, txn, 1)), "value") == 10
        assert m.remove(PjhLong(jvm, txn, 1))
        assert m.get(PjhLong(jvm, txn, 1)) is None
        assert m.size() == 1

    def test_string_keys(self, ctx):
        jvm, txn = ctx
        m = PjhHashmap(jvm, txn)
        m.put(PjhString(jvm, txn, "k"), PjhLong(jvm, txn, 5))
        assert jvm.get_field(m.get(PjhString(jvm, txn, "k")), "value") == 5

    def test_rehash(self, ctx):
        jvm, txn = ctx
        m = PjhHashmap(jvm, txn)
        for i in range(40):
            m.put(PjhLong(jvm, txn, i), PjhLong(jvm, txn, i + 100))
        for i in range(40):
            assert jvm.get_field(m.get(PjhLong(jvm, txn, i)), "value") \
                == i + 100


class TestAcidAndPersistence:
    def test_committed_update_survives_crash(self, tmp_path):
        jvm = Espresso(tmp_path / "h")
        jvm.create_heap("lib", 1024 * 1024)
        txn = PjhTransaction(jvm)
        v = PjhLong(jvm, txn, 1)
        v.set(2)
        jvm.set_root("v", v.h)
        jvm.crash()

        jvm2 = Espresso(tmp_path / "h")
        jvm2.load_heap("lib")
        assert jvm2.get_field(jvm2.get_root("v"), "value") == 2

    def test_torn_update_rolls_back_via_undo_log(self, tmp_path):
        jvm = Espresso(tmp_path / "h")
        jvm.create_heap("lib", 1024 * 1024)
        txn = PjhTransaction(jvm)
        v = PjhLong(jvm, txn, 1)
        jvm.set_root("v", v.h)
        jvm.set_root("txn_entries", txn._entries)
        jvm.set_root("txn_meta", txn._meta)
        # Tear an update: log + write + flush, but never commit.
        klass = jvm.vm.klass_of(v.h)
        slot = v.h.address + klass.field_offset("value")
        txn.begin()
        txn.log_slot(slot)
        jvm.set_field(v.h, "value", 99)
        jvm.flush_field(v.h, "value")
        jvm.crash()

        jvm2 = Espresso(tmp_path / "h")
        jvm2.load_heap("lib")
        txn2 = PjhTransaction.reattach(jvm2, jvm2.get_root("txn_entries"),
                                       jvm2.get_root("txn_meta"))
        assert txn2.recover()  # rolls the torn write back
        assert jvm2.get_field(jvm2.get_root("v"), "value") == 1

    def test_abort_restores(self, ctx):
        jvm, txn = ctx
        v = PjhLong(jvm, txn, 7)
        klass = jvm.vm.klass_of(v.h)
        slot = v.h.address + klass.field_offset("value")
        txn.begin()
        txn.log_slot(slot)
        jvm.set_field(v.h, "value", 8)
        txn.abort()
        assert v.long_value() == 7


class TestRehashDurability:
    """Rehash splices live entries, so it must be undo-logged + flushed.

    Regression: pre-fix, mutated ``next`` pointers were never flushed, so
    a crash *after* a rehash resurrected stale chain pointers and
    committed entries silently vanished (the fleet smoke found this with
    >12 entries per shard — the sweep's 8-entry workload never rehashed).
    """

    def test_entries_survive_crash_after_rehash(self, tmp_path):
        jvm = Espresso(tmp_path / "heaps")
        jvm.create_heap("lib", 2 * 1024 * 1024)
        txn = PjhTransaction(jvm)
        m = PjhHashmap(jvm, txn)
        jvm.set_root("table", m.h)
        jvm.set_root("txn_entries", txn._entries)
        jvm.set_root("txn_meta", txn._meta)
        count = 40                      # crosses two rehash thresholds
        for i in range(count):
            m.put(PjhLong(jvm, txn, i), PjhLong(jvm, txn, i * 3))
        jvm2 = jvm.restart(crash=True)  # unflushed lines are lost
        jvm2.load_heap("lib")
        txn2 = PjhTransaction.reattach(jvm2, jvm2.get_root("txn_entries"),
                                       jvm2.get_root("txn_meta"))
        assert not txn2.recover()       # nothing mid-flight to roll back
        m2 = PjhHashmap(jvm2, txn2, handle=jvm2.get_root("table"))
        assert m2.size() == count
        for i in range(count):
            assert jvm2.get_field(m2.get_raw(i), "value") == i * 3
