"""Unit tests for the simulated clock."""

import pytest

from repro.nvm.clock import ChargeMeter, Clock


def test_charge_advances_time():
    clock = Clock()
    clock.charge(10.0)
    clock.charge(5.0)
    assert clock.now_ns == 15.0


def test_negative_charge_rejected():
    clock = Clock()
    with pytest.raises(ValueError):
        clock.charge(-1.0)


def test_default_category_is_other():
    clock = Clock()
    clock.charge(7.0)
    assert clock.breakdown() == {"other": 7.0}


def test_scope_attribution():
    clock = Clock()
    with clock.scope("transformation"):
        clock.charge(100.0)
        with clock.scope("database"):
            clock.charge(30.0)
        clock.charge(1.0)
    clock.charge(2.0)
    assert clock.breakdown() == {
        "transformation": 101.0,
        "database": 30.0,
        "other": 2.0,
    }


def test_explicit_category_overrides_scope():
    clock = Clock()
    with clock.scope("gc"):
        clock.charge(5.0, category="metadata")
    assert clock.breakdown() == {"metadata": 5.0}


def test_breakdown_since_reports_deltas_only():
    clock = Clock()
    with clock.scope("a"):
        clock.charge(10.0)
    snap = clock.breakdown()
    with clock.scope("a"):
        clock.charge(4.0)
    with clock.scope("b"):
        clock.charge(6.0)
    assert clock.breakdown_since(snap) == {"a": 4.0, "b": 6.0}


def test_reset():
    clock = Clock()
    with clock.scope("x"):
        clock.charge(1.0)
    clock.reset()
    assert clock.now_ns == 0.0
    assert clock.breakdown() == {}
    assert clock.current_category == "other"


def test_scope_restored_after_exception():
    clock = Clock()
    with pytest.raises(RuntimeError):
        with clock.scope("boom"):
            raise RuntimeError
    assert clock.current_category == "other"


def test_divert_restored_after_exception():
    clock = Clock()
    meter = ChargeMeter()
    with pytest.raises(RuntimeError):
        with clock.scope("gc"):
            with clock.divert(meter):
                clock.charge(4.0)
                raise RuntimeError
    assert not clock.diverted
    assert clock.current_category == "other"
    assert meter.ns == 4.0 and clock.now_ns == 0.0


def test_scope_reentered_under_itself():
    """pcj/h2 enter "metadata" while already inside "metadata"; each exit
    must pop exactly one level, whichever object scope() hands back."""
    clock = Clock()
    with clock.scope("metadata"):
        with clock.scope("data"):
            with clock.scope("metadata"):
                with clock.scope("metadata"):
                    clock.charge(1.0)
                assert clock.current_category == "metadata"
                clock.charge(2.0)
            assert clock.current_category == "data"
            clock.charge(4.0)
        assert clock.current_category == "metadata"
        clock.charge(8.0)
    assert clock.current_category == "other"
    assert clock.breakdown() == {"metadata": 11.0, "data": 4.0}


def test_scope_object_is_reusable_and_lazy():
    clock = Clock()
    manager = clock.scope("gc")
    assert clock.current_category == "other"      # nothing until entered
    for _ in range(2):
        with manager:
            with manager:
                assert clock.current_category == "gc"
        assert clock.current_category == "other"


def test_reentrant_exception_unwinds_one_level_at_a_time():
    clock = Clock()
    with clock.scope("gc"):
        with pytest.raises(RuntimeError):
            with clock.scope("gc"):
                raise RuntimeError
        assert clock.current_category == "gc"
        clock.charge(5.0)
    assert clock.breakdown() == {"gc": 5.0}


def test_divert_nests_and_same_meter_reenters():
    clock = Clock()
    outer, inner = ChargeMeter(), ChargeMeter()
    with clock.divert(outer) as bound:
        assert bound is outer
        clock.charge(1.0)
        with clock.divert(inner):
            clock.charge(2.0)
            with clock.divert(outer):
                clock.charge(4.0)
            clock.charge(8.0)
        clock.charge(16.0)
    assert (outer.ns, inner.ns) == (21.0, 10.0)
    assert clock.now_ns == 0.0 and not clock.diverted
