"""Unit tests for the crash-injection registry."""

import pytest

from repro.errors import SimulatedCrash
from repro.nvm.failpoints import DOCUMENTED_SITES, FailpointRegistry


def test_unarmed_registry_counts_but_never_triggers():
    reg = FailpointRegistry()
    reg.hit("a")  # no trigger installed: counting is still on
    assert reg.count("a") == 1
    assert reg.sites() == ("a",)


def test_crash_on_nth_hit():
    reg = FailpointRegistry()
    reg.crash_on_hit("alloc", nth=3)
    reg.hit("alloc")
    reg.hit("alloc")
    with pytest.raises(SimulatedCrash):
        reg.hit("alloc")


def test_trigger_counts_from_install_not_from_birth():
    """Passive hits before arming must not shift the injection point."""
    reg = FailpointRegistry()
    reg.hit("alloc")
    reg.hit("alloc")
    reg.crash_on_hit("alloc", nth=2)
    reg.hit("alloc")  # 1st since install: no crash
    with pytest.raises(SimulatedCrash):
        reg.hit("alloc")  # 2nd since install


def test_other_sites_do_not_trigger():
    reg = FailpointRegistry()
    reg.crash_on_hit("alloc", nth=1)
    reg.hit("gc")
    reg.hit("gc")
    assert reg.count("gc") == 2


def test_global_hit_counts_all_sites():
    reg = FailpointRegistry()
    reg.crash_on_global_hit(3)
    reg.hit("a")
    reg.hit("b")
    with pytest.raises(SimulatedCrash):
        reg.hit("c")


def test_clear_disarms():
    reg = FailpointRegistry()
    reg.crash_on_hit("a", nth=1)
    reg.clear()
    reg.hit("a")  # no crash; counting restarts from zero
    assert reg.total_hits() == 1


def test_total_hits():
    reg = FailpointRegistry()
    reg.install(lambda site, count: None)
    reg.hit("a")
    reg.hit("b")
    reg.hit("a")
    assert reg.total_hits() == 3
    assert reg.count("a") == 2
    assert reg.sites() == ("a", "b")


def test_every_documented_site_fires_in_a_clean_gc_run(tmp_path):
    """Passive coverage audit: alloc + persistent GC touches every site."""
    from repro.api import Espresso
    from repro.runtime.klass import FieldKind, field

    jvm = Espresso(tmp_path / "h")
    node = jvm.define_class("Cov", [field("v", FieldKind.INT),
                                    field("next", FieldKind.REF)])
    jvm.create_heap("h", 256 * 1024, region_words=128)
    keep = None
    for i in range(60):
        n = jvm.pnew(node)
        jvm.set_field(n, "v", i)
        if i % 3 == 0:
            if keep is not None:
                jvm.set_field(n, "next", keep)
            keep = n
        else:
            n.close()  # garbage for the collector
    jvm.flush_reachable(keep)
    jvm.set_root("keep", keep)
    jvm.persistent_gc()

    fired = set(jvm.vm.failpoints.sites())
    missing = set(DOCUMENTED_SITES) - fired
    assert not missing, f"documented failpoint sites never hit: {sorted(missing)}"
