"""gc_recover — the persistent collector, crash recovery and heap loading.

Setup fills a heap with 3/4 garbage, mounts three copies of it in three
sessions, and builds a fourth heap with the Fig. 18 census (20 classes).  The body runs the persistent old GC at
``gc_workers=1`` and ``=4``, crashes a third collection part-way (torn
lines) and lets ``load_heap`` recover it, loads the Fig. 18 heap under
user-guaranteed and zeroing safety, and fscks all four.  The work is in
``runtime.old_gc`` / ``workers`` and ``core.pgc`` / ``recovery``; SQL and
the collections do none.

Seed: node values, which quarter of the nodes stays live and what they
point at, which nodes are updated before the crash, and how the dirty
lines tear when it comes.
Oracle: after each collection (and after recovery) every live node holds
its value and its ``next`` target; nodes updated and flushed before the
crash hold the new value, unflushed ones the old or the new; the two
uncrashed collections leave byte-identical images; every fsck is clean.
"""

from __future__ import annotations

import shutil

from repro.api import Espresso, EspressoConfig
from repro.core.safety import SafetyLevel
from repro.errors import SimulatedCrash
from repro.nvm.clock import Clock
from repro.runtime.klass import FieldKind, field
from repro.tools.fsck import fsck_heap

OBJECTS = 16000         # nodes per GC heap; one in LIVE_EVERY survives
LIVE_EVERY = 4
UPDATES = 64            # nodes rewritten before the crash (half flushed)
CENSUS_OBJECTS = 16000  # Fig. 18 heap: objects of CENSUS_KLASSES classes
CENSUS_KLASSES = 20
CENSUS_LOADS = 3        # loads per safety level, each in a fresh session
HEAP = "gc"
CENSUS_HEAP = "fig18"
CRASH_SITE = "gc.compact.region_done"
CRASH_HIT = 2           # the crash lands after the second compacted region


def _define_node(jvm):
    return jvm.define_class("GcNode", [field("value", FieldKind.INT),
                                       field("next", FieldKind.REF)])


def _define_census(jvm):
    return [jvm.define_class(f"Fig18Type{k}", [field("a", FieldKind.INT),
                                               field("b", FieldKind.INT),
                                               field("ref", FieldKind.REF)])
            for k in range(CENSUS_KLASSES)]


def _session(rep, where, workers: int = 1) -> Espresso:
    return Espresso(where, config=EspressoConfig(
        clock=Clock(), observatory=rep.observatory(), gc_workers=workers))


def _populate(rep, plan, where) -> None:
    """One heap of ``plan`` nodes, saved: live ones hang off ``keep``."""
    jvm = _session(rep, where)
    node = _define_node(jvm)
    jvm.create_heap(HEAP, max(1 << 21, len(plan["values"]) * 64))
    keep = jvm.pnew_array(jvm.vm.object_klass, len(plan["live"]))
    jvm.set_root("keep", keep)
    kept = []
    for i, value in enumerate(plan["values"]):
        obj = jvm.pnew(node)
        jvm.set_field(obj, "value", value)
        slot = plan["slot_of"].get(i)
        if slot is None:
            obj.close()
            continue
        target = plan["next"][slot]
        if target is not None:
            jvm.set_field(obj, "next", kept[target])
        jvm.array_set(keep, slot, obj)
        kept.append(obj)
    jvm.shutdown()


def _mount_copy(rep, source, where, workers: int) -> Espresso:
    """A session of its own on a byte-for-byte copy of the saved heap."""
    shutil.copytree(source, where)
    jvm = _session(rep, where, workers)
    _define_node(jvm)
    jvm.load_heap(HEAP)
    rep.track(jvm=jvm)
    return jvm


def _build_census(rep, where, objects: int) -> None:
    jvm = _session(rep, where)
    klasses = _define_census(jvm)
    jvm.create_heap(CENSUS_HEAP, max(1 << 20, objects * 80))
    anchor = jvm.pnew_array(jvm.vm.object_klass, objects)
    jvm.set_root("anchor", anchor)
    for i in range(objects):
        obj = jvm.pnew(klasses[i % CENSUS_KLASSES])
        jvm.set_field(obj, "a", i)
        jvm.array_set(anchor, i, obj)
        obj.close()
    jvm.shutdown()


def setup(rep):
    rng = rep.rng
    objects = rep.n(OBJECTS, floor=64)
    live = sorted(rng.sample(range(objects), objects // LIVE_EVERY))
    plan = {
        "values": [rng.randrange(1 << 40) for _ in range(objects)],
        "live": live,
        "slot_of": {i: slot for slot, i in enumerate(live)},
        # each live node points at an earlier live node (or nothing)
        "next": [rng.randrange(slot) if slot and rng.random() < 0.75
                 else None for slot in range(len(live))],
    }
    updates = rng.sample(range(len(live)), min(rep.n(UPDATES), len(live)))
    census_objects = rep.n(CENSUS_OBJECTS, floor=CENSUS_KLASSES)
    _build_census(rep, rep.dir / "census", census_objects)
    _populate(rep, plan, rep.dir / "filled")
    return {
        "plan": plan,
        "w1": _mount_copy(rep, rep.dir / "filled", rep.dir / "w1", 1),
        "w4": _mount_copy(rep, rep.dir / "filled", rep.dir / "w4", 4),
        "victim": _mount_copy(rep, rep.dir / "filled", rep.dir / "victim", 1),
        "updates": {slot: rng.randrange(1 << 40) for slot in updates},
        "tear_seed": rng.randrange(1 << 30),
        "census_objects": census_objects,
        "fsck": {},
    }


def _crash_and_recover(rep, state) -> None:
    """Rewrite some live nodes (flushing every other one), crash a
    collection inside compaction, and let ``load_heap`` finish it."""
    jvm = state["victim"]
    keep = jvm.get_root("keep")
    state["acked"] = set()
    for order, (slot, value) in enumerate(state["updates"].items()):
        obj = jvm.array_get(keep, slot)
        jvm.set_field(obj, "value", value)
        if order % 2 == 0:
            jvm.flush_field(obj, "value")
            state["acked"].add(slot)
    jvm.heaps.heap(HEAP).device.set_fault_mode("torn", state["tear_seed"])
    jvm.vm.failpoints.crash_on_hit(CRASH_SITE, CRASH_HIT)
    try:
        jvm.persistent_gc()
        crashed = False
    except SimulatedCrash:
        crashed = True
    rep.check(crashed, "the armed collection ran to completion")
    jvm = jvm.restart(crash=True)
    _define_node(jvm)
    _heap, report = jvm.heaps.load_heap_with_report(HEAP)
    rep.check(report.recovery.performed == crashed,
              "load_heap did not run (or needlessly ran) GC recovery")
    rep.track(jvm=jvm)
    state["victim"] = jvm


def body(rep, state) -> None:
    with rep.leg("runtime.gc_w1"):
        state["w1"].persistent_gc()
    with rep.leg("runtime.gc_w4"):
        state["w4"].persistent_gc()
    with rep.leg("core.recovery"):
        _crash_and_recover(rep, state)
    census = _session(rep, rep.dir / "census")
    for leg, safety in (("core.load_heap_ug", SafetyLevel.USER_GUARANTEED),
                        ("core.load_heap_zero", SafetyLevel.ZEROING)):
        with rep.leg(leg):
            for _ in range(CENSUS_LOADS):
                census = census.restart()
                _define_census(census)
                census.load_heap(CENSUS_HEAP, safety)
                rep.track(jvm=census)
    state["census"] = census
    with rep.leg("tools.fsck"):
        for name in ("w1", "w4", "victim"):
            state["fsck"][name] = fsck_heap(state[name].heaps.heap(HEAP))
        state["fsck"]["census"] = fsck_heap(census.heaps.heap(CENSUS_HEAP))


def _check_nodes(rep, state, name: str) -> None:
    jvm, plan = state[name], state["plan"]
    updates = state["updates"] if name == "victim" else {}
    acked = state.get("acked", set())
    keep = jvm.get_root("keep")
    if not rep.check(keep is not None, "keep root lost", name):
        return
    nodes = [jvm.array_get(keep, slot) for slot in range(len(plan["live"]))]
    for slot, index in enumerate(plan["live"]):
        node = nodes[slot]
        if not rep.check(node is not None, "live node lost", name, slot):
            continue
        old = plan["values"][index]
        new = updates.get(slot, old)
        legal = {new} if slot in acked else {old, new}
        rep.check(jvm.get_field(node, "value") in legal,
                  "live node value", name, slot)
        target = plan["next"][slot]
        got = jvm.get_field(node, "next")
        if target is None:
            rep.check(got is None, "dangling next", name, slot)
        else:
            rep.check(got is not None and got.same_object(nodes[target]),
                      "next points at the wrong node", name, slot)


def verify(rep, state) -> None:
    for name in ("w1", "w4", "victim"):
        _check_nodes(rep, state, name)
    images = [state[name].heaps.heap(HEAP).device.durable_image().tobytes()
              for name in ("w1", "w4")]
    rep.check(images[0] == images[1],
              "gc_workers=1 and =4 left different durable images")
    census = state["census"]
    anchor = census.get_root("anchor")
    for i in range(state["census_objects"]):
        obj = census.array_get(anchor, i)
        rep.check(obj is not None and census.get_field(obj, "a") == i,
                  "census object", i)
    for name, report in state["fsck"].items():
        rep.check(report.clean, "fsck dirty", name, report.errors[:3])
