"""pjh_read — the read side of the layers ``pjh_write`` writes through.

The same structures are preloaded in setup, past the simulated CPU cache
(2048 lines), then the body only reads: Get passes on ``pjhlib`` and
``pcj``, ``heap.walk()``, and one unload -> ``load_heap``.  A write-path
gain that taxes ``mapping_at`` / ``_charge_read``, or the reverse, shows
as this row moving against ``pjh_write``.  The only flushes in the body
are the ones a graceful unload issues.

Seed: as ``pjh_write`` (values, keys, slot contents, visit order).
Oracle: every Get is compared with the Python model as it is made; every
structure must be an object start of the walk; after the last reload the
structures are found again through the root and read back once more.
"""

from __future__ import annotations

from repro.pjhlib import PjhArrayList, PjhHashmap, PjhLongArray, PjhTuple

from workloads.pjh_structs import (Inputs, PcjSide, PjhSide, create,
                                   read_back, set_all)

COUNT = 400      # structures per data type on pjhlib; pcj gets half as
GET_PASSES = 18  # many and twice the passes (its preload is 5x slower)
WALK_PASSES = 16
ROOT = "ledger.anchor"


def _structures(side):
    return side.lists + side.arrays + side.tuples + side.longs + [side.map]


def setup(rep):
    count = rep.n(COUNT, floor=16)
    pjh = PjhSide(rep, Inputs(rep.rng, count), rep.dir / "pjh")
    pcj = PcjSide(rep, Inputs(rep.rng, count // 2))
    for side in (pjh, pcj):
        create(side)
        set_all(side)
    jvm = pjh.jvm
    handles = [s.h for s in _structures(pjh)] + [k.h for k in pjh.keys]
    anchor = jvm.pnew_array(jvm.vm.object_klass, len(handles))
    for index, handle in enumerate(handles):
        jvm.array_set(anchor, index, handle)
    jvm.flush_reachable(anchor)
    jvm.set_root(ROOT, anchor)
    return {"pjh": pjh, "pcj": pcj, "walked": None}


def body(rep, state) -> None:
    pjh, pcj = state["pjh"], state["pcj"]
    with rep.leg("pjhlib.get"):
        for _ in range(GET_PASSES):
            read_back(rep, pjh)
    with rep.leg("pcj.get"):
        for _ in range(2 * GET_PASSES):
            read_back(rep, pcj)
    with rep.leg("core.walk"):
        heap = pjh.jvm.heaps.heap("bench")
        for _ in range(WALK_PASSES):
            state["walked"] = set(heap.walk())
    with rep.leg("core.load_heap"):
        jvm = pjh.jvm.restart()
        jvm.load_heap("bench")
        rep.track(jvm=jvm)
        state["reloaded"] = jvm


def verify(rep, state) -> None:
    pjh = state["pjh"]
    for structure in _structures(pjh):
        rep.check(structure.h.address in state["walked"],
                  "structure is not an object start of heap.walk()",
                  structure.h.address)
    # Find everything again through the root of the reloaded heap.
    jvm = state["reloaded"]
    anchor = jvm.get_root(ROOT)
    if not rep.check(anchor is not None, "root lost across reload"):
        return
    handles = iter(jvm.array_get(anchor, i)
                   for i in range(jvm.array_length(anchor)))
    count = pjh.inputs.count
    pjh.jvm = jvm
    pjh.lists = [PjhArrayList(jvm, None, handle=next(handles))
                 for _ in pjh.lists]
    pjh.arrays = [PjhTuple(jvm, None, handle=next(handles))
                  for _ in range(count)]
    pjh.tuples = [PjhTuple(jvm, None, handle=next(handles))
                  for _ in range(count)]
    pjh.longs = [PjhLongArray(jvm, None, handle=next(handles))
                 for _ in range(count)]
    pjh.map = PjhHashmap(jvm, None, handle=next(handles))
    for key in pjh.keys:
        key.jvm, key.h = jvm, next(handles)
    read_back(rep, pjh)
