#!/usr/bin/env python
"""Crash-recovery demo: power loss in the middle of a persistent GC.

Builds a PJH full of linked lists and garbage, injects a simulated crash
midway through the crash-consistent collection (§4.2), then reloads the
heap in a fresh "JVM": load_heap notices the in-progress flag and runs the
§4.3 recovery — mark bitmap -> redone summary -> unfinished regions —
after which every list is intact.

    python examples/crash_recovery.py
"""

import tempfile
from pathlib import Path

from repro import Espresso, FieldKind, field
from repro.errors import SimulatedCrash

HEAP_BYTES = 256 * 1024
LISTS = 5
NODES = 12


def define_node(jvm):
    return jvm.define_class("Node", [field("value", FieldKind.INT),
                                     field("next", FieldKind.REF)])


def build_workload(heap_dir: Path):
    jvm = Espresso(heap_dir)
    node = define_node(jvm)
    jvm.create_heap("demo", HEAP_BYTES, region_words=128)
    expected = {}
    for li in range(LISTS):
        values = [li * 100 + i for i in range(NODES)]
        head = None
        for v in reversed(values):
            n = jvm.pnew(node)
            jvm.set_field(n, "value", v)
            if head is not None:
                jvm.set_field(n, "next", head)
            head = n
        jvm.flush_reachable(head)
        jvm.set_root(f"list{li}", head)
        expected[f"list{li}"] = values
        for _ in range(15):        # garbage, so compaction moves things
            jvm.pnew(node).close()
    return jvm, expected


def read_list(jvm, head):
    out = []
    while head is not None:
        out.append(jvm.get_field(head, "value"))
        head = jvm.get_field(head, "next")
    return out


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="espresso-crash-") as tmp:
        heap_dir = Path(tmp)
        jvm, expected = build_workload(heap_dir)
        print(f"Built {LISTS} persistent lists plus garbage in {heap_dir}.")

        # Arm a failpoint: die after the 3rd region finishes evacuating.
        jvm.vm.failpoints.crash_on_hit("gc.compact.region_done", 3)
        try:
            jvm.persistent_gc()
            raise SystemExit("expected the injected crash to fire")
        except SimulatedCrash as crash:
            print(f"CRASH mid-collection: {crash}")
        jvm.vm.failpoints.clear()
        jvm.crash()  # power loss: unflushed cache lines are gone

        print("Rebooting a fresh JVM and loading the heap...")
        jvm2 = Espresso(heap_dir)
        heap, report = jvm2.heaps.load_heap_with_report("demo")
        print(f"  recovery ran: {report.recovery.performed}")
        print(f"  regions replayed: {report.recovery.regions_replayed}, "
              f"objects re-copied: {report.recovery.objects_recopied}, "
              f"root entries redone: {report.recovery.roots_redone}")

        for name, values in expected.items():
            got = read_list(jvm2, jvm2.get_root(name))
            status = "OK" if got == values else f"CORRUPT: {got}"
            print(f"  {name}: {status}")
            assert got == values
        print("All lists intact after crash + recovery.")


if __name__ == "__main__":
    main()
