#!/usr/bin/env python
"""The paper's §2.2 vs §3.2 porting story, runnable side by side.

The same `Person` record stored two ways:

* **PCJ** (Figure 5): a separate type system — `Person extends
  PersistentObject`, fields rewritten to `PersistentInteger` /
  `PersistentString`, everything managed off-heap by the NVML pool.
* **Espresso/PJH** (Figure 9): ordinary fields, ordinary classes; the only
  change from volatile Java is `pnew` (and an explicit flush, since data
  persistence is the application's call).

The simulated clock makes the cost difference visible, too.

    python examples/porting_from_pcj.py
"""

import tempfile
from pathlib import Path

from repro import Espresso, FieldKind, field
from repro.nvm.clock import Clock
from repro.pcj import MemoryPool, PersistentInteger, PersistentObject, \
    PersistentString
from repro.pjhlib import PjhTransaction

COUNT = 300


# ---------------------------------------------------------------------------
# The PCJ way (paper Figure 5): a parallel type system.
# ---------------------------------------------------------------------------
class PcjPerson(PersistentObject):
    """Fields must become Persistent* types; layout is [id_ref, name_ref]."""

    TYPE_NAME = "PcjPerson"

    def __init__(self, pool, id_value=None, name=None, _offset=None):
        if _offset is not None:
            super().__init__(pool, 0, _existing_offset=_offset)
            return
        super().__init__(pool, 2)
        self._write_word(0, PersistentInteger(pool, id_value).offset,
                         new_is_ref=True)
        self._write_word(1, PersistentString(pool, name).offset,
                         new_is_ref=True)

    def get_id(self):
        return PersistentInteger.from_offset(
            self.pool, self._read_word(0)).int_value()

    def get_name(self):
        return PersistentString.from_offset(
            self.pool, self._read_word(1)).str_value()


def pcj_side():
    clock = Clock()
    pool = MemoryPool(8 << 20, clock=clock, tx_log_words=1 << 14)
    start = clock.now_ns
    people = [PcjPerson(pool, i, f"person-{i}") for i in range(COUNT)]
    create_ns = (clock.now_ns - start) / COUNT
    start = clock.now_ns
    checksum = sum(p.get_id() for p in people)
    get_ns = (clock.now_ns - start) / COUNT
    return create_ns, get_ns, checksum


# ---------------------------------------------------------------------------
# The Espresso way (paper Figure 9): the same class, plus pnew.
# ---------------------------------------------------------------------------
def pjh_side():
    with tempfile.TemporaryDirectory(prefix="espresso-porting-") as tmp:
        jvm = Espresso(Path(tmp))
        jvm.create_heap("people", 16 << 20)
        person_klass = jvm.define_class(
            "Person", [field("id", FieldKind.INT),     # plain int field!
                       field("name", FieldKind.REF)])  # plain String reference
        clock = jvm.clock
        start = clock.now_ns
        people = []
        for i in range(COUNT):
            p = jvm.pnew(person_klass)
            jvm.set_field(p, "id", i)
            jvm.set_field(p, "name", jvm.pnew_string(f"person-{i}"))
            jvm.flush_reachable(p)
            people.append(p)
        create_ns = (clock.now_ns - start) / COUNT
        start = clock.now_ns
        checksum = sum(jvm.get_field(p, "id") for p in people)
        get_ns = (clock.now_ns - start) / COUNT
        return create_ns, get_ns, checksum


def main() -> None:
    pcj_create, pcj_get, pcj_sum = pcj_side()
    pjh_create, pjh_get, pjh_sum = pjh_side()
    assert pcj_sum == pjh_sum
    print(f"{'':12s}{'create ns/op':>14s}{'get ns/op':>12s}")
    print(f"{'PCJ':12s}{pcj_create:14,.0f}{pcj_get:12,.0f}")
    print(f"{'Espresso':12s}{pjh_create:14,.0f}{pjh_get:12,.0f}")
    print(f"{'speedup':12s}{pcj_create / pjh_create:13.1f}x"
          f"{pcj_get / max(pjh_get, 1e-9):11.1f}x")
    print()
    print("And the porting diff: PCJ rewrote both field types and the "
          "supertype; Espresso changed `new` to `pnew`.")


if __name__ == "__main__":
    main()
