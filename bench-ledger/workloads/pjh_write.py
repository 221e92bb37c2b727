"""pjh_write — Fig. 15 Create + Set on ``pjhlib`` and on ``pcj``.

Allocation, undo logging and ``PersistDomain`` epochs dominate; there are
almost no reads.  Allocation-buffer, flush-coalescing and flush-elision
changes show here in ``sim_ms`` and ``nvm_flush_fence``.

Seed: boxed values, hashmap keys, which value each slot gets, and the
order Set visits the structures in.
Oracle: after the body, every written slot is read back (untimed) and
compared with the Python model.
"""

from __future__ import annotations

from workloads.pjh_structs import (Inputs, PcjSide, PjhSide, create,
                                   read_back, set_all)

COUNT = 700     # operations per data type, library and phase


def setup(rep):
    inputs = Inputs(rep.rng, rep.n(COUNT, floor=16))
    return [PjhSide(rep, inputs, rep.dir / "pjh"), PcjSide(rep, inputs)]


def body(rep, sides) -> None:
    for side in sides:
        with rep.leg(f"{side.name}.create"):
            create(side)
        with rep.leg(f"{side.name}.set"):
            set_all(side)


def verify(rep, sides) -> None:
    for side in sides:
        read_back(rep, side)
