"""Figure 15: normalized speedup for PJH compared to PCJ.

Paper §6.2: microbenchmarks over five data types — ArrayList, Generic
(object arrays), Tuple, Primitive (long arrays), Hashmap — running
create/set/get primitive operations on PCJ and on equivalent structures
atop PJH (with a simple undo log for ACID parity).  "The best speedup even
reaches 256.3x for set operations on tuples ... As for get operations ...
it still outperforms PCJ by at least 6.0x."

The paper ran millions of operations; simulated time is exact per
operation, so a few thousand suffice for converged means — but the object
count is chosen to exceed the simulated CPU cache so that gets pay real
NVM read latency, as they would with the paper's working sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from repro.api import Espresso
from repro.nvm.clock import Clock
from repro.pcj import (
    MemoryPool,
    PersistentArray,
    PersistentArrayList,
    PersistentHashmap,
    PersistentLong,
    PersistentLongArray,
    PersistentTuple,
)
from repro.pjhlib import (
    PjhArrayList,
    PjhHashmap,
    PjhLong,
    PjhLongArray,
    PjhTransaction,
    PjhTuple,
)

from repro.bench.harness import (Experiment, format_table, per_op_ns,
                                 slash_keys)

DATA_TYPES = ["ArrayList", "Generic", "Tuple", "Primitive", "Hashmap"]
OPERATIONS = ["Create", "Set", "Get"]

_ARRAY_LEN = 8
_TUPLE_ARITY = 3


@dataclass
class Fig15Result:
    count: int
    # (type, op) -> (pjh_ns, pcj_ns, speedup)
    cells: Dict[Tuple[str, str], Tuple[float, float, float]] = field(
        default_factory=dict)
    # (type, op) -> (pjh clflush, pjh sfence, pcj clflush, pcj sfence)
    flushes: Dict[Tuple[str, str], Tuple[int, int, int, int]] = field(
        default_factory=dict)

    def speedup(self, data_type: str, op: str) -> float:
        return self.cells[(data_type, op)][2]


#: (Long, ArrayList, generic array, Tuple, LongArray, Hashmap) per library;
#: pjhlib's generic object array is a Tuple of that length.
_PCJ = (PersistentLong, PersistentArrayList, PersistentArray,
        PersistentTuple, PersistentLongArray, PersistentHashmap)
_PJH = (PjhLong, PjhArrayList, PjhTuple, PjhTuple, PjhLongArray, PjhHashmap)


def _workloads(classes, substrate: tuple, count: int):
    """type -> (create, set, get) closures over one library: *classes* is
    ``_PCJ`` or ``_PJH``, *substrate* the leading arguments of its
    constructors (``(pool,)`` or ``(jvm, txn)``)."""
    Long, ArrayList, Generic, Tuple_, LongArray, Hashmap = classes
    values = [Long(*substrate, i) for i in range(64)]

    lists: List = []
    def list_create(i):
        if i % _ARRAY_LEN == 0:
            lists.append(ArrayList(*substrate))
        lists[-1].add(values[i % 64])
    arrays = [Generic(*substrate, _ARRAY_LEN) for _ in range(count)]
    tuples = [Tuple_(*substrate, _TUPLE_ARITY) for _ in range(count)]
    longs = [LongArray(*substrate, _ARRAY_LEN) for _ in range(count)]
    hashmap = Hashmap(*substrate)
    keys = [Long(*substrate, i) for i in range(count)]

    return {
        "ArrayList": (
            list_create,
            lambda i: lists[i % len(lists)].set(i % _ARRAY_LEN, values[i % 64]),
            lambda i: lists[i % len(lists)].get(i % _ARRAY_LEN),
        ),
        "Generic": (
            lambda i: Generic(*substrate, _ARRAY_LEN),
            lambda i: arrays[i % count].set(i % _ARRAY_LEN, values[i % 64]),
            lambda i: arrays[i % count].get(i % _ARRAY_LEN),
        ),
        "Tuple": (
            lambda i: Tuple_(*substrate, _TUPLE_ARITY),
            lambda i: tuples[i % count].set(i % _TUPLE_ARITY, values[i % 64]),
            lambda i: tuples[i % count].get(i % _TUPLE_ARITY),
        ),
        "Primitive": (
            lambda i: LongArray(*substrate, _ARRAY_LEN),
            lambda i: longs[i % count].set(i % _ARRAY_LEN, i),
            lambda i: longs[i % count].get(i % _ARRAY_LEN),
        ),
        "Hashmap": (
            lambda i: hashmap.put(keys[i % count], values[i % 64]),
            lambda i: hashmap.put(keys[i % count], values[(i + 1) % 64]),
            lambda i: hashmap.get(keys[i % count]),
        ),
    }


def _substrates(data_type: str, count: int, heap_dir: Path):
    """Fresh PCJ and PJH substrates for one data type, so working sets
    stay comparable: ``(pool, pcj_ops, jvm, pjh_ops)``."""
    pool = MemoryPool(max(1 << 22, count * 64), clock=Clock(),
                      tx_log_words=1 << 16)
    pcj_ops = _workloads(_PCJ, (pool,), count)[data_type]

    jvm = Espresso(heap_dir / f"fig15-{data_type}")
    jvm.create_heap("bench", max(64 << 20, count * 64 * 8))
    # A PjhHashmap rehash at n entries undo-logs n + 1 slots in one
    # transaction (fleet/store.py sizes its log by the same rule); the
    # default 1024 overflows from the 1,537th entry on.
    txn = PjhTransaction(jvm, capacity=max(1024, count + 1))
    return (pool, pcj_ops,
            jvm, _workloads(_PJH, (jvm, txn), count)[data_type])


def _measured(clock, device, action, count: int):
    """``(ns per op, clflushes, sfences)`` over ``count`` calls of
    *action*."""
    before = device.stats.snapshot()
    ns = per_op_ns(clock, action, count)
    spent = device.stats.delta(before)
    return ns, spent.flushes, spent.fences


def run(count: int, heap_dir: Path) -> Fig15Result:
    result = Fig15Result(count=count)
    for data_type in DATA_TYPES:
        pool, pcj_ops, jvm, pjh_ops = _substrates(data_type, count, heap_dir)
        pjh_device = jvm.heaps.heap("bench").device
        for op_name, pcj_fn, pjh_fn in zip(OPERATIONS, pcj_ops, pjh_ops):
            pcj_ns, pcj_flushes, pcj_fences = _measured(
                pool.clock, pool.device, pcj_fn, count)
            pjh_ns, pjh_flushes, pjh_fences = _measured(
                jvm.clock, pjh_device, pjh_fn, count)
            speedup = pcj_ns / pjh_ns if pjh_ns > 0 else float("inf")
            result.cells[(data_type, op_name)] = (pjh_ns, pcj_ns, speedup)
            result.flushes[(data_type, op_name)] = (
                pjh_flushes, pjh_fences, pcj_flushes, pcj_fences)
    return result


def table(result: Fig15Result) -> str:
    rows = [(data_type, op, f"{pjh_ns:,.0f}", f"{pcj_ns:,.0f}",
             f"{speedup:.1f}x")
            for (data_type, op), (pjh_ns, pcj_ns, speedup)
            in result.cells.items()]
    return format_table(
        ["Data type", "Op", "PJH ns/op", "PCJ ns/op", "Speedup"],
        rows,
        title=(f"Figure 15 — PJH vs PCJ normalized speedup "
               f"({result.count} ops per cell; paper: up to 256.3x, "
               f"get >= 6.0x)"))


def check(result: Fig15Result) -> None:
    for (data_type, op), (_pjh, _pcj, speedup) in result.cells.items():
        assert speedup > 1.0, \
            f"Fig. 15: PJH outperforms PCJ on every cell ({data_type} {op})"
    assert all(result.speedup(t, "Get") >= 3.0 for t in DATA_TYPES), \
        "Fig. 15: gets win by a clear multiple (paper: at least 6.0x)"
    # The paper's headline is 256.3x; ours is smaller but still an order
    # of magnitude (see EXPERIMENTS.md).
    assert max(cell[2] for cell in result.cells.values()) >= 10.0, \
        "Fig. 15: the best speedup is at least an order of magnitude"


def payload(result: Fig15Result) -> Dict[str, object]:
    """``cells``: "type/op" -> [pjh_ns, pcj_ns, speedup]; ``flushes``:
    "type/op" -> [pjh clflush, pjh sfence, pcj clflush, pcj sfence]."""
    return {"count": result.count, "cells": slash_keys(result.cells),
            "flushes": slash_keys(result.flushes)}


EXPERIMENT = Experiment(
    name="fig15", title="Figure 15 — PJH vs PCJ speedups",
    run=run, full={"count": 3000}, ci={"count": 800},
    table=table, check=check, payload=payload)
