"""The Fig. 15 data types on ``pjhlib`` (PJH + undo log) and on ``pcj``.

Shared by ``pjh_write`` (Create + Set) and ``pjh_read`` (Get, walk,
reload): the same five structures — ArrayList, Generic (object array),
Tuple, Primitive (long array), Hashmap — behind one small adapter per
library, plus the Python model the oracle reads them back against.
"""

from __future__ import annotations

from repro.api import Espresso, EspressoConfig
from repro.nvm.clock import Clock
from repro.obs import NULL_OBS
from repro.pcj import (MemoryPool, PersistentArray, PersistentArrayList,
                       PersistentHashmap, PersistentLong,
                       PersistentLongArray, PersistentTuple)
from repro.pjhlib import (PjhArrayList, PjhHashmap, PjhLong, PjhLongArray,
                          PjhTransaction, PjhTuple)

ARRAY_LEN = 8
TUPLE_ARITY = 3
VALUES = 64                   # boxed longs the reference slots point at
HEAP_BYTES = 8 << 20          # small: bigger images cost kernel time
POOL_WORDS = 1 << 22
TYPES = ("ArrayList", "Generic", "Tuple", "Primitive", "Hashmap")


class Inputs:
    """Seeded inputs: boxed values, hashmap keys, per-type visit orders."""

    def __init__(self, rng, count: int) -> None:
        self.count = count
        self.values = [rng.randrange(1 << 40) for _ in range(VALUES)]
        self.keys = rng.sample(range(1 << 30), count)
        self.longs = [rng.randrange(1 << 40) for _ in range(count)]
        #: type -> the (structure, slot) pairs in the order Set/Get visits.
        self.order = {name: rng.sample(range(count), count) for name in TYPES}
        #: the value index each slot is given by Create, then by Set
        self.created = [rng.randrange(VALUES) for _ in range(count)]
        self.updated = [rng.randrange(VALUES) for _ in range(count)]


class PjhSide:
    """The five structures on one PJH heap, with ``PjhTransaction``."""

    name = "pjhlib"

    def __init__(self, rep, inputs: Inputs, heap_dir) -> None:
        self.inputs = inputs
        self.clock = Clock()
        self.jvm = Espresso(heap_dir, config=EspressoConfig(
            clock=self.clock, observatory=rep.observatory()))
        self.jvm.create_heap("bench", HEAP_BYTES)
        # A hashmap rehash logs one slot per entry in one transaction.
        self.txn = PjhTransaction(self.jvm, capacity=2 * inputs.count + 64)
        self.values = [PjhLong(self.jvm, self.txn, v) for v in inputs.values]
        self.keys = [PjhLong(self.jvm, self.txn, k) for k in inputs.keys]
        self.lists, self.arrays, self.tuples, self.longs = [], [], [], []
        self.map = None
        rep.track(jvm=self.jvm)

    def new_list(self):
        return PjhArrayList(self.jvm, self.txn)

    def new_array(self):
        return PjhTuple(self.jvm, self.txn, ARRAY_LEN)

    def new_tuple(self):
        return PjhTuple(self.jvm, self.txn, TUPLE_ARITY)

    def new_longs(self):
        return PjhLongArray(self.jvm, self.txn, ARRAY_LEN)

    def new_map(self):
        return PjhHashmap(self.jvm, self.txn)

    def unbox(self, handle):
        return None if handle is None else self.jvm.get_field(handle, "value")


class PcjSide:
    """The five structures in one NVML-style ``MemoryPool``."""

    name = "pcj"

    def __init__(self, rep, inputs: Inputs) -> None:
        self.inputs = inputs
        self.clock = Clock()
        self.pool = MemoryPool(POOL_WORDS, clock=self.clock,
                               tx_log_words=1 << 16,
                               obs=rep.observatory() or NULL_OBS)
        pool = self.pool
        self.values = [PersistentLong(pool, v) for v in inputs.values]
        self.keys = [PersistentLong(pool, k) for k in inputs.keys]
        self.lists, self.arrays, self.tuples, self.longs = [], [], [], []
        self.map = None
        rep.track(clock=self.clock, device=pool.device)

    def new_list(self):
        return PersistentArrayList(self.pool)

    def new_array(self):
        return PersistentArray(self.pool, ARRAY_LEN)

    def new_tuple(self):
        return PersistentTuple(self.pool, TUPLE_ARITY)

    def new_longs(self):
        return PersistentLongArray(self.pool, ARRAY_LEN)

    def new_map(self):
        return PersistentHashmap(self.pool)

    def unbox(self, wrapper):
        return None if wrapper is None else wrapper.long_value()


def create(side) -> None:
    """Fig. 15 Create: ``count`` operations per data type."""
    inputs, values = side.inputs, side.values
    count = inputs.count
    for i in range(count):
        if i % ARRAY_LEN == 0:
            side.lists.append(side.new_list())
        side.lists[-1].add(values[inputs.created[i]])
    side.arrays = [side.new_array() for _ in range(count)]
    side.tuples = [side.new_tuple() for _ in range(count)]
    side.longs = [side.new_longs() for _ in range(count)]
    side.map = side.new_map()
    for i in range(count):
        side.map.put(side.keys[i], values[inputs.created[i]])


def set_all(side) -> None:
    """Fig. 15 Set: one store per structure, in the seeded order."""
    inputs, values = side.inputs, side.values
    for i in inputs.order["ArrayList"]:
        side.lists[i // ARRAY_LEN].set(i % ARRAY_LEN,
                                       values[inputs.updated[i]])
    for i in inputs.order["Generic"]:
        side.arrays[i].set(i % ARRAY_LEN, values[inputs.updated[i]])
    for i in inputs.order["Tuple"]:
        side.tuples[i].set(i % TUPLE_ARITY, values[inputs.updated[i]])
    for i in inputs.order["Primitive"]:
        side.longs[i].set(i % ARRAY_LEN, inputs.longs[i])
    for i in inputs.order["Hashmap"]:
        side.map.put(side.keys[i], values[inputs.updated[i]])


def read_back(rep, side) -> None:
    """The oracle: every slot holds what Set last stored there.

    Used inline by ``pjh_read`` (the Get passes *are* these reads) and in
    the untimed verify step of ``pjh_write``.
    """
    inputs = side.inputs
    want = [inputs.values[v] for v in inputs.updated]
    unbox, name = side.unbox, side.name
    for i in inputs.order["ArrayList"]:
        got = unbox(side.lists[i // ARRAY_LEN].get(i % ARRAY_LEN))
        rep.check_equal(got, want[i], "ArrayList slot", name, i)
    for i in inputs.order["Generic"]:
        got = unbox(side.arrays[i].get(i % ARRAY_LEN))
        rep.check_equal(got, want[i], "Generic slot", name, i)
    for i in inputs.order["Tuple"]:
        got = unbox(side.tuples[i].get(i % TUPLE_ARITY))
        rep.check_equal(got, want[i], "Tuple slot", name, i)
    for i in inputs.order["Primitive"]:
        got = side.longs[i].get(i % ARRAY_LEN)
        rep.check_equal(got, inputs.longs[i], "Primitive slot", name, i)
    for i in inputs.order["Hashmap"]:
        got = unbox(side.map.get(side.keys[i]))
        rep.check_equal(got, want[i], "Hashmap entry", name, i)
