"""The Fig. 15 collections against a Python model, on both substrates.

:mod:`repro.structures` holds one ArrayList and one Hashmap algorithm;
these properties run each over :class:`~repro.pcj.collections.PcjSubstrate`
and :class:`~repro.pjhlib.collections.PjhSubstrate` alike.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import Espresso
from repro.errors import ArrayIndexOutOfBoundsException
from repro.pcj import (MemoryPool, PersistentArrayList, PersistentHashmap,
                       PersistentLong)
from repro.pjhlib import PjhArrayList, PjhHashmap, PjhLong, PjhTransaction


class _Pcj:
    def __init__(self, tmp_path_factory) -> None:
        self.pool = MemoryPool(1024 * 1024, tx_log_words=16384)
        self.list = lambda: PersistentArrayList(self.pool)
        self.map = lambda: PersistentHashmap(self.pool)

    def box(self, value):
        return PersistentLong(self.pool, value)

    @staticmethod
    def unbox(boxed):
        return None if boxed is None else boxed.long_value()


class _Pjh:
    def __init__(self, tmp_path_factory) -> None:
        self.jvm = Espresso(tmp_path_factory.mktemp("heaps"))
        self.jvm.create_heap("lib", 4 * 1024 * 1024)
        self.txn = PjhTransaction(self.jvm)
        self.list = lambda: PjhArrayList(self.jvm, self.txn)
        self.map = lambda: PjhHashmap(self.jvm, self.txn)

    def box(self, value):
        return PjhLong(self.jvm, self.txn, value)

    def unbox(self, handle):
        return None if handle is None else self.jvm.get_field(handle, "value")


SUBSTRATES = {"pcj": _Pcj, "pjhlib": _Pjh}


@pytest.mark.parametrize("substrate", SUBSTRATES)
@settings(max_examples=20, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(["put", "remove", "get"]),
                              st.integers(0, 15), st.integers(-100, 100)),
                    min_size=1, max_size=40))
# Keys 0 and 16 share a bucket: removing 0 unlinks an entry behind the
# chain's head, which keys 0..15 alone never do on pjhlib (a PjhLong
# hashes to its value).
@example(ops=[("put", 0, 1), ("put", 16, 2), ("remove", 0, 0),
              ("get", 16, 0)])
def test_hashmap_matches_dict(substrate, tmp_path_factory, ops):
    lib = SUBSTRATES[substrate](tmp_path_factory)
    mapping, model = lib.map(), {}
    for op, key, value in ops:
        if op == "put":
            mapping.put(lib.box(key), lib.box(value))
            model[key] = value
        elif op == "remove":
            assert mapping.remove(lib.box(key)) == (key in model)
            model.pop(key, None)
        else:
            assert lib.unbox(mapping.get(lib.box(key))) == model.get(key)
    assert mapping.size() == len(model)
    for key, value in model.items():
        assert lib.unbox(mapping.get(lib.box(key))) == value


@pytest.mark.parametrize("substrate", SUBSTRATES)
@settings(max_examples=10, deadline=None)
@given(first=st.lists(st.integers(-100, 100), min_size=9, max_size=12),
       ops=st.lists(st.tuples(st.sampled_from(["add", "set", "get"]),
                              st.integers(-1, 24), st.integers(-100, 100)),
                    max_size=30))
def test_array_list_matches_list(substrate, tmp_path_factory, first, ops):
    """The first adds cross the initial capacity of 8, so every example
    grows the backing array at least once."""
    lib = SUBSTRATES[substrate](tmp_path_factory)
    items, model = lib.list(), []
    for value in first:
        items.add(lib.box(value))
        model.append(value)
    for op, index, value in ops:
        if op == "add":
            items.add(lib.box(value))
            model.append(value)
        elif not 0 <= index < len(model):
            with pytest.raises(ArrayIndexOutOfBoundsException):
                items.get(index) if op == "get" else \
                    items.set(index, lib.box(value))
        elif op == "set":
            items.set(index, lib.box(value))
            model[index] = value
        else:
            assert lib.unbox(items.get(index)) == model[index]
    assert items.size() == len(model)
    assert [lib.unbox(items.get(i)) for i in range(len(model))] == model
