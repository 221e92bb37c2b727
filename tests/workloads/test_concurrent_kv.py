"""The contended KV workload and its durable-linearizability checker."""

import tempfile

import pytest

from repro.api import Espresso
from repro.workloads.concurrent_kv import (
    ConcurrentKvWorkload,
    KvOp,
    check_recovered_state,
    make_ops,
    run_smoke,
)


class TestMakeOps:
    def test_deterministic_and_contended(self):
        a = make_ops(3, 8, key_space=4, seed=1)
        b = make_ops(3, 8, key_space=4, seed=1)
        assert a == b
        assert len(a) == 24
        assert len({op.name for op in a}) == 24       # names unique
        assert {op.key for op in a} <= set(range(4))  # tiny key space
        puts = [op for op in a if op.kind == "put"]
        assert len({op.value for op in puts}) == len(puts)  # values unique

    def test_seed_changes_script(self):
        assert make_ops(2, 8, seed=1) != make_ops(2, 8, seed=2)


def _history(*entries):
    """(step, mutator, name, kind) shorthand -> gang history tuples."""
    return [(s, m, n, k, ()) for s, m, n, k in entries]


class TestChecker:
    OPS = [
        KvOp(0, "p1", "put", 7, 100),
        KvOp(1, "p2", "put", 7, 200),
        KvOp(0, "r1", "remove", 7, None),
    ]

    def test_exact_state_required_when_completed(self):
        history = _history((1, 0, "p1", "linearized"),
                           (2, 0, "p1", "durable"),
                           (3, 1, "p2", "linearized"),
                           (4, 1, "p2", "durable"))
        assert check_recovered_state({7: 200}, self.OPS, history,
                                     completed=True) == []
        problems = check_recovered_state({7: 100}, self.OPS, history,
                                         completed=True)
        assert problems and "key 7" in problems[0]

    def test_crash_allows_later_linearized_values(self):
        """p2 linearized after the durable p1 may or may not have
        persisted; both values are legal, anything else is not."""
        history = _history((1, 0, "p1", "linearized"),
                           (2, 0, "p1", "durable"),
                           (3, 1, "p2", "linearized"))
        for legal in ({7: 100}, {7: 200}):
            assert check_recovered_state(legal, self.OPS, history,
                                         completed=False) == []
        assert check_recovered_state({7: 999}, self.OPS, history,
                                     completed=False)
        # ...but the durable p1 may NOT have vanished.
        assert check_recovered_state({}, self.OPS, history,
                                     completed=False)

    def test_durable_remove_pins_absence_or_later_put(self):
        history = _history((1, 0, "p1", "linearized"),
                           (2, 0, "p1", "durable"),
                           (3, 0, "r1", "linearized"),
                           (4, 0, "r1", "durable"),
                           (5, 1, "p2", "linearized"))
        for legal in ({}, {7: 200}):
            assert check_recovered_state(legal, self.OPS, history,
                                         completed=False) == []
        # The removed (and durably so) old value must not resurface.
        assert check_recovered_state({7: 100}, self.OPS, history,
                                     completed=False)

    def test_never_durable_key_may_be_absent(self):
        history = _history((1, 0, "p1", "linearized"))
        for legal in ({}, {7: 100}):
            assert check_recovered_state(legal, self.OPS, history,
                                         completed=False) == []

    def test_unknown_recovered_key_is_flagged(self):
        assert check_recovered_state({3: 1}, self.OPS, [],
                                     completed=False)


class TestWorkload:
    def test_crash_free_cycle_checks_clean(self, tmp_path):
        jvm = Espresso(tmp_path / "heaps", mutators=3)
        jvm.create_heap("kv", 2 * 1024 * 1024)
        workload = ConcurrentKvWorkload(jvm, mutators=3,
                                        ops_per_mutator=6, seed=3)
        workload.run()
        jvm2 = jvm.restart(crash=True)
        jvm2.load_heap("kv")
        assert workload.check_after_recovery(jvm2, completed=True) == []

    def test_smoke_entrypoint(self):
        summary = run_smoke(mutators=2, ops_per_mutator=8, verbose=False)
        assert summary["ok"] is True
        assert summary["hazards"] == 0
        assert summary["fsck_clean"] is True

    def test_smoke_leaves_no_heap_directory(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert run_smoke(mutators=2, ops_per_mutator=4, verbose=False)["ok"]
        assert list(tmp_path.iterdir()) == []
