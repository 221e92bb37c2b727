"""Contended multi-mutator KV workload + durable-linearizability checker.

N mutators hammer a small shared key space of a
:class:`~repro.pjhlib.concurrent.PjhConcurrentMap` through a
:class:`~repro.runtime.mutators.MutatorGang`.  Every op value is unique
(``mutator * 10**6 + sequence``), so the checker can map any recovered
value back to exactly one operation in the gang's history.

The durability contract checked after a crash is **durable
linearizability** (Izraelevitz et al., the correctness notion Zuriel's
sets target): the recovered state must equal the state left by some
prefix of the linearization order that contains *every* op whose
durability point passed.  Per key that collapses to old-or-new:

* let D be the last op on the key (in linearization order) whose
  ``("durable", ...)`` marker is in the history;
* the recovered value must be the value of D **or** of any op on that
  key linearized *after* D (effects past their linearization but before
  their durability point may or may not have persisted);
* keys with no durable op may also be absent entirely.

On a crash-free run the check degenerates to exact equality with the
final model, and the map's own :meth:`audit` must come back empty either
way.  ``python -m repro.workloads.concurrent_kv`` runs the 2-mutator
contended smoke (run, crash, recover, check, fsck) wired into
``make concurrent-smoke``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.pjhlib.concurrent import PjhConcurrentMap

ROOT_NAME = "concurrent_kv"


@dataclass(frozen=True)
class KvOp:
    """One scripted operation of the workload."""

    mutator: int
    name: str        # unique; keys the gang history
    kind: str        # "put" | "remove" | "get"
    key: int
    value: Optional[int]  # None unless kind == "put"


def make_ops(mutators: int, ops_per_mutator: int, key_space: int = 4,
             seed: int = 0, remove_ratio: float = 0.25,
             get_ratio: float = 0.15) -> List[KvOp]:
    """A deterministic contended op script: same args, same script.

    Keys are drawn from ``range(key_space)`` — deliberately tiny so
    mutators collide constantly — and every put's value encodes
    (mutator, sequence), making values globally unique.
    """
    rng = random.Random(seed)
    ops: List[KvOp] = []
    for mutator in range(mutators):
        for sequence in range(ops_per_mutator):
            key = rng.randrange(key_space)
            roll = rng.random()
            if roll < remove_ratio:
                kind, value = "remove", None
            elif roll < remove_ratio + get_ratio:
                kind, value = "get", None
            else:
                kind, value = "put", mutator * 1_000_000 + sequence
            ops.append(KvOp(mutator, f"m{mutator}-{sequence}-{kind}{key}",
                            kind, key, value))
    return ops


def submit_ops(gang, table: PjhConcurrentMap,
               ops: Sequence[KvOp]) -> None:
    """Queue the scripted ops on their mutators."""
    for op in ops:
        if op.kind == "put":
            factory = (lambda op=op: table.put_op(op.key, op.value))
        elif op.kind == "remove":
            factory = (lambda op=op: table.remove_op(op.key))
        else:
            factory = (lambda op=op: table.get_op(op.key))
        gang.submit(op.mutator, op.name, factory)


def check_recovered_state(recovered: Dict[int, int], ops: Sequence[KvOp],
                          history: Sequence[Tuple[int, int, str, str, tuple]],
                          completed: bool) -> List[str]:
    """Durable-linearizability violations; empty when the state is legal.

    *recovered* is the reattached map's raw snapshot, *history* the gang
    history (possibly truncated by a crash), *completed* whether the run
    finished without crashing.
    """
    by_name = {op.name: op for op in ops}
    # Per key: ops in linearization order as (step, op).
    linearized: Dict[int, List[Tuple[int, KvOp]]] = {}
    durable_names = set()
    for step, _mutator, op_name, kind, _payload in history:
        op = by_name.get(op_name)
        if op is None or op.kind == "get":
            continue
        if kind == "linearized":
            linearized.setdefault(op.key, []).append((step, op))
        elif kind == "durable":
            durable_names.add(op_name)
    problems: List[str] = []
    keys = set(linearized) | set(recovered)
    for key in sorted(keys):
        timeline = sorted(linearized.get(key, []))
        seen = recovered.get(key)  # None = absent
        # Index of the last linearized op with a durable marker.
        durable_index = -1
        for position, (_step, op) in enumerate(timeline):
            if op.name in durable_names:
                durable_index = position
        legal = set()
        if durable_index < 0:
            legal.add(None)  # never durably written: absence is legal
            candidates = timeline
        else:
            candidates = timeline[durable_index:]
        for _step, op in candidates:
            legal.add(op.value if op.kind == "put" else None)
        if completed:
            # No crash: the full history must be reflected exactly.
            legal = {timeline[-1][1].value if timeline[-1][1].kind == "put"
                     else None} if timeline else {None}
        if seen not in legal:
            durable_op = (timeline[durable_index][1].name
                          if durable_index >= 0 else "<none>")
            problems.append(
                f"key {key}: recovered {seen!r} but the last durable op "
                f"was {durable_op} and only {sorted(legal, key=repr)} are "
                f"legal old-or-new values")
    return problems


class ConcurrentKvWorkload:
    """Drives the scripted workload on one session; checkable after."""

    def __init__(self, jvm, mutators: int = 2, ops_per_mutator: int = 12,
                 key_space: int = 4, seed: int = 0,
                 buckets: int = 8) -> None:
        self.jvm = jvm
        self.mutators = mutators
        self.ops = make_ops(mutators, ops_per_mutator, key_space, seed)
        self.table = PjhConcurrentMap(jvm, buckets=buckets)
        jvm.set_root(ROOT_NAME, self.table.h)
        self.gang = jvm.mutator_gang(seed=seed, mutators=mutators)

    def run(self, event_log=None):
        submit_ops(self.gang, self.table, self.ops)
        return self.gang.run(event_log=event_log, phase="concurrent_kv")

    def check_after_recovery(self, jvm2, completed: bool) -> List[str]:
        """Reattach on *jvm2* (heap already loaded) and check everything:
        protocol audit, durable linearizability, size consistency."""
        table2 = PjhConcurrentMap.reattach(jvm2, jvm2.get_root(ROOT_NAME))
        problems = list(table2.audit())
        recovered = table2.snapshot_raw()
        problems += check_recovered_state(recovered, self.ops,
                                          self.gang.history, completed)
        if table2.size() != len(recovered):
            problems.append(
                f"recomputed size {table2.size()} != live entries "
                f"{len(recovered)}")
        return problems


def run_smoke(mutators: int = 2, ops_per_mutator: int = 16,
              seed: int = 0, verbose: bool = True) -> dict:
    """The ``make concurrent-smoke`` cycle: run hot, verify the trace is
    hazard-clean, crash, recover, check durable linearizability, fsck."""
    import tempfile
    from pathlib import Path

    from repro.analysis.hazards import analyze_trace
    from repro.api import Espresso
    from repro.tools.fsck import fsck_heap

    with tempfile.TemporaryDirectory(prefix="concurrent-kv-") as tmp:
        jvm = Espresso.open(Path(tmp) / "heaps", "kv",
                            size_bytes=4 * 1024 * 1024)
        heap = jvm.heaps.heap("kv")
        log = heap.enable_event_log("concurrent_kv")
        workload = ConcurrentKvWorkload(jvm, mutators=mutators,
                                        ops_per_mutator=ops_per_mutator,
                                        seed=seed)
        report = workload.run(event_log=log)
        heap.disable_event_log()
        hazards = analyze_trace(log)

        jvm2 = jvm.restart(crash=True)
        heap2 = jvm2.load_heap("kv")
        problems = workload.check_after_recovery(jvm2, completed=True)
        fsck = fsck_heap(heap2)
        summary = {
            "mutators": mutators,
            "ops": len(workload.ops),
            "steps": report.steps,
            "pause_ns": report.committed_ns,
            "hazards": len(hazards.findings),
            "problems": problems,
            "fsck_clean": fsck.clean,
        }
    if verbose:
        print(f"concurrent-kv smoke: {mutators} mutators, "
              f"{len(workload.ops)} ops, {report.steps} steps")
        print(f"  hazard findings : {len(hazards.findings)}")
        print(f"  durable-lin     : "
              f"{'ok' if not problems else problems}")
        print(f"  fsck            : "
              f"{'clean' if fsck.clean else 'DIRTY'}")
    ok = not problems and not hazards.findings and fsck.clean
    summary["ok"] = ok
    return summary


def main() -> int:
    summary = run_smoke()
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
