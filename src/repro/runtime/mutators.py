"""Deterministic N-mutator gang: simulated concurrent mutation on one clock.

The GC/loading PRs gave the runtime a deterministic worker gang
(:mod:`repro.runtime.workers`) but left mutation single-threaded.  This
module runs *mutators* on the same :class:`WorkerPool`: each simulated
mutator thread is one pool worker, operations are written as Python
generators that ``yield`` at their interleave points, and a seeded
scheduler picks which mutator steps next — so a contended multi-mutator
run is fully replayable from ``(seed, submitted ops)`` alone.

The contract an op generator sees:

* Every ``yield`` is an **interleave point**: another mutator may run
  between this step and the next.  Anything that must be atomic with
  respect to other mutators (a CAS: read, compare, write) happens inside
  one step.
* ``yield`` may carry a history marker: ``("linearized", payload)``
  records the op's linearization point, ``("durable", payload)`` records
  the point after which a crash must preserve the effect.  Plain
  ``yield`` / ``yield None`` is just a scheduling point.  The gang
  timestamps markers with the global step counter, giving checkers a
  total order consistent with real time.
* The generator's ``return`` value becomes the op's result.

Scheduling is seeded, not round-robin, on purpose: a fixed rotation
explores exactly one interleaving, while ``random.Random(seed)`` lets
test suites and crash sweeps walk *many* schedules deterministically —
same seed, same schedule, same durable image, byte for byte.

Time works exactly like the GC gang: each step runs under
``pool.on(mutator)``, and :meth:`MutatorGang.run` commits one global
advance of **max over mutators** (wall time of a parallel phase is the
slowest thread, not the sum).  When an event log is installed the
step also runs under :meth:`PersistEventLog.mutator`, so the recorded
trace carries per-mutator program order for the ESP205 hazard rule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.nvm.clock import Clock
from repro.obs import NULL_OBS, Observatory
from repro.runtime.workers import WorkerPool

__all__ = ["GangReport", "MutatorGang", "MutatorOp"]

#: History marker kinds an op generator may yield (first tuple element).
MARKER_KINDS = ("linearized", "durable", "note")


@dataclass
class MutatorOp:
    """One submitted operation: a name plus its generator factory.

    The generator is built lazily when the op is first scheduled, so
    submission order never perturbs the heap.
    """

    mutator: int
    name: str
    factory: Callable[[], Generator[Any, None, Any]]
    gen: Optional[Generator[Any, None, Any]] = None
    result: Any = None
    done: bool = False
    steps: int = 0


@dataclass
class GangReport:
    """What one :meth:`MutatorGang.run` did, for checkers and benches."""

    mutators: int
    seed: int
    steps: int
    committed_ns: float
    #: op name -> result, in submission order (names must be unique).
    results: Dict[str, Any] = field(default_factory=dict)
    #: (step, mutator, op name, kind, payload) — kind is "invoke",
    #: "response", or a MARKER_KINDS entry.  Totally ordered by step.
    history: List[Tuple[int, int, str, str, Any]] = field(
        default_factory=list)
    #: mutator index chosen at each step, in order (the interleaving).
    schedule: List[int] = field(default_factory=list)
    #: per-mutator busy nanoseconds for the run.
    busy_ns: List[float] = field(default_factory=list)

    def markers(self, kind: str) -> List[Tuple[int, int, str, Any]]:
        """History entries of one kind as (step, mutator, op, payload)."""
        return [(s, m, o, p) for s, m, o, k, p in self.history
                if k == kind]


class MutatorGang:
    """A deterministic gang of simulated mutator threads on one clock.

    Ops are queued per mutator with :meth:`submit` (each mutator drains
    its queue FIFO — a simulated thread runs one op at a time), then
    :meth:`run` interleaves them to completion.  The gang is reusable:
    submit more ops and run again; the seeded RNG stream continues, so a
    sequence of runs is as replayable as a single one.
    """

    def __init__(self, clock: Clock, mutators: int = 1, seed: int = 0,
                 obs: Observatory = NULL_OBS, vm=None) -> None:
        self.pool = WorkerPool(clock, workers=mutators, obs=obs,
                               label="mutators")
        #: When set, each scheduled step publishes its mutator index as
        #: ``vm.current_mutator`` so the heap routes the step's
        #: allocations into that mutator's allocation buffer.
        self.vm = vm
        self.n = self.pool.n
        self.seed = int(seed)
        self.obs = obs
        self._rng = random.Random(self.seed)
        self._queues: List[List[MutatorOp]] = [[] for _ in range(self.n)]
        self._step = 0
        #: History across runs; run() extends this and snapshots it into
        #: the report, so a crash mid-run leaves the prefix inspectable.
        self.history: List[Tuple[int, int, str, str, Any]] = []
        self.schedule: List[int] = []

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, mutator: int, name: str,
               factory: Callable[[], Generator[Any, None, Any]]) -> None:
        """Queue op *name* on *mutator*; *factory* builds its generator."""
        if not 0 <= mutator < self.n:
            raise ValueError(
                f"mutator {mutator} out of range for gang of {self.n}")
        self._queues[mutator].append(MutatorOp(mutator, str(name), factory))

    # ------------------------------------------------------------------
    # The scheduler loop
    # ------------------------------------------------------------------
    def run(self, event_log=None, phase: str = "mutate",
            max_steps: Optional[int] = None) -> GangReport:
        """Interleave every queued op to completion; commit the pause.

        *event_log* (a :class:`~repro.nvm.persist.PersistEventLog`) tags
        each step's recorded events with the running mutator's index.
        *max_steps* bounds runaway retry loops (CAS storms); exceeding it
        raises ``RuntimeError``.

        A crash exception raised inside a step propagates to the caller
        **after** the phase commit, so the simulated pause and the
        history prefix up to the crash stay observable — exactly what
        the crash-sweep harness replays.
        """
        history_start = len(self.history)
        results: Dict[str, Any] = {}
        current: List[Optional[MutatorOp]] = [None] * self.n
        steps = 0
        limit = max_steps if max_steps is not None else 1_000_000
        try:
            while True:
                runnable = [i for i in range(self.n)
                            if current[i] is not None or self._queues[i]]
                if not runnable:
                    break
                if steps >= limit:
                    raise RuntimeError(
                        f"mutator gang exceeded {limit} steps — livelock "
                        f"(CAS storm?) in {sorted(runnable)}")
                index = self._rng.choice(runnable)
                op = current[index]
                if op is None:
                    op = self._queues[index].pop(0)
                    op.gen = op.factory()
                    current[index] = op
                    self._record(index, op.name, "invoke", None)
                self.schedule.append(index)
                steps += 1
                self._step += 1
                op.steps += 1
                saved_mutator = None
                if self.vm is not None:
                    saved_mutator = self.vm.current_mutator
                    self.vm.current_mutator = index
                try:
                    with self.pool.on(index):
                        if event_log is not None:
                            with event_log.mutator(index):
                                marker = next(op.gen)
                        else:
                            marker = next(op.gen)
                    self.pool.workers[index].tasks += 1
                except StopIteration as stop:
                    op.result = stop.value
                    op.done = True
                    results[op.name] = stop.value
                    current[index] = None
                    self._record(index, op.name, "response", stop.value)
                    continue
                finally:
                    if self.vm is not None:
                        self.vm.current_mutator = saved_mutator
                if marker is not None:
                    kind, payload = marker[0], tuple(marker[1:])
                    if kind not in MARKER_KINDS:
                        raise ValueError(
                            f"op {op.name!r} yielded unknown marker kind "
                            f"{kind!r}")
                    self._record(index, op.name, kind, payload)
        finally:
            committed = self.pool.commit_phase(phase)
        report = GangReport(
            mutators=self.n, seed=self.seed, steps=steps,
            committed_ns=committed, results=results,
            history=list(self.history[history_start:]),
            schedule=list(self.schedule[-steps:]) if steps else [],
            busy_ns=[w.elapsed_ns for w in self.pool.workers])
        self.obs.observe("mutators.steps", steps)
        return report

    def _record(self, mutator: int, op_name: str, kind: str,
                payload: Any) -> None:
        self.history.append((self._step, mutator, op_name, kind, payload))
