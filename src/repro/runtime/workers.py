"""Simulated GC worker pool: deterministic N-way parallelism on one clock.

The paper's collector is the *Parallel* Scavenge old GC (§4.2): mark,
summary and compact all run on a gang of GC threads.  This reproduction
executes on one Python thread, so parallelism is *simulated* the same way
time is: every worker owns a :class:`~repro.nvm.clock.ChargeMeter`, runs
its share of the work under :meth:`WorkerPool.on` (so device reads, copies
and flushes charge the worker instead of the global clock), and at each
phase barrier the pool advances the global clock once by the **maximum**
over the workers — pause time is the slowest worker, not the sum.

This is the one gang in the tree: GC, recovery, the zeroing scan, the
mutator gang and the fleet's drain all run their simulated threads on a
:class:`WorkerPool`, and nothing outside this module calls
:meth:`Clock.divert` (srclint ESP306).  DESIGN.md §12 states the contract.

Determinism is the design constraint, not an accident:

* partitioning is static round-robin (``items[i::n]``) or an explicit
  event-driven schedule with total tie-breaking (lowest region, then
  lowest worker index) — never dependent on dict order or timing;
* work-stealing in the mark phase picks the victim with the deepest
  stack (ties to the lowest index) and takes the bottom half;
* the actual Python execution order is chosen so that every task runs
  only after the tasks it depends on — the durable image a crash sweep
  observes walks through the same protocol states as a serial run.

The pool is deliberately dumb about *what* runs: the compaction engine,
the recovery driver and the zeroing scan hand it callables.  ``workers=1``
callers bypass the pool entirely and keep the exact serial code path, so
single-worker timing stays bit-identical with the pre-pool code.  That is
why ``vm.gang()`` still returns ``None`` at width 1, and it is not a fork
to collapse: a one-worker pool walks then scans and pre-reads region bits,
which presents a different line order to the simulated CPU cache — a
prototype moved the ledger's ``gc_recover/sim_ms`` 14.966 → 17.099 ms
(+219 NVM reads) with every test green.  The serial path is the reference
(DESIGN.md §12).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.nvm.clock import ChargeMeter, Clock
from repro.obs import NULL_OBS, Observatory

T = TypeVar("T")
R = TypeVar("R")

#: Objects processed per mark-phase slice before the next worker runs.
MARK_SLICE = 64


@dataclass
class SimWorker:
    """One simulated thread: an index plus its accounting."""

    index: int
    meter: ChargeMeter = field(default_factory=ChargeMeter)
    elapsed_ns: float = 0.0   # lifetime busy time across all phases
    tasks: int = 0            # items/regions processed
    steals: int = 0           # successful mark-phase steals


class WorkerPool:
    """A deterministic gang of simulated threads over one clock.

    A GC pool lives for one collection (or one recovery, or one zeroing
    scan); the mutator gang and the fleet router keep theirs.  Per-phase
    accounting resets at each :meth:`commit_phase`.
    """

    def __init__(self, clock: Clock, workers: int = 1,
                 obs: Observatory = NULL_OBS, label: str = "gc") -> None:
        self.clock = clock
        self.n = max(1, int(workers))
        self.obs = obs
        self.label = label
        self.workers = [SimWorker(i) for i in range(self.n)]
        self._diverts = [clock.divert(w.meter) for w in self.workers]

    @property
    def parallel(self) -> bool:
        return self.n > 1

    def on(self, index: int):
        """``with pool.on(i):`` runs the block on simulated thread *i*.

        Every charge inside lands on worker *i*'s meter (which the
        ``with`` yields) instead of on global time.  The object is
        cached and stateless, so blocks nest and re-enter freely; an
        exception unwinds the diversion and leaves the meter as charged
        so far, for :meth:`commit_phase` or :meth:`abandon_phase`.
        """
        return self._diverts[index]

    # ------------------------------------------------------------------
    # Partitioned fan-out (summary, zeroing scan, recovery partitions)
    # ------------------------------------------------------------------
    def run_partitioned(self, items: Sequence[T],
                        fn: Callable[[T], R],
                        phase: str,
                        worker_hook: Optional[Callable[[Optional[int]],
                                                       None]] = None
                        ) -> List[R]:
        """Run ``fn`` over *items*, worker *i* taking ``items[i::n]``.

        Each worker's slice is metered; the phase is committed before
        returning.  Results come back in the original item order.
        *worker_hook* (typically ``GCHooks.on_worker``) is invoked with
        the worker index before its slice runs — and with ``None`` at the
        end — so persisting tasks land on per-worker epoch streams.
        """
        results: List[Optional[R]] = [None] * len(items)
        try:
            for worker in self.workers:
                if worker_hook is not None:
                    worker_hook(worker.index)
                with self.on(worker.index):
                    for position in range(worker.index, len(items), self.n):
                        results[position] = fn(items[position])
                        worker.tasks += 1
        finally:
            if worker_hook is not None:
                worker_hook(None)
        self.commit_phase(phase)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Phase barriers
    # ------------------------------------------------------------------
    def commit_phase(self, phase: str, floor_ns: float = 0.0,
                     category: Optional[str] = None) -> float:
        """Barrier: advance global time by the slowest worker of the phase.

        *floor_ns* lets an event-driven scheduler (whose makespan can
        exceed any single worker's busy time because of dependency
        stalls) commit the schedule's completion time instead; *category*
        attributes the one charge (default: the innermost clock scope).
        Returns the committed nanoseconds.  Per-worker spans are emitted
        with the busy time and task count as attributes — they carry
        accounting, not wall duration, since one clock cannot express
        overlap.
        """
        elapsed = [w.meter.take() for w in self.workers]
        committed = max(max(elapsed), floor_ns)
        self.clock.charge(committed, category)
        for worker, busy in zip(self.workers, elapsed):
            worker.elapsed_ns += busy
            if busy > 0.0 or worker.tasks:
                with self.obs.span(f"{self.label}.worker",
                                   phase=phase, worker=worker.index,
                                   busy_ns=busy, tasks=worker.tasks):
                    pass
        self.obs.observe(f"{self.label}.phase_pause_ns", committed)
        for worker in self.workers:
            worker.tasks = 0
        return committed

    def abandon_phase(self) -> None:
        """Drop a phase that raised: zero every meter, charge nothing."""
        for worker in self.workers:
            worker.meter.take()
            worker.tasks = 0

    # ------------------------------------------------------------------
    # Event-driven list scheduling (compaction ready-queue)
    # ------------------------------------------------------------------
    def schedule(self, tasks: Sequence[int],
                 deps: Callable[[int], Sequence[int]],
                 run: Callable[[int, int], bool],
                 phase: str) -> float:
        """Run dependency-ordered *tasks* on the gang; return the makespan.

        *tasks* are integer ids (region numbers).  ``deps(t)`` lists the
        task ids that must complete before *t* may start; the dependency
        graph must be acyclic (for compaction it is: a region's
        destination spans only lower-numbered regions).  ``run(t, w)``
        executes task *t* metered on worker *w* and returns True when the
        task needed the *serialized-protocol token* — the durable region
        cursor and move record are singletons in the metadata area, so at
        most one serialized region may be in flight at a time and its
        simulated start is pushed behind the previous holder.

        Scheduling is greedy and total-ordered: among ready tasks pick
        the lowest id (matching the serial collector's ascending bias),
        assign it to the earliest-available worker (ties to the lowest
        index).  Python execution order equals assignment order, so every
        task really does run after its dependencies.  The ready set is a
        heap fed by unmet-dependency counts, so picking costs O(log T).
        """
        avail = [0.0] * self.n
        completion = {}
        token_free_at = 0.0
        needs = {t: tuple(deps(t)) for t in tasks}
        unmet = {t: len(wanted) for t, wanted in needs.items()}
        dependents = {}
        for t, wanted in needs.items():
            for d in wanted:
                dependents.setdefault(d, []).append(t)
        ready = [t for t in needs if not unmet[t]]
        heapq.heapify(ready)
        while ready:
            task = heapq.heappop(ready)
            worker = min(range(self.n), key=lambda i: (avail[i], i))
            with self.on(worker):
                serialized = run(task, worker)
            duration = self.workers[worker].meter.take()
            start = max(avail[worker],
                        max((completion[d] for d in needs[task]),
                            default=0.0))
            if serialized:
                start = max(start, token_free_at)
            end = start + duration
            if serialized:
                token_free_at = end
            completion[task] = end
            avail[worker] = end
            sim_worker = self.workers[worker]
            sim_worker.elapsed_ns += duration
            sim_worker.tasks += 1
            for t in dependents.get(task, ()):
                unmet[t] -= 1
                if not unmet[t]:
                    heapq.heappush(ready, t)
        if len(completion) < len(needs):
            # A cycle, or a dependency that is not among *tasks*.
            raise AssertionError(
                f"dependency cycle among regions "
                f"{sorted(t for t in needs if t not in completion)}")
        makespan = max(avail) if completion else 0.0
        return self.commit_phase(phase, floor_ns=makespan)

    # ------------------------------------------------------------------
    # Deterministic work-stealing execution (mark phase)
    # ------------------------------------------------------------------
    def run_stealing(self, stacks: List[List[T]],
                     process: Callable[[T, List[T]], None],
                     phase: str) -> float:
        """Drain per-worker *stacks* with deterministic work-stealing.

        ``process(item, stack)`` handles one item and pushes any newly
        discovered work onto *stack* (the running worker's own).  Workers
        execute round-robin in slices of :data:`MARK_SLICE` items; a
        worker with an empty stack steals the bottom half of the deepest
        stack (ties to the lowest victim index).  Returns the committed
        phase time.
        """
        assert len(stacks) == self.n
        while any(stacks):
            for worker in self.workers:
                stack = stacks[worker.index]
                if not stack:
                    victim = max(range(self.n),
                                 key=lambda i: (len(stacks[i]), -i))
                    grab = len(stacks[victim]) // 2
                    if grab == 0:
                        continue
                    # Bottom half: the oldest, usually widest, subtrees.
                    stack.extend(stacks[victim][:grab])
                    del stacks[victim][:grab]
                    worker.steals += 1
                with self.on(worker.index):
                    budget = MARK_SLICE
                    while stack and budget:
                        process(stack.pop(), stack)
                        worker.tasks += 1
                        budget -= 1
        total_steals = sum(w.steals for w in self.workers)
        if total_steals:
            self.obs.inc(f"{self.label}.steals", total_steals)
        return self.commit_phase(phase)
