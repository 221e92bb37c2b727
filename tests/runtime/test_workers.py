"""Unit tests for the simulated GC worker pool and clock diversion.

The pool's whole value is determinism: given the same inputs it must
produce the same partitioning, the same execution order, the same
steals and the same committed pause — independent of dict order,
timing, or worker count quirks.  These tests pin that contract at the
mechanism level; the image-identity guarantees built on top of it are
pinned in tests/bench/test_obs_invariance.py.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nvm.clock import ChargeMeter, Clock
from repro.runtime import workers
from repro.runtime.workers import MARK_SLICE, WorkerPool
from tests.line_census import lines_executed


# ----------------------------------------------------------------------
# ChargeMeter + Clock.divert
# ----------------------------------------------------------------------
class TestDivert:
    def test_charge_lands_on_meter_not_clock(self):
        clock = Clock()
        meter = ChargeMeter()
        with clock.divert(meter):
            clock.charge(100.0)
            assert clock.diverted
        assert clock.now_ns == 0.0
        assert meter.take() == 100.0
        assert meter.take() == 0.0          # take() resets

    def test_divert_nests_innermost_wins(self):
        clock = Clock()
        outer, inner = ChargeMeter(), ChargeMeter()
        with clock.divert(outer):
            clock.charge(1.0)
            with clock.divert(inner):
                clock.charge(10.0)
            clock.charge(2.0)
        assert outer.take() == 3.0
        assert inner.take() == 10.0
        assert not clock.diverted

    def test_divert_does_not_touch_categories(self):
        clock = Clock()
        with clock.scope("gc"):
            with clock.divert(ChargeMeter()):
                clock.charge(50.0)
        assert clock.breakdown().get("gc", 0.0) == 0.0

    def test_meter_survives_exception(self):
        clock = Clock()
        meter = ChargeMeter()
        with pytest.raises(RuntimeError):
            with clock.divert(meter):
                clock.charge(5.0)
                raise RuntimeError("boom")
        assert not clock.diverted            # popped despite the raise
        clock.charge(7.0)
        assert clock.now_ns == 7.0


# ----------------------------------------------------------------------
# Partitioning + the phase barrier
# ----------------------------------------------------------------------
class TestPartitioned:
    def test_round_robin_partition(self):
        pool = WorkerPool(Clock(), 3)
        slices = []

        def start_slice(worker):
            if worker is not None:
                slices.append([])

        pool.run_partitioned(list(range(7)), lambda x: slices[-1].append(x),
                             phase="t", worker_hook=start_slice)
        assert slices == [[0, 3, 6], [1, 4], [2, 5]]

    def test_results_in_original_order(self):
        pool = WorkerPool(Clock(), 4)
        assert pool.run_partitioned(list(range(10)), lambda x: x * x,
                                    phase="t") \
            == [x * x for x in range(10)]

    def test_pause_is_max_over_workers(self):
        clock = Clock()
        pool = WorkerPool(clock, 2)
        # Worker 0 gets items 0 and 2 (30 ns), worker 1 gets item 1 (5 ns).
        costs = [10.0, 5.0, 20.0]
        pool.run_partitioned(list(range(3)),
                             lambda i: clock.charge(costs[i]), phase="t")
        assert clock.now_ns == 30.0          # max, not the 35 ns sum

    def test_worker_hook_called_per_worker_then_reset(self):
        calls = []
        pool = WorkerPool(Clock(), 2)
        pool.run_partitioned([1, 2, 3], lambda x: x, phase="t",
                             worker_hook=calls.append)
        assert calls == [0, 1, None]


# ----------------------------------------------------------------------
# pool.on(): the one way onto a simulated thread
# ----------------------------------------------------------------------
class TestOn:
    def test_nests_and_reenters(self):
        clock = Clock()
        pool = WorkerPool(clock, 2)
        with pool.on(0) as meter:
            clock.charge(1.0)
            with pool.on(1):
                clock.charge(10.0)
                with pool.on(0):             # re-entered inside itself
                    clock.charge(100.0)
            clock.charge(1000.0)
        assert meter is pool.workers[0].meter
        assert [w.meter.ns for w in pool.workers] == [1101.0, 10.0]
        assert clock.now_ns == 0.0 and not clock.diverted
        assert pool.commit_phase("t", category="fleet") == 1101.0
        assert clock.breakdown() == {"fleet": 1101.0}

    def test_exception_unwinds_and_abandon_charges_nothing(self):
        clock = Clock()
        pool = WorkerPool(clock, 2)
        with pytest.raises(RuntimeError):
            with pool.on(0):
                clock.charge(5.0)
                with pool.on(1):
                    clock.charge(7.0)
                    raise RuntimeError("crash")
        assert not clock.diverted            # both diversions unwound
        assert [w.meter.ns for w in pool.workers] == [5.0, 7.0]
        pool.abandon_phase()
        assert [w.meter.ns for w in pool.workers] == [0.0, 0.0]
        assert pool.commit_phase("t") == 0.0 and clock.now_ns == 0.0


# ----------------------------------------------------------------------
# Event-driven schedule (compaction ready-queue)
# ----------------------------------------------------------------------
class TestSchedule:
    def run_schedule(self, workers, costs, deps, serialized=()):
        clock = Clock()
        pool = WorkerPool(clock, workers)
        order = []

        def run(task, worker):
            order.append((task, worker))
            clock.charge(costs[task])
            return task in serialized

        makespan = pool.schedule(sorted(costs), lambda t: deps.get(t, ()),
                                 run, phase="t")
        return order, makespan, clock

    def test_execution_respects_dependencies(self):
        order, _, _ = self.run_schedule(
            2, {0: 10.0, 1: 10.0, 2: 10.0}, {2: [0, 1]})
        ranks = {t: i for i, (t, _) in enumerate(order)}
        assert ranks[2] > ranks[0] and ranks[2] > ranks[1]

    def test_deterministic_assignment(self):
        first, *_ = self.run_schedule(3, {i: float(i + 1) for i in range(6)},
                                      {})
        second, *_ = self.run_schedule(3, {i: float(i + 1) for i in range(6)},
                                       {})
        assert first == second

    def test_makespan_with_dependency_stall(self):
        # Two free tasks of 10 ns, then one 5 ns task needing both: the
        # makespan (15) exceeds every single worker's busy time.
        _, makespan, clock = self.run_schedule(
            2, {0: 10.0, 1: 10.0, 2: 5.0}, {2: [0, 1]})
        assert makespan == 15.0
        assert clock.now_ns == 15.0

    def test_serialized_tasks_never_overlap(self):
        # Four independent serialized tasks on four workers: the token
        # forces them into a chain even though the gang is idle.
        _, makespan, _ = self.run_schedule(
            4, {i: 10.0 for i in range(4)}, {}, serialized=(0, 1, 2, 3))
        assert makespan == 40.0

    def test_cycle_raises(self):
        pool = WorkerPool(Clock(), 2)
        with pytest.raises(AssertionError, match="cycle"):
            pool.schedule([0, 1], lambda t: [1 - t],
                          lambda t, w: False, phase="t")


    def test_dependency_outside_tasks_raises(self):
        # Region 7 is not scheduled, so it never completes: the guard
        # names the regions left waiting, after running the free one.
        ran = []
        pool = WorkerPool(Clock(), 2)
        with pytest.raises(AssertionError, match=r"cycle among regions "
                                                 r"\[2, 3\]"):
            pool.schedule([1, 2, 3], {1: [], 2: [7], 3: [2]}.__getitem__,
                          lambda t, w: ran.append(t) or False, phase="t")
        assert ran == [1]


def _rescan_schedule(pool, tasks, deps, run, phase):
    """``WorkerPool.schedule`` as it was before the ready heap (ISSUE 24):
    every pick rescans ``pending x deps``.  Kept as the reference."""
    avail = [0.0] * pool.n
    completion = {}
    token_free_at = 0.0
    pending = list(tasks)
    while pending:
        ready = [t for t in pending
                 if all(d in completion for d in deps(t))]
        if not ready:
            raise AssertionError(
                f"dependency cycle among regions {sorted(pending)}")
        task = min(ready)
        worker = min(range(pool.n), key=lambda i: (avail[i], i))
        with pool.on(worker):
            serialized = run(task, worker)
        duration = pool.workers[worker].meter.take()
        start = max(avail[worker],
                    max((completion[d] for d in deps(task)),
                        default=0.0))
        if serialized:
            start = max(start, token_free_at)
        end = start + duration
        if serialized:
            token_free_at = end
        completion[task] = end
        avail[worker] = end
        sim_worker = pool.workers[worker]
        sim_worker.elapsed_ns += duration
        sim_worker.tasks += 1
        pending.remove(task)
    makespan = max(avail) if completion else 0.0
    return pool.commit_phase(phase, floor_ns=makespan)


@st.composite
def _dags(draw):
    """Distinct region ids in any order; each depends on lower ids only
    (listed in any order, possibly twice), as compaction's do."""
    ids = draw(st.lists(st.integers(0, 40), unique=True, max_size=14))
    deps = {}
    for t in ids:
        lower = [d for d in ids if d < t]
        deps[t] = draw(st.lists(st.sampled_from(lower), max_size=4)) \
            if lower else []
    costs = {t: draw(st.sampled_from([0.0, 1.5, 10.0, 10.0, 37.25]))
             for t in ids}
    serialized = {t for t in ids if draw(st.booleans())}
    return ids, deps, costs, serialized


class _SpanRecorder:
    """The slice of ``Observatory`` a pool uses, kept as a list."""

    def __init__(self):
        self.seen = []

    @contextmanager
    def span(self, name, **attrs):
        self.seen.append((name, attrs))
        yield

    def observe(self, name, value):
        self.seen.append((name, value))


class TestScheduleAgainstRescan:
    @staticmethod
    def drive(schedule, n_workers, dag):
        ids, deps, costs, serialized = dag
        clock = Clock()
        obs = _SpanRecorder()   # per-worker busy_ns and task counts
        pool = WorkerPool(clock, n_workers, obs=obs)
        assigned = []

        def run(task, worker):
            assigned.append((task, worker))
            clock.charge(costs[task])
            return task in serialized

        makespan = schedule(pool, ids, deps.__getitem__, run, "t")
        return (assigned, makespan, clock.now_ns, obs.seen,
                [w.elapsed_ns for w in pool.workers])

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(st.integers(1, 4), _dags())
    def test_same_schedule(self, n_workers, dag):
        assert self.drive(WorkerPool.schedule, n_workers, dag) \
            == self.drive(_rescan_schedule, n_workers, dag)

    def test_picking_is_linear_in_the_regions(self):
        def lines(regions):
            # Each region's destination overlaps the two before it.
            deps = {r: [d for d in (r - 2, r - 1) if d >= 0]
                    for r in range(regions)}
            pool = WorkerPool(Clock(), 4)
            return lines_executed(workers, lambda: pool.schedule(
                range(regions), deps.__getitem__, lambda t, w: t % 5 == 0,
                phase="t"))

        base, grown = lines(100), lines(400)
        # The rescan of pending x deps per pick measured 14x here.
        assert grown <= 4.6 * base, (base, grown)


# ----------------------------------------------------------------------
# Deterministic work-stealing (mark phase)
# ----------------------------------------------------------------------
class TestStealing:
    def test_all_items_processed_exactly_once(self):
        pool = WorkerPool(Clock(), 3)
        seen = []
        stacks = [list(range(i, 100, 3)) for i in range(3)]
        pool.run_stealing(stacks, lambda item, stack: seen.append(item),
                          phase="t")
        assert sorted(seen) == list(range(100))

    def test_empty_worker_steals_bottom_half_of_deepest(self):
        pool = WorkerPool(Clock(), 2)
        # Worker 1 starts empty; worker 0 has more than one slice of work.
        items = list(range(MARK_SLICE * 2))
        stacks = [list(items), []]
        pool.run_stealing(stacks, lambda item, stack: None, phase="t")
        assert pool.workers[1].steals == 1

    def test_stealing_is_deterministic(self):
        def trace(n_items):
            pool = WorkerPool(Clock(), 4)
            order = []
            stacks = [list(range(i, n_items, 4)) for i in range(4)]
            pool.run_stealing(
                stacks, lambda item, stack: order.append(item), phase="t")
            return order, [w.steals for w in pool.workers]

        assert trace(500) == trace(500)

    def test_discovered_work_stays_with_discoverer(self):
        pool = WorkerPool(Clock(), 2)
        processed = []

        def process(item, stack):
            processed.append(item)
            if item < 4:                     # each item spawns a child
                stack.append(item + 100)

        pool.run_stealing([[0, 2], [1, 3]], process, phase="t")
        assert sorted(processed) == [0, 1, 2, 3, 100, 101, 102, 103]
