"""Unit tests for the simulated GC worker pool and clock diversion.

The pool's whole value is determinism: given the same inputs it must
produce the same partitioning, the same execution order, the same
steals and the same committed pause — independent of dict order,
timing, or worker count quirks.  These tests pin that contract at the
mechanism level; the image-identity guarantees built on top of it are
pinned in tests/bench/test_obs_invariance.py.
"""

import pytest

from repro.nvm.clock import ChargeMeter, Clock
from repro.runtime.workers import MARK_SLICE, WorkerPool


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
        assert pool.partition(list(range(7))) \
            == [[0, 3, 6], [1, 4], [2, 5]]

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


# ----------------------------------------------------------------------
# Deterministic work-stealing (mark phase)
# ----------------------------------------------------------------------
class TestStealing:
    def test_all_items_processed_exactly_once(self):
        pool = WorkerPool(Clock(), 3)
        seen = []
        stacks = pool.partition(list(range(100)))
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
            stacks = pool.partition(list(range(n_items)))
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
