"""PersistDomain: epoch batching, dedup, pinned counts."""

import numpy as np
import pytest

from repro.nvm.clock import Clock
from repro.nvm.device import LINE_WORDS, FaultMode, NvmDevice
from repro.nvm.persist import PersistDomain


@pytest.fixture
def device():
    return NvmDevice(1 << 16, Clock())


@pytest.fixture
def domain(device):
    return PersistDomain(device, name="test")


class TestIntraEpochDedup:
    def test_duplicate_line_elided(self, device, domain):
        device.write(0, 1)
        assert domain.flush(0) == 1
        device.write(1, 2)  # same cache line
        assert domain.flush(1) == 0
        assert device.stats.flushes_deduped == 1
        assert domain.pending_lines == 1
        assert domain.commit_epoch() == 1
        assert device.stats.flushes == 1
        assert device.stats.fences == 1
        assert device.stats.epochs == 1

    def test_dedup_resets_at_epoch_boundary(self, device, domain):
        device.write(0, 1)
        domain.flush(0)
        domain.commit_epoch()
        device.write(0, 2)
        # A fresh epoch: the same line is NOT a duplicate anymore.
        assert domain.flush(0) == 1
        assert device.stats.flushes_deduped == 0
        domain.commit_epoch()
        assert device.stats.flushes == 2

    def test_contiguous_lines_coalesce_into_one_run(self, device, domain):
        for line in (3, 1, 2, 7):
            device.write(line * LINE_WORDS, line)
            domain.flush(line * LINE_WORDS)
        flush_calls = []
        inner = device.clflush
        device.clflush = lambda off, count=1, **kw: (
            flush_calls.append((off, count)), inner(off, count, **kw))
        domain.commit_epoch()
        del device.__dict__["clflush"]
        # Lines 1-3 coalesce into one sorted run, line 7 is its own.
        assert flush_calls == [(1 * LINE_WORDS, 3 * LINE_WORDS),
                               (7 * LINE_WORDS, LINE_WORDS)]
        assert device.stats.fences == 1

    def test_empty_epoch_is_free(self, device, domain):
        assert domain.commit_epoch() == 0
        assert device.stats.fences == 0
        assert device.stats.epochs == 0

    def test_disabled_domain_is_noop(self, device):
        domain = PersistDomain(device, enabled=False)
        device.write(0, 1)
        assert domain.flush(0) == 0
        domain.commit_epoch()
        domain.fence()
        assert device.stats.flushes == 0
        assert device.stats.fences == 0


class TestEpochBoundary:
    """Coalescing must never merge flushes across an epoch boundary."""

    def test_committed_epoch_survives_reordered_crash(self, device, domain):
        """Epoch 1's lines are final; epoch 2's pending lines are not.

        Under REORDERED, flushed-but-unfenced lines may revert — so if
        commit_epoch deferred its fence (merging epochs), some seed would
        revert epoch 1's line.  Pending lines of the open epoch must be
        lost (never flushed), proving no flush migrated backwards either.
        """
        for seed in range(40):
            dev = NvmDevice(1 << 12, Clock())
            dom = PersistDomain(dev, name="boundary")
            dev.set_fault_mode(FaultMode.REORDERED, seed=seed)
            dev.write(0, 11)
            dom.flush(0)
            dom.commit_epoch()           # epoch 1: fenced, final
            dev.write(LINE_WORDS, 22)    # epoch 2: enqueued, never committed
            dom.flush(LINE_WORDS)
            dev.crash()
            assert dev.read(0) == 11
            assert dev.read(LINE_WORDS) == 0

    def test_pending_lines_drain_before_the_fence(self, device, domain):
        """fence() must drain the queue, not fence around it."""
        device.write(0, 5)
        domain.flush(0)
        domain.fence()
        assert domain.pending_lines == 0
        assert device.dirty_line_count == 0
        assert not device.has_unfenced

    def test_fence_without_pending_still_fences(self, device, domain):
        # Drain point for flushes issued directly on the device.
        device.write(0, 5)
        device.clflush(0, asynchronous=True)
        domain.fence()
        assert device.stats.fences == 1
        assert device.durable_word(0) == 5


class TestPinnedFlushCounts:
    """Exact flush/fence budgets for two core protocols.

    These pin the coalescing win: if a change regresses batching (or
    silently merges epochs), the counts move and this fails.
    """

    def test_wal_append_counts(self):
        from repro.h2.wal import WriteAheadLog

        dev = NvmDevice(1 << 16, Clock())
        wal = WriteAheadLog(dev, 1024, 4096)
        before = dev.stats.snapshot()
        wal.log_begin(1)
        delta = dev.stats.delta(before)
        # BEGIN is appended but unpublished: zero flush traffic.
        assert (delta.flushes, delta.fences) == (0, 0)
        before = dev.stats.snapshot()
        wal.log_write(1, 8000,
                      np.array([1, 2, 3], dtype=np.int64),
                      np.array([4, 5, 6], dtype=np.int64))
        delta = dev.stats.delta(before)
        # Payload epoch (BEGIN + WRITE share a line: 2 lines, 1 dedup)
        # then the counter epoch (1 line) — 3 flushes, 2 fences total.
        assert delta.flushes == 3
        assert delta.fences == 2
        assert delta.flushes_deduped == 1
        assert delta.epochs == 2

    def test_gc_region_evacuation_counts(self, tmp_path):
        from repro.api import Espresso
        from repro.runtime.klass import FieldKind, field

        jvm = Espresso(tmp_path)
        jvm.create_heap("test", 1 << 20)
        person = jvm.define_class("Person", [field("id", FieldKind.INT),
                                             field("name", FieldKind.REF)])
        keep = jvm.pnew(person)
        jvm.set_root("keep", keep)
        for _ in range(10):
            jvm.pnew(person).close()
        heap = jvm.heaps.heap("test")
        before = heap.device.stats.snapshot()
        result = jvm.persistent_gc()
        delta = heap.device.stats.delta(before)
        # 591/132 for the collection itself, +3/+3 for retiring the live
        # allocation buffer first (truncate top, clear the table entry,
        # move the scan hint — one single-word epoch each).
        assert (delta.flushes, delta.fences) == (594, 135)
        assert delta.epochs == 135
        # The GC result counts the collection alone (the buffers are
        # retired before it snapshots its baseline).
        assert (result.flushes, result.fences) == (591, 132)
        assert result.epochs == 132


class TestForkDedupIndependence:
    """fork() hands each GC worker its own pending set: no false dedup
    against the parent's open epoch, no entangled epoch drains, and the
    cross-domain re-flush stays an honest (elidable) clflush."""

    def test_fork_pending_sets_are_independent(self, device, domain):
        device.write(0, 1)
        domain.flush(0)
        child = domain.fork("gc-w0")
        device.write(1, 2)                     # same cache line
        assert child.flush(1) == 1             # no false dedup vs parent
        assert device.stats.flushes_deduped == 0
        assert domain.pending_lines == 1 and child.pending_lines == 1
        child.commit_epoch()
        # The child's commit drains only the child's epoch ...
        assert domain.pending_lines == 1
        domain.commit_epoch()
        # ... and each domain issued its own clflush: the cross-domain
        # redundancy is a second real flush, never a flushes_deduped.
        assert device.stats.flushes == 2
        assert device.stats.flushes_deduped == 0
        assert device.stats.epochs == 2

    def test_worker_forks_count_dedup_per_domain(self, device, domain):
        device.write(0, 1)
        domain.flush(0)
        workers = [domain.fork(f"gc-w{i}") for i in range(2)]
        for worker in workers:
            assert worker.flush(0) == 1        # first touch in THIS domain
            assert worker.flush(0) == 0        # local duplicate dedups
        assert device.stats.flushes_deduped == 2   # one per worker, not 4

    def test_certificate_elides_the_cross_domain_reflush(self, device,
                                                         domain):
        from repro.analysis.elision import FlushElisionCertificate

        domain.elision = FlushElisionCertificate(["test"])
        child = domain.fork("gc-w0")
        device.write(0, 5)
        domain.flush(0)
        child.flush(0)
        child.commit_epoch()      # the worker makes line 0 durable first
        domain.commit_epoch()     # the parent's flush is provably redundant
        assert device.stats.flushes == 1
        assert device.stats.flushes_elided == 1
        assert device.stats.fences == 1
        assert device.stats.fences_elided == 1
