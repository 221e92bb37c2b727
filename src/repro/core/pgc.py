"""Crash-consistent garbage collection for PJH (paper §4.2).

The collection itself is the region-based mark-summary-compact engine of
:mod:`repro.runtime.old_gc`; this module supplies the NVM persistence hooks
that make it recoverable:

* the mark bitmaps are persisted, then the heap is flagged as mid-collection
  and the global timestamp is bumped — making every object "stale";
* the (idempotent) summary additionally computes a *root redo log*: the new
  address of every root-table entry, persisted before any object moves;
* each copied object is persisted destination-first, then its source header
  is stamped with the new timestamp — "the timestamp of an object does not
  become valid until its whole content has been copied and persisted";
* each fully evacuated region is recorded in the persistent *region bitmap*
  so recovery can tell "a destination region which is half-overwritten"
  from "a source region which is half-copied";
* a region where some destination overlaps its own source is processed
  behind a durable *region cursor*, with self-overlapping objects moved by
  a chunked forward copy under a durable progress record (DESIGN.md
  discusses why this is the crash-safe realisation of the paper's undo-log
  argument for same-region slides, robust to objects of any size).

Setting ``flush_enabled=False`` removes every clflush/fence from the
collection — the baseline of the §6.4 "cost of recoverable GC" experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.nvm.persist import PersistDomain
from repro.runtime import layout as obj_layout
from repro.runtime.bitmap import LiveMap
from repro.runtime.old_gc import CompactionEngine, CompactStats, GCHooks
from repro.runtime.workers import WorkerPool


class NvmGCHooks(GCHooks):
    """GCHooks persisting every protocol step into the heap's NVM device."""

    def __init__(self, heap, flush_enabled: bool = True,
                 recovery: bool = False,
                 pool: Optional[WorkerPool] = None) -> None:
        from repro.core.metadata import MetadataArea
        self.heap = heap
        self.device = heap.device
        # A non-flushing metadata view implements the §6.4 baseline where
        # every clflush is removed from the collection.
        self.metadata = (heap.metadata if flush_enabled
                         else MetadataArea(heap.device, flushing=False))
        self.layout = heap.layout
        self.flush_enabled = flush_enabled
        self.recovery = recovery
        self._per_map_words = self.layout.bitmap_words // 2
        # The collector shares the heap's domain so its bulk flushes dedupe
        # against lines the mutator already enqueued; the §6.4 baseline gets
        # a disabled domain instead, removing every clflush and fence.
        self.persist = (heap.persist if flush_enabled
                        else PersistDomain(heap.device, name="pgc-noflush",
                                           enabled=False))
        # Simulated GC workers each get their own epoch stream, so one
        # worker's per-region fence ordering (destination epoch, then
        # source stamps, then the region bit) never entangles with
        # another's pending lines.  A disabled domain forks disabled.
        self._main_persist = self.persist
        self._worker_domains = ([self.persist.fork(f"gc-w{i}")
                                 for i in range(pool.n)]
                                if pool is not None else None)
        # The engine's gang (None at width 1): lets the bulk bitmap
        # persist fan out over the same workers as the engine phases.
        self.pool = pool

    def on_worker(self, index) -> None:
        if self._worker_domains is None:
            return
        self.persist = (self._main_persist if index is None
                        else self._worker_domains[index])

    # -- small persistence helpers -----------------------------------------
    def _flush(self, offset: int, count: int = 1, fence: bool = True) -> None:
        self.persist.flush(offset, count)
        if fence:
            self.persist.commit_epoch()

    def failpoint(self, site: str) -> None:
        self.heap.vm.failpoints.hit(site)

    # -- mark --------------------------------------------------------------
    def on_mark_complete(self, livemap: LiveMap) -> int:
        # Clear leftover per-collection state while the flag is still down.
        self._clear_region_bitmap()
        self.metadata.set_region_cursor(-1, 0)
        self.metadata.clear_move_record()
        self.metadata.clear_root_redo()
        # Persist the bitmaps: the durable sketch of the pre-GC heap.
        begin_words = livemap.begin.to_words()
        live_words = livemap.live.to_words()
        off = self.layout.bitmap_offset
        self._write_bitmaps(off, begin_words, live_words)
        self.failpoint("pgc.bitmaps_persisted")
        # Bump the timestamp (0 is reserved for fresh objects) and raise the
        # in-progress flag; from here on the heap is recoverable.
        timestamp = self.metadata.global_timestamp + 1
        if timestamp > obj_layout.MAX_TIMESTAMP:
            timestamp = 1
        self.metadata.set_global_timestamp(timestamp)
        self.metadata.set_gc_in_progress(True)
        self.failpoint("pgc.flag_raised")
        return timestamp

    def _write_bitmaps(self, off: int, begin_words, live_words) -> None:
        """Write + flush both mark bitmaps, fanning out over the gang.

        The chunks are disjoint, so any assignment yields the same bytes;
        each worker commits its own epoch, and every fence lands before
        the GC-in-progress flag is raised — the ordering the recovery
        protocol needs (bitmaps durable before the flag) is preserved.
        """
        spans = [(off, begin_words), (off + self._per_map_words, live_words)]
        if self.pool is None:
            for base, words in spans:
                self.device.write_block(base, words)
            self._flush(off, self.layout.bitmap_words)
            return
        chunks = []
        for base, words in spans:
            step = max(1, -(-len(words) // self.pool.n))
            for lo in range(0, len(words), step):
                chunks.append((base + lo, words[lo:lo + step]))

        def write_chunk(chunk) -> None:
            base, words = chunk
            self.device.write_block(base, words)
            self.persist.flush(base, len(words))
            self.persist.commit_epoch()

        self.pool.run_partitioned(chunks, write_chunk, phase="bitmaps",
                                  worker_hook=self.on_worker)

    def load_livemap(self, livemap: LiveMap) -> None:
        """Recovery: rebuild the livemap from its persisted words."""
        off = self.layout.bitmap_offset
        width = livemap.begin.num_words  # <= the reserved per-map stride
        livemap.begin.load_words(self.device.read_block(off, width))
        livemap.live.load_words(
            self.device.read_block(off + self._per_map_words, width))

    # -- summary / root redo ---------------------------------------------------
    def on_summary(self, engine: CompactionEngine) -> None:
        if self.recovery and self.metadata.root_redo_valid:
            return  # the redo log from the crashed run is still valid
        # Either a live collection, or a recovery from a crash that hit
        # *before* the redo was persisted — in which case no object has
        # moved yet (compaction starts only after on_summary), so the root
        # values are still pre-GC and the redo can be recomputed verbatim.
        pairs: List[Tuple[int, int]] = []
        for _name, value, index in self.heap.name_table.entries():
            if (value != obj_layout.NULL
                    and engine.space.contains(value)
                    and engine.livemap.is_marked(value)):
                slot = self.heap.name_table.value_slot_address(index)
                pairs.append((slot - self.heap.base_address,
                              engine.new_address(value)))
        off = self.layout.root_redo_offset
        if pairs:
            flat = np.array([w for pair in pairs for w in pair],
                            dtype=np.int64)
            self.device.write_block(off, flat)
            self._flush(off, len(flat))
        self.metadata.set_root_redo(len(pairs))
        self.failpoint("pgc.redo_persisted")

    def apply_root_redo(self) -> int:
        """Blindly (hence idempotently) apply the persisted root updates."""
        if not self.metadata.root_redo_valid:
            return 0
        count = self.metadata.root_redo_count
        off = self.layout.root_redo_offset
        for i in range(count):
            slot_offset = self.device.read(off + 2 * i)
            new_value = self.device.read(off + 2 * i + 1)
            self.device.write(slot_offset, new_value)
            self._flush(slot_offset, 1, fence=False)
        self.persist.commit_epoch()
        return count

    # -- region bitmap --------------------------------------------------------
    def _region_bit(self, region: int) -> Tuple[int, int]:
        return (self.layout.region_bitmap_offset + (region >> 6),
                1 << (region & 63))

    def is_region_done(self, region: int) -> bool:
        offset, bit = self._region_bit(region)
        return bool(self.device.read(offset) & bit)

    def region_done(self, region: int) -> None:
        offset, bit = self._region_bit(region)
        self.device.write(offset, self.device.read(offset) | bit)
        self._flush(offset)

    def _clear_region_bitmap(self) -> None:
        off = self.layout.region_bitmap_offset
        count = self.layout.region_bitmap_words
        self.device.write_block(off, np.zeros(count, dtype=np.int64))
        self._flush(off, count)

    # -- object persistence -------------------------------------------------------
    def flush_range(self, address: int, size_words: int) -> None:
        """Enqueue without committing; pairs with :meth:`commit_epoch`."""
        self.persist.flush(address - self.heap.base_address, size_words)

    def commit_epoch(self) -> None:
        self.persist.commit_epoch()

    def persist_range(self, address: int, size_words: int) -> None:
        self._flush(address - self.heap.base_address, size_words)

    # -- serialized-protocol state ---------------------------------------------
    def region_cursor(self):
        return self.metadata.region_cursor()

    def set_region_cursor(self, region: int, index: int) -> None:
        self.metadata.set_region_cursor(region, index)

    def move_record(self):
        # Stored base-relative so the record survives a remap; returned
        # absolute, as the engine works with absolute addresses.
        record = self.metadata.move_record()
        if record is None:
            return None
        src, dst, size, progress = record
        return (src + self.heap.base_address,
                dst + self.heap.base_address, size, progress)

    def set_move_record(self, src: int, dst: int, size: int,
                        progress: int) -> None:
        self.metadata.set_move_record(src - self.heap.base_address,
                                      dst - self.heap.base_address,
                                      size, progress)

    def set_move_progress(self, progress: int) -> None:
        self.metadata.set_move_progress(progress)

    def clear_move_record(self) -> None:
        self.metadata.clear_move_record()

    # -- finish ------------------------------------------------------------------------
    def on_finish(self, new_top: int) -> None:
        self.apply_root_redo()
        self.failpoint("pgc.redo_applied")
        self.metadata.set_top(new_top)
        self.metadata.set_alloc_scan_hint(new_top)
        self.failpoint("pgc.top_persisted")
        self.metadata.set_gc_in_progress(False)
        self.failpoint("pgc.flag_cleared")
        self.metadata.clear_root_redo()


@dataclass
class PersistentGCResult:
    stats: CompactStats
    pause_ns: float
    flushes: int
    fences: int
    flushes_deduped: int = 0
    epochs: int = 0


class PersistentGC:
    """One collection of a PJH instance.

    ``workers`` overrides the session's ``gc_workers`` knob for this one
    collection (the gc_cost scaling bench sweeps it); the default is
    whatever the VM was configured with.
    """

    def __init__(self, heap, flush_enabled: bool = True,
                 workers: Optional[int] = None) -> None:
        self.heap = heap
        self.flush_enabled = flush_enabled
        self.workers = workers

    def collect(self) -> PersistentGCResult:
        heap = self.heap
        vm = heap.vm
        pool = vm.gang("gc", self.workers)
        workers = pool.n if pool is not None else 1
        hooks = NvmGCHooks(heap, flush_enabled=self.flush_enabled, pool=pool)
        engine = CompactionEngine(
            vm.access, heap.data_space, heap.layout.region_words, hooks=hooks,
            obs=vm.obs, pool=pool)
        roots = list(heap.root_slots()) + vm.gc_roots_for_persistent()
        start_ns = vm.clock.now_ns
        before = heap.device.stats.snapshot()
        with vm.obs.span("gc.persistent", heap=heap.name, workers=workers), \
                vm.clock.scope("gc"):
            stats = engine.collect(roots)
        # PJH objects moved: the PJH->DRAM remembered set addresses are
        # stale.  The rebuild is a read-only scan, so it fans out over
        # the same gang (it is part of the pause either way).
        vm.rebuild_pjh_to_dram_remset(heap.walk(), pool=pool)
        delta = heap.device.stats.delta(before)
        vm.obs.inc("gc.persistent.collections")
        vm.obs.observe("gc.persistent.pause_ns", vm.clock.now_ns - start_ns)
        return PersistentGCResult(
            stats=stats,
            pause_ns=vm.clock.now_ns - start_ns,
            flushes=delta.flushes,
            fences=delta.fences,
            flushes_deduped=delta.flushes_deduped,
            epochs=delta.epochs,
        )
