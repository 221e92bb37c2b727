"""Region-based mark -> summary -> compact collection engine.

This is the Parallel-Scavenge-old-GC structure the paper describes in §4.2
and then hardens for crash consistency:

* **Mark** walks the object graph from roots and records live objects in a
  :class:`~repro.runtime.bitmap.LiveMap` (begin + live-word bitmaps).
* **Summary** derives, *only from the bitmaps*, per-region live-word counts
  and the packed destination address of every live object.  Because it reads
  nothing else, it is idempotent — re-running it after a crash yields the
  same plan, which is the keystone of the recovery path (§4.3).
* **Compact** slides live objects into a dense prefix, region by region, in
  ascending address order.  Two per-region protocols keep it recoverable:

  - the **batched protocol** (no destination/source overlap): every object
    of the region is copied with its references fixed, the contiguous
    destination span is flushed and fenced once, then the *source* headers
    are stamped with the collection's timestamp — so "the data stored in
    the original address serves as undo log" (paper §4.2) and recovery can
    tell processed objects from unprocessed ones by inspecting timestamps;
  - the **serialized protocol** (the compaction front has caught up with
    live data, so some object's destination overlaps its own source): the
    region's objects are processed one by one behind a durable *region
    cursor*, and a self-overlapping object moves via a *chunked forward
    copy* with a durable progress record — redo-safe for objects of any
    size, including objects larger than a region.

  Each fully evacuated region is recorded in a persistent *region bitmap*
  so recovery can tell "a destination region which is half-overwritten"
  from "a source region which is half-copied".

The engine itself is heap-agnostic: the DRAM old GC instantiates it with
no-op :class:`VolatileGCHooks`; the persistent GC (:mod:`repro.core.pgc`)
supplies hooks that persist every step to NVM and inject failpoints.

With a :class:`~repro.runtime.workers.WorkerPool` attached, mark, summary
and compact run on a simulated gang of GC threads (the *Parallel* in
Parallel Scavenge): mark partitions the roots and work-steals
deterministically, summary partitions the regions, and compact is driven
by a region-dependency ready-queue — a region is claimable only once
every region its destination span overlaps has been evacuated.  The
durable image is byte-identical for any worker count; only the simulated
pause (max over workers per phase) changes.  See DESIGN.md §12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.errors import HeapCorruptionError
from repro.obs import NULL_OBS, Observatory
from repro.runtime import layout
from repro.runtime.klass import FieldKind
from repro.runtime.bitmap import LiveMap
from repro.runtime.objects import HeapAccess, RootSlot
from repro.runtime.spaces import Space
from repro.runtime.workers import WorkerPool


class GCHooks:
    """Persistence and bookkeeping callbacks around the compaction steps."""

    def on_mark_complete(self, livemap: LiveMap) -> int:
        """Persist the bitmaps, flag GC-in-progress; return the timestamp."""
        raise NotImplementedError

    def on_summary(self, engine: "CompactionEngine") -> None:
        """Called after the summary plan exists (PJH persists root redo here)."""

    def is_region_done(self, region: int) -> bool:
        raise NotImplementedError

    def region_done(self, region: int) -> None:
        raise NotImplementedError

    def persist_range(self, address: int, size_words: int) -> None:
        """Flush a completed write range (no-op for volatile heaps)."""

    def flush_range(self, address: int, size_words: int) -> None:
        """Enqueue a range into the current fence epoch without committing.

        Pairs with :meth:`commit_epoch`; persistent hooks route this
        through a :class:`~repro.nvm.persist.PersistDomain` so ranges
        sharing cache lines dedupe within the epoch.  No-op for volatile
        heaps.
        """

    def commit_epoch(self) -> None:
        """Issue everything enqueued by :meth:`flush_range`, then fence."""

    # -- serialized-protocol state (durable for PJH) -----------------------
    def region_cursor(self) -> "tuple[int, int]":
        """(region, objects-done) of an in-flight serialized region,
        or (-1, 0) when none is recorded."""
        raise NotImplementedError

    def set_region_cursor(self, region: int, index: int) -> None:
        raise NotImplementedError

    def clear_region_cursor(self) -> None:
        self.set_region_cursor(-1, 0)

    def move_record(self) -> "Optional[tuple[int, int, int, int]]":
        """(src, dst, size, progress) of an in-flight chunked move."""
        raise NotImplementedError

    def set_move_record(self, src: int, dst: int, size: int,
                        progress: int) -> None:
        raise NotImplementedError

    def set_move_progress(self, progress: int) -> None:
        raise NotImplementedError

    def clear_move_record(self) -> None:
        raise NotImplementedError

    def failpoint(self, site: str) -> None:
        """Crash-injection hook (volatile heaps ignore it)."""

    def on_worker(self, index: "Optional[int]") -> None:
        """Select the persist-domain epoch stream of a simulated GC
        worker; ``None`` reselects the main/coordinator stream.  No-op
        for volatile heaps (and for single-worker persistent runs)."""

    def on_finish(self, new_top: int) -> None:
        """Apply final metadata updates (top, clear flag, clear bitmaps)."""


class VolatileGCHooks(GCHooks):
    """Hooks for the DRAM old GC: everything stays in Python memory."""

    _timestamp_counter = 0

    def __init__(self) -> None:
        self._done: Set[int] = set()

    def on_mark_complete(self, livemap: LiveMap) -> int:
        VolatileGCHooks._timestamp_counter += 1
        return VolatileGCHooks._timestamp_counter % layout.MAX_TIMESTAMP

    def is_region_done(self, region: int) -> bool:
        return region in self._done

    def region_done(self, region: int) -> None:
        self._done.add(region)

    # The engine reads the serialized-protocol state only when it
    # recovers, and a DRAM heap never does: none of it is kept.
    def set_region_cursor(self, region: int, index: int) -> None:
        pass

    def set_move_record(self, src: int, dst: int, size: int,
                        progress: int) -> None:
        pass

    def set_move_progress(self, progress: int) -> None:
        pass

    def clear_move_record(self) -> None:
        pass


@dataclass
class CompactStats:
    """Outcome of one collection."""

    live_objects: int = 0
    live_words: int = 0
    moved_objects: int = 0
    serialized_regions: int = 0
    chunked_moves: int = 0
    regions: int = 0
    reclaimed_words: int = 0
    external_slots_fixed: int = 0
    timestamp: int = 0


class CompactionEngine:
    """One collection (or recovery) over one space."""

    def __init__(self, access: HeapAccess, space: Space, region_words: int,
                 hooks: Optional[GCHooks] = None,
                 traversable: Optional[Callable[[int], bool]] = None,
                 obs: Observatory = NULL_OBS,
                 pool: Optional[WorkerPool] = None) -> None:
        self.access = access
        self.space = space
        self.region_words = region_words
        self.hooks = hooks if hooks is not None else VolatileGCHooks()
        self.obs = obs
        self.traversable = traversable or (lambda _address: False)
        # A parallel pool changes only the simulated schedule; pool=None
        # (or a 1-worker pool) keeps the exact serial code path.
        self.pool = pool if pool is not None and pool.parallel else None
        self.n_regions = (space.size_words + region_words - 1) // region_words

        self.livemap = LiveMap(space.base, space.size_words)
        self.timestamp = 0
        self._region_live: List[int] = []
        self._cum_live: List[int] = []
        self._external_slots: List[int] = []
        self.stats = CompactStats(regions=self.n_regions)
        # GC CPU work is charged against the collected space's device clock:
        # tracing an object, computing a packed address (bitmap popcounts)
        # and summarising a region are not free on real hardware either.
        self._clock = access.memory.device_of(space.base).clock

    TRACE_NS = 50.0        # per marked object: pointer chase + bitmap set
    NEW_ADDRESS_NS = 60.0  # per destination computation: bitmap popcount
    SUMMARY_NS = 200.0     # per region: live counting + plan entry

    # ------------------------------------------------------------------
    # Phase 1: mark
    # ------------------------------------------------------------------
    def mark(self, roots: Iterable[RootSlot]) -> None:
        """Trace from roots; mark in-space objects, traverse pass-through ones.

        The mark *result* is order-independent (the livemap is a set of
        bits, external-slot fixes are idempotent), so the gang's
        partitioned roots and deterministic stealing yield the same image
        as the serial single-stack trace; only the per-worker time
        accounting — and hence the pause — differs.
        """
        in_space = self.space.contains
        visited_outside: Set[int] = set()

        def consider(address: int, stack: List[int]) -> None:
            if address == layout.NULL:
                return
            if in_space(address):
                if not self.livemap.is_marked(address):
                    size = self.access.object_words(address)
                    self.livemap.mark_object(address, size)
                    self._clock.charge(self.TRACE_NS)
                    self.stats.live_objects += 1
                    self.stats.live_words += size
                    stack.append(address)
            elif self.traversable(address) and address not in visited_outside:
                visited_outside.add(address)
                stack.append(address)

        def process(current: int, stack: List[int]) -> None:
            for slot in self.access.ref_slot_addresses(current):
                target = self.access.memory.read(slot)
                if target == layout.NULL:
                    continue
                if not in_space(current) and in_space(target):
                    # Slot outside the space holds a pointer that will move.
                    self._external_slots.append(slot)
                consider(target, stack)

        pool = self.pool
        with self.obs.span("gc.mark"):
            if pool is None:
                stack: List[int] = []
                for root in roots:
                    consider(root.get(), stack)
                while stack:
                    process(stack.pop(), stack)
            else:
                stacks: List[List[int]] = [[] for _ in range(pool.n)]
                root_list = list(roots)
                for index, stack in enumerate(stacks):
                    with pool.on(index):
                        for root in root_list[index::pool.n]:
                            consider(root.get(), stack)
                pool.run_stealing(stacks, process, phase="mark")
            self.timestamp = self.hooks.on_mark_complete(self.livemap)
            self.stats.timestamp = self.timestamp
        self.obs.inc("gc.marked_objects", self.stats.live_objects)

    # ------------------------------------------------------------------
    # Phase 2: summary (idempotent — derived from bitmaps alone)
    # ------------------------------------------------------------------
    def summarize(self) -> None:
        with self.obs.span("gc.summary", regions=self.n_regions):
            size = self.space.size_words

            def bounds(r: int) -> tuple:
                start = r * self.region_words
                return start, min(start + self.region_words, size)

            if self.pool is not None:
                def region_live(r: int) -> int:
                    self._clock.charge(self.SUMMARY_NS)
                    start, end = bounds(r)
                    return self.livemap.live_words_in(start, end)
                self._region_live = self.pool.run_partitioned(
                    range(self.n_regions), region_live, phase="summary")
            else:
                self._region_live = []
                self._clock.charge(self.SUMMARY_NS * self.n_regions)
                for r in range(self.n_regions):
                    start, end = bounds(r)
                    self._region_live.append(
                        self.livemap.live_words_in(start, end))
            self._cum_live = [0]
            for live in self._region_live:
                self._cum_live.append(self._cum_live[-1] + live)
            self.hooks.on_summary(self)

    @property
    def total_live_words(self) -> int:
        return self._cum_live[-1]

    def new_address(self, address: int) -> int:
        """Packed destination of a marked object (bitmap arithmetic only)."""
        self._clock.charge(self.NEW_ADDRESS_NS)
        offset = address - self.space.base
        region = offset // self.region_words
        within = self.livemap.live_words_in(region * self.region_words, offset)
        return self.space.base + self._cum_live[region] + within

    def _region_bounds(self, region: int) -> tuple:
        start = region * self.region_words
        end = min(start + self.region_words, self.space.size_words)
        return start, end

    def _region_objects(self, region: int) -> List[int]:
        start, end = self._region_bounds(region)
        return list(self.livemap.iter_objects(start, end))

    def _region_needs_serialization(self, region: int) -> bool:
        """True when some object's destination overlaps its own source —
        the compaction front has caught up with live data."""
        for src in self._region_objects(region):
            size = self.access.object_words(src)
            if src - self.new_address(src) < size:
                return True
        return False

    # ------------------------------------------------------------------
    # Phase 3: compact
    # ------------------------------------------------------------------
    def compact(self, recovery: bool = False) -> None:
        with self.obs.span("gc.compact", recovery=recovery):
            if self.pool is not None:
                self._compact_parallel(recovery)
            else:
                for region in range(self.n_regions):
                    if self.hooks.is_region_done(region):
                        continue
                    self._evacuate_region(region, recovery)
            # All regions evacuated: any in-flight serialized-protocol state
            # is obsolete (a region bit supersedes its cursor).
            self.hooks.clear_region_cursor()
            self.hooks.clear_move_record()
        self.obs.inc("gc.moved_objects", self.stats.moved_objects)

    def _evacuate_region(self, region: int, recovery: bool) -> bool:
        """Process one region end-to-end; True when serialized.

        This is the unit of work a compaction worker claims: protocol
        choice, evacuation, the durable region bit, and the failpoint all
        happen on the claiming worker's persist-domain epoch stream.
        """
        if self._region_live[region] == 0:
            self.hooks.region_done(region)
            return False
        # A durable cursor pins the protocol choice: once a region
        # has been (partially) processed serialized, re-walking its
        # sources to re-decide would read data a completed
        # overlapping move may already have destroyed.
        if (recovery and self.hooks.region_cursor()[0] == region) \
                or self._region_needs_serialization(region):
            self._compact_region_serialized(region, recovery)
            serialized = True
        else:
            self._compact_region_batched(region, recovery)
            serialized = False
        self.hooks.region_done(region)
        self.hooks.failpoint("gc.compact.region_done")
        return serialized

    def _region_dest_deps(self, region: int) -> List[int]:
        """Regions this region's destination span overlaps (excluding
        itself — self-overlap is the serialized protocol's job).

        The destination span of region *r* is
        ``[cum_live[r], cum_live[r] + live[r])`` in space-relative words,
        which can only fall inside regions ``<= r`` — so the dependency
        graph is acyclic and a serial ascending walk (the recovery order)
        trivially satisfies it, which is why recovery is worker-count
        agnostic.
        """
        live = self._region_live[region]
        if live == 0:
            return []
        start_w = self._cum_live[region]
        d_lo = start_w // self.region_words
        d_hi = (start_w + live - 1) // self.region_words
        return [d for d in range(d_lo, d_hi + 1)
                if d != region and self._region_live[d] > 0]

    def _compact_parallel(self, recovery: bool) -> None:
        """Ready-queue compaction over the worker gang.

        A region is claimable only once every live region its destination
        span overlaps has been evacuated; regions needing the serialized
        protocol additionally contend for a single token, because the
        durable region cursor and move record are singletons in the
        metadata area.  Execution order respects the dependencies, so the
        durable image walks through the same protocol states as a serial
        collection — crash sweeps hold for any worker count.
        """
        done_at_start = {r for r in range(self.n_regions)
                         if self.hooks.is_region_done(r)}
        pending = [r for r in range(self.n_regions)
                   if r not in done_at_start]
        deps = {r: [d for d in self._region_dest_deps(r)
                    if d not in done_at_start]
                for r in pending}

        def run(region: int, worker: int) -> bool:
            self.hooks.on_worker(worker)
            try:
                return self._evacuate_region(region, recovery)
            finally:
                self.hooks.on_worker(None)

        self.pool.schedule(pending, deps.__getitem__, run, phase="compact")

    def _is_stamped(self, address: int) -> bool:
        mark = self.access.mark_of(address)
        return (not layout.mark_is_forwarded(mark)
                and layout.mark_timestamp(mark) == self.timestamp)

    def _fixed_ref(self, value: int) -> int:
        if value == layout.NULL or not self.space.contains(value):
            return value
        if not self.livemap.is_marked(value):
            raise HeapCorruptionError(
                f"live object references unmarked in-space object {value:#x}")
        return self.new_address(value)

    def _compact_region_batched(self, region: int, recovery: bool) -> None:
        """Copy protocol for a region whose objects all move strictly left.

        Persistence is batched per region, PS-GC style: every object is
        copied and its references fixed, the whole (contiguous) destination
        span is flushed and fenced once, and only then are the *source*
        headers stamped (and their lines flushed, one fence).  The paper's
        invariant is intact — a source timestamp never becomes valid before
        its destination copy is durable — while the flush traffic matches a
        clflushopt-per-line, fence-per-region implementation.
        """
        memory = self.access.memory
        new_mark = layout.mark_with_timestamp(
            layout.mark_encode(), self.timestamp)
        processed: List[tuple] = []
        for src in self._region_objects(region):
            if recovery and self._is_stamped(src):
                continue
            size = self.access.object_words(src)
            dst = self.new_address(src)
            # 1) copy without modification...
            words = memory.read_block(src, size)
            memory.write_block(dst, words)
            self.hooks.failpoint("gc.compact.copied")
            # 2) ...fix references in the copy (original is the undo log)...
            for slot in self.access.ref_slot_addresses(dst):
                memory.write(slot, self._fixed_ref(memory.read(slot)))
            # 3) ...and stamp the copy.
            self.access.set_mark(dst, new_mark)
            processed.append((src, dst, size))
            self.stats.moved_objects += 1
        if not processed:
            return
        # Epoch 1: the whole contiguous destination span.  Must commit
        # before any source stamp — a source timestamp becoming valid ahead
        # of its durable copy is exactly what REORDERED sweeps catch.
        dest_start = processed[0][1]
        dest_end = processed[-1][1] + processed[-1][2]
        self.hooks.flush_range(dest_start, dest_end - dest_start)
        self.hooks.commit_epoch()
        self.hooks.failpoint("gc.compact.dest_persisted")
        # Epoch 2: destinations are durable, stamp the sources as processed.
        # Header words of neighbouring small objects share lines and dedupe.
        for src, _dst, _size in processed:
            self.access.set_mark(src, new_mark)
            self.hooks.flush_range(src, 1)
        self.hooks.commit_epoch()
        self.hooks.failpoint("gc.compact.src_stamped")

    def _compact_region_serialized(self, region: int, recovery: bool) -> None:
        """Per-object protocol behind a durable cursor, for regions where
        some destination overlaps its own source.

        The cursor (region, objects-done) makes progress durable at object
        granularity; recovery resumes at the recorded index, so sources
        that a completed overlapping move has already destroyed are never
        re-read.  Source-header stamping is useless here (the source range
        may be inside the destination range), which is exactly why the
        cursor exists.
        """
        memory = self.access.memory
        new_mark = layout.mark_with_timestamp(
            layout.mark_encode(), self.timestamp)
        objects = self._region_objects(region)
        start_index = 0
        move = None
        if recovery:
            cursor_region, cursor_index = self.hooks.region_cursor()
            if cursor_region == region:
                start_index = cursor_index
                move = self.hooks.move_record()
        self.hooks.set_region_cursor(region, start_index)
        self.stats.serialized_regions += 1
        for index in range(start_index, len(objects)):
            src = objects[index]
            if move is not None and move[0] == src:
                # Resume the interrupted chunked move exactly where the
                # durable progress record left it.
                self._chunked_move(src, move[1], move[2],
                                   start_progress=move[3])
                move = None
            else:
                size = self.access.object_words(src)
                dst = self.new_address(src)
                if src - dst < size:
                    self.hooks.set_move_record(src, dst, size, 0)
                    self.hooks.failpoint("gc.move.recorded")
                    self._chunked_move(src, dst, size, start_progress=0)
                else:
                    words = memory.read_block(src, size)
                    memory.write_block(dst, words)
                    for slot in self.access.ref_slot_addresses(dst):
                        memory.write(slot, self._fixed_ref(memory.read(slot)))
                    self.access.set_mark(dst, new_mark)
                    self.hooks.persist_range(dst, size)
                self.stats.moved_objects += 1
            self.hooks.set_region_cursor(region, index + 1)
            self.hooks.clear_move_record()
            self.hooks.failpoint("gc.compact.serial_object_done")

    _MOVE_CHUNK_WORDS = 512

    def _chunked_move(self, src: int, dst: int, size: int,
                      start_progress: int) -> None:
        """Forward chunked copy of a self-overlapping object (dst <= src).

        Chunk width is capped at ``delta = src - dst`` so a chunk write can
        only clobber source words whose fixed-up copies are already durable
        in earlier chunks; the durable progress record (written after each
        chunk) tells recovery exactly where to resume.  References are
        fixed *as the chunk is written*, because the source stops being an
        undo log the moment the ranges overlap.  Works for any object size
        — including objects spanning many regions — and for delta == 0
        (an in-place reference fix-up).
        """
        memory = self.access.memory
        delta = src - dst
        chunk = min(self._MOVE_CHUNK_WORDS, delta) if delta > 0             else self._MOVE_CHUNK_WORDS
        self.stats.chunked_moves += 1

        # Layout info comes from whichever copy of the header is intact:
        # the destination once chunk 0 is durable, the source before that.
        header_base = dst if start_progress > 0 else src
        klass = self.access.klass_of(header_base)
        if klass.is_array:
            length = self.access.array_length(header_base)
            ref_offsets = (range(layout.ARRAY_HEADER_WORDS,
                                 layout.ARRAY_HEADER_WORDS + length)
                           if klass.element_kind is FieldKind.REF else ())
        else:
            ref_offsets = klass.ref_field_offsets()
        ref_set = set(ref_offsets)

        progress = start_progress
        new_mark = layout.mark_with_timestamp(
            layout.mark_encode(), self.timestamp)
        while progress * chunk < size:
            pos = progress * chunk
            count = min(chunk, size - pos)
            words = memory.read_block(src + pos, count)
            for i in range(count):
                if (pos + i) in ref_set:
                    words[i] = self._fixed_ref(int(words[i]))
            if pos == 0:
                words[layout.MARK_WORD_OFFSET] = new_mark
            memory.write_block(dst + pos, words)
            self.hooks.persist_range(dst + pos, count)
            progress += 1
            self.hooks.set_move_progress(progress)
            self.hooks.failpoint("gc.move.chunk_done")

    # ------------------------------------------------------------------
    # Phase 4: fix external referrers and finish
    # ------------------------------------------------------------------
    def fix_external(self, roots: Iterable[RootSlot]) -> None:
        with self.obs.span("gc.fix_external"):
            self._fix_external(roots)

    def _fix_external(self, roots: Iterable[RootSlot]) -> None:
        memory = self.access.memory
        for root in roots:
            value = root.get()
            if value != layout.NULL and self.space.contains(value) \
                    and self.livemap.is_marked(value):
                root.set(self.new_address(value))
                self.stats.external_slots_fixed += 1
        for slot in self._external_slots:
            value = memory.read(slot)
            if value != layout.NULL and self.space.contains(value) \
                    and self.livemap.is_marked(value):
                memory.write(slot, self.new_address(value))
                self.stats.external_slots_fixed += 1

    def finish(self) -> int:
        new_top = self.space.base + self.total_live_words
        self.stats.reclaimed_words = self.space.top - new_top
        self.space.set_top(new_top)
        self.hooks.on_finish(new_top)
        return new_top

    # ------------------------------------------------------------------
    # Orchestration
    # ------------------------------------------------------------------
    def collect(self, roots: Sequence[RootSlot]) -> CompactStats:
        self.mark(roots)
        self.summarize()
        self.compact()
        self.fix_external(roots)
        self.finish()
        return self.stats
