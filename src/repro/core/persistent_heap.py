"""A PJH instance: the persistent space, its components, and allocation.

This class implements the :class:`~repro.runtime.vm.PersistentSpaceService`
protocol, so an instance plugs straight into an
:class:`~repro.runtime.vm.EspressoVM` and ``vm.pnew(...)`` allocates here.

Crash-consistent allocation follows §4.1 of the paper:

1. the Klass pointer is fetched (and, on first use of a class, its Klass is
   created in the Klass segment);
2. memory is bump-allocated and the replicated ``top`` in the metadata area
   is persisted *immediately* (clflush + sfence) so a crash cannot make
   allocated objects "unallocated ... and truncated during recovery";
3. the header (and zeroed body) is initialised and the Klass pointer update
   persisted, so an object below the durable ``top`` never refers to
   corrupted Klass metadata.

A crash exactly between steps 2 and 3 leaves one object below ``top`` whose
header never became durable; :meth:`validate_and_truncate` detects it on
load (its klass word resolves to nothing) and truncates the heap at that
object — the recovery behaviour the paper's ordering argument implies.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (HeapCorruptionError, IllegalArgumentException,
                          OutOfMemoryError)
from repro.nvm.device import NvmDevice
from repro.nvm.persist import PersistDomain, PersistEventLog
from repro.nvm.publish import publish_point
from repro.runtime import layout as obj_layout
from repro.runtime.klass import FieldKind, Klass
from repro.runtime.objects import RootSlot
from repro.runtime.spaces import Space
from repro.runtime.vm import EspressoVM, PersistentSpaceService

from repro.core.frame_segment import FrameSegment
from repro.core.klass_segment import KlassSegment
from repro.core.metadata import (ALLOC_BUF_MAX_WORDS, ALLOC_BUF_SLOTS,
                                 HeapLayout, MetadataArea)
from repro.core.name_table import ENTRY_TYPE_ROOT, NameTable
from repro.core.safety import SafetyPolicy, UserGuaranteedPolicy


class _AllocBuffer:
    """One mutator's live allocation window (absolute addresses).

    The window [start, end) was durably zeroed and covered by the durable
    ``top`` when it was claimed; ``cursor`` (volatile) is where the next
    object goes.  The matching metadata table entry makes the claim
    recoverable: a crash leaves the tail [cursor, end) durably zero, and
    recovery truncates or plugs it (DESIGN.md §17).
    """

    __slots__ = ("slot", "start", "cursor", "end")

    def __init__(self, slot: int, start: int, end: int) -> None:
        self.slot = slot
        self.start = start
        self.cursor = start
        self.end = end

    @property
    def tail_words(self) -> int:
        return self.end - self.cursor


class PersistentHeap(PersistentSpaceService):
    """One mounted PJH instance (device + metadata + segments + data heap)."""

    def __init__(self, name: str, vm: EspressoVM, device: NvmDevice,
                 base_address: int,
                 safety: Optional[SafetyPolicy] = None) -> None:
        self.name = name
        self.vm = vm
        self.device = device
        self.base_address = base_address
        self.metadata = MetadataArea(device)
        # Data-heap persist domain: flush_words/fence and GC route through
        # it, so flushes of lines shared by adjacent objects dedupe within
        # one fence epoch.
        self.persist = PersistDomain(device, name=f"pjh:{name}")
        self.safety = safety if safety is not None else UserGuaranteedPolicy()
        self.layout: HeapLayout = None  # type: ignore[assignment]
        self.name_table: NameTable = None  # type: ignore[assignment]
        self.klass_segment: KlassSegment = None  # type: ignore[assignment]
        self.frames: FrameSegment = None  # type: ignore[assignment]
        self.data_space: Space = None  # type: ignore[assignment]
        # Live allocation buffers, keyed by mutator slot.
        self._buffers: dict = {}

    # ------------------------------------------------------------------
    # Mounting
    # ------------------------------------------------------------------
    def _mount_components(self) -> None:
        self.layout = self.metadata.layout()
        self.name_table = NameTable(
            self.device, self.metadata, self.layout.name_table_offset,
            self.layout.name_table_capacity, self.base_address, self.vm.memory)
        self.klass_segment = KlassSegment(
            self.device, self.metadata, self.name_table, self.base_address,
            self.vm.registry)
        self.frames = FrameSegment(
            self.device, self.metadata, self.base_address, self.vm)
        self.data_space = Space(
            f"pjh:{self.name}", self.base_address + self.layout.data_offset,
            self.layout.data_words)
        self.data_space.set_top(self.metadata.top)
        # Volatile: no data-space word at or above this address has been
        # written since the device was created, so it is durably zero
        # already.  Only a freshly created heap lowers it to the base; a
        # loaded image keeps it at the end, and every claim zeroes.
        self._never_written = self.data_space.end
        # A charged device read whose value nothing uses: pinned simulated
        # time and read counts include it, as they do the same read after
        # a slow-path allocation and after a collection.
        self.metadata.top
        # A session-level flush-elision certificate covers every domain
        # of a newly mounted heap (certify_elision installs it the same
        # way on heaps already mounted when it runs).
        cert = self.vm.elision_certificate
        if cert is not None:
            self.install_elision_certificate(cert)

    def install_elision_certificate(self, cert) -> None:
        """Hand a :class:`~repro.analysis.elision.FlushElisionCertificate`
        to every persist domain of this heap (data, metadata, name table,
        Klass segment, frames — GC-worker forks inherit it).

        Installing onto a flush-disabled domain the certificate claims to
        cover revokes it: the §6.4 no-flush baseline must not report
        elisions as wins.
        """
        for domain in (self.persist, self.metadata.persist,
                       self.name_table.persist, self.klass_segment.persist,
                       self.frames.persist):
            if (cert is not None and not domain.enabled
                    and cert.covers_domain(domain.name)):
                cert.revoke("covered domain is flush-disabled", domain.name)
            domain.elision = cert

    def initialize_fresh(self, heap_layout: HeapLayout) -> None:
        """First-time setup of a newly created heap."""
        self.metadata.initialize(heap_layout, self.base_address)
        self._mount_components()
        self._never_written = self.data_space.base

    def mount_existing(self) -> None:
        """Attach to a loaded image (validation done by the heap manager)."""
        self.metadata.validate()
        self._mount_components()

    # ------------------------------------------------------------------
    # PersistentSpaceService protocol
    # ------------------------------------------------------------------
    def contains(self, address: int) -> bool:
        return self.data_space.contains(address)

    def in_heap_range(self, address: int) -> bool:
        """Anywhere inside the mapped device (data, segments, tables)."""
        return (self.base_address <= address
                < self.base_address + self.device.size_words)

    def persistent_klass_for(self, volatile_klass: Klass) -> Klass:
        return self.klass_segment.persistent_klass_for(volatile_klass)

    def root_slots(self) -> Sequence[RootSlot]:
        return self.name_table.root_slots()

    def on_ref_store(self, slot_address: int, value_address: int,
                     value_is_volatile: bool) -> None:
        self.safety.check_ref_store(slot_address, value_address,
                                    value_is_volatile)

    def on_class_defined(self, klass: Klass) -> None:
        self.klass_segment.link_alias_if_known(klass)

    def on_ref_publish(self, slot_address: int, value_address: int) -> None:
        log = self.device.event_log
        if log is not None and self.contains(value_address):
            log.record_publish(slot_address - self.base_address,
                               value_address - self.base_address)

    # ------------------------------------------------------------------
    # Persist-order event tracing (repro.analysis.hazards)
    # ------------------------------------------------------------------
    def enable_event_log(self, name: str = "trace") -> PersistEventLog:
        """Start recording this heap's store/flush/fence/publish traffic.

        While a log is attached, the VM keeps a publish tap active so
        every PJH-to-PJH reference store is recorded as a publish.
        """
        if self.device.event_log is not None:
            raise ValueError(f"heap {self.name!r} already has an event log")
        log = PersistEventLog(name=name)
        self.device.event_log = log
        self.vm._publish_taps += 1
        return log

    def disable_event_log(self) -> PersistEventLog:
        log = self.device.event_log
        if log is None:
            raise ValueError(f"heap {self.name!r} has no event log")
        self.device.event_log = None
        self.vm._publish_taps -= 1
        return log

    # ------------------------------------------------------------------
    # Crash-consistent allocation (paper §4.1)
    # ------------------------------------------------------------------
    def allocate_instance(self, klass: Klass) -> int:
        self.safety.check_pnew(klass)
        address = self._allocate_raw(klass.instance_words)
        self._init_object(address, klass, None)
        self.vm.obs.inc("pjh.alloc.objects")
        return address

    def allocate_array(self, klass: Klass, length: int) -> int:
        self.safety.check_pnew(klass)
        address = self._allocate_raw(klass.array_words(length))
        self._init_object(address, klass, length)
        self.vm.obs.inc("pjh.alloc.objects")
        return address

    # Allocation proceeds TLAB-style: each mutator bump-allocates out of a
    # private buffer of ``vm.alloc_buffer_words`` words (HotSpot's
    # thread-local allocation buffers), so the clflush+sfence of step 2 is
    # paid once per buffer refill rather than once per object.  The claim
    # protocol keeps the paper's ordering: the window is durably zeroed,
    # the replicated top advances over it, and a metadata table entry
    # records the claim — all fenced before the first object lands in it.
    # A crash leaves the unclaimed tail durably zero; recovery truncates it
    # (topmost buffer) or plugs it with an int[] filler (interior buffer).
    # Override per session with EspressoConfig(alloc_buffer_words=...).
    def _allocate_raw(self, size_words: int) -> int:
        slot = self.vm.current_mutator
        buffer_words = min(self.vm.alloc_buffer_words or 0,
                           ALLOC_BUF_MAX_WORDS)
        buffered = (0 <= slot < ALLOC_BUF_SLOTS
                    and buffer_words >= 2 * obj_layout.ARRAY_HEADER_WORDS)
        if buffered:
            buf = self._buffers.get(slot)
            if buf is None or not self._fits(buf.tail_words, size_words):
                if self._fits(buffer_words, size_words):
                    try:
                        buf = self._refill_buffer(slot, buffer_words)
                    except OutOfMemoryError:
                        buf = None  # buffer won't fit; try a direct claim
                else:
                    buf = None  # oversize for a fresh buffer
            if buf is not None:
                address = buf.cursor
                buf.cursor += size_words
                self.vm.failpoints.hit("pjh.alloc.top_persisted")
                return address
        # Oversize (or unbuffered) allocation: claim directly from the
        # space with a per-object top persist — the §4.1 protocol verbatim.
        # A torn oversize object is always topmost (the claim and header
        # init happen inside one mutator step), so the load-time tail walk
        # truncates it without needing a table entry.
        address = self._claim_words(size_words)
        self._update_scan_hint(
            min([b.start for b in self._buffers.values()] + [address]))
        self.vm.failpoints.hit("pjh.alloc.top_persisted")
        return address

    def _update_scan_hint(self, hint: int) -> None:
        if self.metadata.alloc_scan_hint != hint:
            self.metadata.set_alloc_scan_hint(hint)

    @staticmethod
    def _fits(available_words: int, size_words: int) -> bool:
        """Min-gap rule: an allocation fits iff it leaves a tail of 0 or
        >= ARRAY_HEADER_WORDS words, so every crash-time or retirement
        tail can hold an int[] filler (or nothing at all)."""
        remainder = available_words - size_words
        return remainder == 0 or remainder >= obj_layout.ARRAY_HEADER_WORDS

    def _claim_words(self, size_words: int) -> int:
        """Claim a durably-zeroed window at the top of the data space and
        advance the replicated durable top over it (§4.1 step 2).

        Zero first, top second: after a compacting GC the space above the
        old top still holds stale object images, and a crash between the
        top bump and the first header flush must not let the load-time
        tail walk resurrect them.  Only the part below the never-written
        frontier needs it; the rest is durably zero already.
        """
        address = self.data_space.allocate(size_words)
        if address is None:
            self.collect()
            address = self.data_space.allocate(size_words)
        if address is None:
            raise OutOfMemoryError(
                f"PJH {self.name!r} cannot satisfy {size_words}-word "
                f"allocation ({self.data_space.free_words} words free)")
        end = address + size_words
        written = min(end, self._never_written) - address
        if written > 0:
            offset = address - self.base_address
            self.device.fill(offset, written, 0)
            self.persist.persist(offset, written)
        self._never_written = max(self._never_written, end)
        self.metadata.set_top(self.data_space.top)
        self.metadata.top  # charged read, see _mount_components
        return address

    def _refill_buffer(self, slot: int, buffer_words: int) -> _AllocBuffer:
        """Retire *slot*'s old buffer and claim a fresh durably-zero one.

        Claim order (each step its own fenced epoch, so the reordered
        fault model cannot swap them): zero the window, advance the
        durable top, publish the table entry, lower the scan hint.  A
        crash after the top bump but before the entry leaves a durably
        zero topmost window with no claim — the classic tail walk
        truncates it.  An entry is only ever durable *after* the top
        covers its window.
        """
        self._retire_buffer(slot)
        start = self._claim_words(buffer_words)
        buf = _AllocBuffer(slot, start, start + buffer_words)
        self.metadata.set_alloc_buffer_entry(
            slot, start - self.data_space.base, buffer_words)
        self._buffers[slot] = buf
        # Scan hint: load-time validation starts at the lowest live
        # buffer, below which every header (and filler) is already fenced.
        self._update_scan_hint(min(b.start for b in self._buffers.values()))
        self.vm.failpoints.hit("pjh.alloc.buffer_claimed")
        self.vm.obs.inc("pjh.alloc.buffer_refills")
        return buf

    def _retire_buffer(self, slot: int) -> None:
        """Plug *slot*'s unused tail with an int[] filler and drop the
        claim.  Filler first, entry clear second: a crash in between
        leaves a claim whose window parses cleanly, which recovery simply
        un-claims."""
        buf = self._buffers.pop(slot, None)
        if buf is None:
            return
        if buf.cursor < buf.end:
            self._write_filler(buf.cursor, buf.end - buf.cursor)
        self.metadata.clear_alloc_buffer_entry(slot)
        self.vm.failpoints.hit("pjh.alloc.buffer_retired")

    def _retire_all_buffers(self) -> None:
        """Settle every live buffer so the heap parses linearly again
        (GC, clean unload, image canonicalization).  The topmost buffer's
        tail is given back by retreating the top; interior tails get
        fillers."""
        if not self._buffers:
            return
        for slot in sorted(self._buffers,
                           key=lambda s: -self._buffers[s].end):
            buf = self._buffers[slot]
            if buf.cursor < buf.end and buf.end == self.data_space.top:
                del self._buffers[slot]
                self.data_space.set_top(buf.cursor)
                self.metadata.set_top(buf.cursor)
                self.metadata.clear_alloc_buffer_entry(slot)
                self.vm.failpoints.hit("pjh.alloc.buffer_retired")
            else:
                self._retire_buffer(slot)
        self._update_scan_hint(self.metadata.top)

    def _write_filler(self, address: int, words: int) -> None:
        """Overwrite [address, address+words) with a durable int[] filler
        so the heap stays linearly parseable (*words* is 0-or->=3 by the
        min-gap rule).  Fillers are unreachable, so the next collection
        reclaims them."""
        filler_klass = self.persistent_klass_for(
            self.vm.array_klass(FieldKind.INT))
        offset = address - self.base_address
        self.device.write_block(offset, np.zeros(words, dtype=np.int64))
        self.device.write(offset + obj_layout.MARK_WORD_OFFSET,
                          obj_layout.mark_encode())
        self.device.write(offset + obj_layout.KLASS_WORD_OFFSET,
                          filler_klass.address)
        self.device.write(offset + obj_layout.ARRAY_LENGTH_OFFSET,
                          words - obj_layout.ARRAY_HEADER_WORDS)
        self.persist.persist(offset, words)
        self.vm.obs.inc("pjh.alloc.fillers")

    def _init_object(self, address: int, klass: Klass,
                     length: Optional[int]) -> None:
        # Step 3: initialise the header, then persist it.  The body is
        # durably zero already: every object lies in a window its claim
        # zeroed (DESIGN.md §19).  Per the paper (§3.5), pnew only
        # guarantees the heap-related metadata — here the header line, so
        # the Klass pointer update is durable — while field data stays
        # volatile until the application flushes it explicitly.
        offset = address - self.base_address
        self.device.write(offset + obj_layout.MARK_WORD_OFFSET,
                          obj_layout.mark_encode())
        self.device.write(offset + obj_layout.KLASS_WORD_OFFSET, klass.address)
        if length is not None:
            self.device.write(offset + obj_layout.ARRAY_LENGTH_OFFSET, length)
        # One epoch per object: truncate-at-first-bad-header recovery needs
        # every published header durable before the next allocation.
        self.persist.persist(offset, obj_layout.ARRAY_HEADER_WORDS
                             if length is not None else obj_layout.HEADER_WORDS)
        self.vm.failpoints.hit("pjh.alloc.object_persisted")

    # ------------------------------------------------------------------
    # Persistence primitives (the flush APIs build on these)
    # ------------------------------------------------------------------
    def flush_words(self, address: int, count: int = 1,
                    fence: bool = True) -> int:
        """Enqueue the covering lines in the heap's persist domain.

        With ``fence`` the epoch commits immediately (classic
        clflush+sfence); without, the lines stay pending until the next
        :meth:`fence`/commit, deduping against other flushes in the epoch.
        Returns the number of newly enqueued cache lines.
        """
        added = self.persist.flush(address - self.base_address, count)
        if fence:
            self.persist.commit_epoch()
        return added

    def fence(self) -> None:
        self.persist.fence()

    # ------------------------------------------------------------------
    # Heap walking and load-time validation
    # ------------------------------------------------------------------
    def parse(self, start: int, end: int, resolve=None
              ) -> Iterator[Tuple[int, Optional[Klass], int]]:
        """Yield ``(address, klass, size)`` for each object over [start,
        end), in address order, reading each header word once and hopping
        the unfilled tail of every live allocation buffer.  The parse stops
        at the first header whose klass word *resolve* (default: the VM's
        registry) maps to None, or whose body overruns *end*, and then
        yields ``(stop, None, 0)`` last.  A negative array length raises.
        """
        if resolve is None:
            resolve = self.vm.registry.find
        tails = {b.cursor: b.end for b in self._buffers.values()
                 if b.cursor < b.end}
        read = self.device.read
        cursor = start
        while cursor < end:
            skip = tails.get(cursor)
            if skip is not None:
                cursor = skip
                continue
            offset = cursor - self.base_address
            klass = resolve(read(offset + obj_layout.KLASS_WORD_OFFSET))
            if klass is None:
                break
            if klass.is_array:
                length = read(offset + obj_layout.ARRAY_LENGTH_OFFSET)
                if length < 0:
                    raise IllegalArgumentException(
                        f"object @{cursor:#x} ({klass.name}): unsizeable: "
                        f"negative array length {length}")
                size = klass.array_words(length)
            else:
                size = klass.instance_words
            if cursor + size > end:
                break
            yield cursor, klass, size
            cursor += size
        if cursor < end:
            yield cursor, None, 0

    def walk(self) -> Iterator[int]:
        """Yield the address of every object below top, in address order;
        raise if the heap does not parse to its top."""
        top = self.data_space.top
        for address, klass, _size in self.parse(self.data_space.base, top):
            if klass is None:
                raise HeapCorruptionError(f"PJH {self.name!r}: object "
                                          f"@{address:#x} does not parse")
            yield address

    def _settle_buffer_claims(self) -> int:
        """Recovery for crashed allocation-buffer claims (DESIGN.md §17).

        Parses every claimed window recorded in the metadata table, highest
        first.  A window that parses to its end was fully used — the claim
        is simply dropped.  A window with a durably-zero tail either loses
        the tail (topmost window: the durable top retreats to the last
        good object) or gets an int[] filler over it (interior window), so
        the heap parses linearly again.  Every step is idempotent: a crash
        during recovery leaves either the old shape (re-runs identically)
        or the repaired shape with a stale claim (re-parse succeeds and
        just drops the claim).  Returns the words truncated.
        """
        base = self.data_space.base
        running_top = self.data_space.top
        truncated = 0
        entries = self.metadata.alloc_buffer_entries()
        for slot, rel_start, extent in sorted(entries,
                                              key=lambda e: -e[1]):
            start = base + rel_start
            if start >= running_top:
                # Stale claim above the durable frontier (left by a crash
                # between an earlier recovery's truncation and its entry
                # clear): nothing durable lives in it.
                self.metadata.clear_alloc_buffer_entry(slot)
                continue
            end = min(start + extent, running_top)
            cursor, objects = end, []
            for address, klass, _size in self.parse(start, end):
                if klass is None:
                    cursor = address
                else:
                    objects.append(address)
            gap = end - cursor
            if gap and gap < obj_layout.ARRAY_HEADER_WORDS:
                # Too small to hold a filler.  Every completed allocation
                # leaves a tail of 0 or >= ARRAY_HEADER_WORDS words (the
                # min-gap rule), so this shape only arises when the torn
                # fault model persisted the last object's klass word but
                # not its array length — roll that object back into the
                # gap; its allocation never finished its persist epoch.
                cursor = objects.pop()
                gap = end - cursor
            if gap:
                if end == running_top:
                    running_top = cursor
                    truncated += gap
                    self.data_space.set_top(cursor)
                    self.metadata.set_top(cursor)
                else:
                    self._write_filler(cursor, gap)
            self.metadata.clear_alloc_buffer_entry(slot)
        return truncated

    def validate_and_truncate(self) -> int:
        """Settle crashed buffer claims, then drop a trailing object whose
        header never became durable.

        Returns the number of words truncated (0 in the common case).
        """
        truncated = self._settle_buffer_claims()
        start = self.data_space.base
        hint = self.metadata.alloc_scan_hint
        top = self.data_space.top
        if start <= hint <= top:
            start = hint
        for stop, klass, _size in self.parse(start, top):
            if klass is None:
                truncated += top - stop
                self.data_space.set_top(stop)
                self.metadata.set_top(stop)
        return truncated

    def zeroing_scan(self, workers: Optional[int] = None) -> int:
        """Nullify every pointer that leaves this PJH (zeroing safety).

        Returns the number of pointers nullified.  Cost is proportional to
        the number of objects — the linear curve of Figure 18.  With
        ``workers > 1`` (default: the session's ``gc_workers`` knob) the
        object list is partitioned round-robin over a simulated worker
        gang; every object's slots are written by exactly one worker, so
        the resulting image is identical and only the simulated scan time
        (max over workers) shrinks.
        """
        pool = self.vm.gang("zeroing", workers)
        if pool is not None:
            # Each worker discovers its own share of the walk: region
            # summaries let a parallel loader jump straight to its slice,
            # so the header reads that find object boundaries are charged
            # to the same worker that will scan the object's slots.
            addresses = []
            walker = self.walk()
            while True:
                with pool.on(len(addresses) % pool.n):
                    address = next(walker, None)
                if address is None:
                    break
                addresses.append(address)
            counts = pool.run_partitioned(
                addresses, self._zero_out_of_heap_refs, phase="scan")
            nullified = sum(counts)
        else:
            nullified = sum(map(self._zero_out_of_heap_refs, self.walk()))
        if nullified:
            self.device.persist_all()
        return nullified

    def _zero_out_of_heap_refs(self, address: int) -> int:
        memory = self.vm.memory
        nullified = 0
        for slot in self.vm.access.ref_slot_addresses(address):
            value = memory.read(slot)
            if value != obj_layout.NULL and not self.in_heap_range(value):
                memory.write(slot, obj_layout.NULL)
                nullified += 1
        return nullified

    # ------------------------------------------------------------------
    # Durable-image canonicalization (resumable-task finalize, §14)
    # ------------------------------------------------------------------
    def canonicalize_durable_image(self) -> None:
        """Scrub every area whose durable bytes legitimately diverge
        between a clean run and a crashed-and-resumed run of the same
        task: the data tail above ``top`` (dead TLAB windows, truncated
        allocations), both GC bitmap areas, the GC scratch area, the root
        redo log, and the frame segment itself.  Pure overwrite with
        canonical (zero) values, so replaying the scrub after a crash
        converges on the same durable bytes — the property the resume
        sweep's SHA-256 check rests on.
        """
        # Settle live allocation buffers first: the topmost tail retreats
        # the top, so the canonical image's ``top`` is the true object
        # frontier in clean and resumed runs alike.
        self._retire_all_buffers()
        layout = self.layout
        areas = [
            (layout.bitmap_offset, layout.bitmap_words),
            (layout.region_bitmap_offset, layout.region_bitmap_words),
            (layout.scratch_offset, layout.scratch_words),
            (layout.root_redo_offset, layout.root_redo_words),
        ]
        tail = self.metadata.top - self.base_address
        end = layout.data_offset + layout.data_words
        if end > tail:
            areas.append((tail, end - tail))
        for offset, words in areas:
            if words:
                self.device.fill(offset, words, 0)
                self.persist.persist(offset, words)
        self.metadata.set_alloc_scan_hint(self.metadata.top)
        self.metadata.scrub_gc_progress()
        self.frames.reset()

    # ------------------------------------------------------------------
    # Roots API backing (setRoot/getRoot go through the heap manager)
    # ------------------------------------------------------------------
    @publish_point("heap root binding")
    def set_root(self, root_name: str, address: int) -> None:
        # Publishing store: once the name-table entry lands, *address* is
        # recoverable.  The entry itself is persisted before the count
        # bump inside NameTable.put; durability of the object graph the
        # root references is the caller's obligation (paper §3 flush API).
        self.name_table.put(ENTRY_TYPE_ROOT, root_name, address)

    def get_root(self, root_name: str) -> Optional[int]:
        value = self.name_table.lookup(ENTRY_TYPE_ROOT, root_name)
        if value == obj_layout.NULL:
            return None
        return value

    # ------------------------------------------------------------------
    # GC entry (implemented in repro.core.pgc; bound here for allocation)
    # ------------------------------------------------------------------
    def collect(self):
        from repro.core.pgc import PersistentGC
        # The collector walks and compacts a linear heap: settle every
        # live buffer first (fillers become garbage and are reclaimed).
        self._retire_all_buffers()
        result = PersistentGC(self).collect()
        self.metadata.top  # charged read, see _mount_components
        return result

    @property
    def used_words(self) -> int:
        return self.data_space.used_words

    def stats(self) -> dict:
        """Operational snapshot of the heap: sizes, object census, device
        traffic.  The walk is O(objects); intended for tooling, not hot
        paths.
        """
        by_klass: dict = {}
        for address in self.walk():
            name = self.vm.access.klass_of(address).name
            by_klass[name] = by_klass.get(name, 0) + 1
        return {
            "name": self.name,
            "base_address": self.base_address,
            "data_words": self.layout.data_words,
            "used_words": self.data_space.used_words,
            "free_words": self.data_space.free_words,
            "objects": sum(by_klass.values()),
            "objects_by_class": by_klass,
            "klasses": self.klass_segment.klass_count(),
            "roots": len(self.name_table.root_slots()),
            "global_timestamp": self.metadata.global_timestamp,
            "device": self.device.stats.as_dict(),
        }

    def __repr__(self) -> str:
        return (f"PersistentHeap({self.name!r}, base={self.base_address:#x}, "
                f"used={self.data_space.used_words}/{self.layout.data_words})")
