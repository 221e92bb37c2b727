"""Persist domains: epoch-batched, deduplicated flush scheduling.

Every durable subsystem (PJH metadata, name table, allocation fast path,
recoverable GC, the H2 WAL, PCJ's NVML pool, pjhlib's txn log, PJO) used to
hand-roll its crash-consistency protocol from raw ``clflush`` + ``sfence``
pairs.  A :class:`PersistDomain` centralises that ordering-critical line:

* ``flush(offset, count)`` *enqueues* the covering cache lines into the
  current **fence epoch** instead of flushing immediately.  Re-enqueueing a
  line already pending in the epoch is free — the duplicate is counted in
  ``DeviceStats.flushes_deduped`` and elided.
* ``commit_epoch()`` issues the pending lines (sorted, coalesced into
  contiguous ``clflush`` ranges with clflushopt semantics) followed by a
  single fence, and starts the next epoch.
* ``fence()`` is ``commit_epoch()`` with an unconditional trailing fence —
  the drain point protocols use to make *previously issued* flushes final.

Why the deferral is sound under every fault mode: a line flushed but not
yet fenced may already fail to persist under ``FaultMode.REORDERED`` (the
fence is what makes flushes final), so moving the ``clflush`` itself to the
fence point is adversarially equivalent — nothing that was crash-correct
before can observe the difference.  What would NOT be sound is merging two
epochs: a protocol that fences between a payload flush and a counter flush
(WAL records, undo-log entries, GC destination copies) relies on that
boundary, so domains never migrate a pending line past a ``commit_epoch``
— the queue is always fully drained before the fence is issued.

Deduplication within one epoch is free for the same reason: no fence
separates the duplicate flushes, so no protocol may depend on the line's
intermediate durable state.

Ordering bugs — a pointer made durable before its target was flushed and
fenced (ESP201), a flush never fenced (ESP202) — are judged on a recorded
:class:`PersistEventLog` by :mod:`repro.analysis.hazards`, in every fault
mode.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Set

from repro.nvm.device import LINE_WORDS, NvmDevice

__all__ = ["PersistDomain", "PersistEventLog"]


class PersistEventLog:
    """Ordered record of an :class:`NvmDevice`'s persistence traffic.

    Installed as ``device.event_log`` (see
    :meth:`repro.core.persistent_heap.PersistentHeap.enable_event_log`),
    it captures the exact store/flush/fence/publish sequence a workload
    produced, as plain tuples:

    * ``("store", offset, count)`` — words written (word-granular);
    * ``("flush", line)`` — one cache line flushed;
    * ``("fence",)`` — an sfence: prior flushes become final;
    * ``("publish", slot_offset, target_offset)`` — a PJH slot was made
      to point at the PJH object at *target_offset* (heap-relative);
    * ``("frame", top_offset, frame_offset, frame_words)`` — the frame
      stack's top word is about to publish the *frame_words*-word frame
      record at *frame_offset* (resumable-task pushes).

    The log feeds :func:`repro.analysis.hazards.analyze_trace`, which
    replays it against the persist-order rules.  Offsets are
    device-relative, so logs are deterministic and comparable across
    runs.
    """

    def __init__(self, name: str = "trace") -> None:
        self.name = name
        self.events: List[tuple] = []
        #: When set (see :meth:`mutator`), every recorded store, flush and
        #: publish carries this mutator index as a trailing tag, giving
        #: the hazard analyzer per-mutator program order (ESP205).
        #: Fences stay untagged: an sfence is a global ordering point.
        self.current_mutator = None

    def _tag(self, event: tuple) -> tuple:
        if self.current_mutator is None:
            return event
        return event + (int(self.current_mutator),)

    @contextmanager
    def mutator(self, index: int) -> Iterator[None]:
        """Attribute events recorded inside the block to mutator *index*.

        The mutator gang wraps every scheduled step in this, so a
        multi-mutator trace records which simulated thread issued each
        store/flush/publish — the per-mutator program order the ESP205
        rule replays.  Nesting restores the outer tag on exit.
        """
        previous = self.current_mutator
        self.current_mutator = index
        try:
            yield
        finally:
            self.current_mutator = previous

    def record_store(self, offset: int, count: int = 1) -> None:
        self.events.append(self._tag(("store", int(offset), int(count))))

    def record_flush(self, line: int) -> None:
        self.events.append(self._tag(("flush", int(line))))

    def record_fence(self) -> None:
        self.events.append(("fence",))

    def record_publish(self, slot_offset: int, target_offset: int) -> None:
        self.events.append(self._tag(("publish", int(slot_offset),
                                      int(target_offset))))

    def record_frame_publish(self, top_offset: int, frame_offset: int,
                             frame_words: int) -> None:
        self.events.append(self._tag(("frame", int(top_offset),
                                      int(frame_offset),
                                      int(frame_words))))

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def to_json(self) -> str:
        return json.dumps([list(e) for e in self.events]) + "\n"

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path) -> "PersistEventLog":
        log = cls(name=Path(path).name)
        for entry in json.loads(Path(path).read_text()):
            log.events.append(tuple(
                entry[0:1] + [int(v) for v in entry[1:]]))
        return log


class PersistDomain:
    """Epoch-batched flush scheduler over one :class:`NvmDevice`.

    With ``enabled=False`` every operation is a no-op — the §6.4
    "recoverable GC without flushes" baseline plugs in here.
    """

    def __init__(self, device: NvmDevice, name: str = "persist",
                 enabled: bool = True) -> None:
        self.device = device
        self.name = name
        self.enabled = enabled
        # Cache lines enqueued in the current (open) fence epoch.
        self._pending: Set[int] = set()
        #: Analyzer-issued flush-elision certificate (a
        #: :class:`repro.analysis.elision.FlushElisionCertificate`, duck-
        #: typed so the persist layer stays import-free).  When it covers
        #: this domain, :meth:`commit_epoch` skips the ``clflush`` of any
        #: pending line whose live content already equals its durable
        #: copy, and skips the trailing ``sfence`` when nothing remains
        #: for it to order.  ``None`` (the default) changes nothing.
        self.elision = None

    # ------------------------------------------------------------------
    # Enqueueing
    # ------------------------------------------------------------------
    def flush(self, offset: int, count: int = 1) -> int:
        """Enqueue the lines covering ``[offset, offset+count)``.

        Returns the number of *newly* pending lines; duplicates within the
        open epoch are elided and counted as ``flushes_deduped``.
        """
        if not self.enabled:
            return 0
        first = offset // LINE_WORDS
        last = first if count <= 1 else (offset + count - 1) // LINE_WORDS
        pending = self._pending
        added = 0
        for line in range(first, last + 1):
            if line in pending:
                self.device.stats.flushes_deduped += 1
            else:
                pending.add(line)
                added += 1
        return added

    def fork(self, suffix: str) -> "PersistDomain":
        """A sibling domain on the same device: own epoch queue, own
        fence stream, inherited enabled setting.

        Simulated GC workers each fork the collector's domain so that a
        worker's fence boundaries (destination epoch committed before the
        source-stamp epoch) are preserved without coupling its pending
        lines to any other worker's epochs.
        """
        child = PersistDomain(self.device, name=f"{self.name}:{suffix}",
                              enabled=self.enabled)
        child.elision = self.elision
        return child

    # ------------------------------------------------------------------
    # Epoch commit / fencing
    # ------------------------------------------------------------------
    def commit_epoch(self) -> int:
        """Issue every pending line (sorted, coalesced) + one fence.

        An empty epoch commits for free: no flush, no fence, no counter.
        Returns the number of lines drained from the epoch (flushed or
        provably elided).

        When a :class:`~repro.analysis.elision.FlushElisionCertificate`
        covers this domain (and no event log is tracing — traces must
        record the uncertified sequence), any pending line whose live
        content already equals its durable copy is dropped instead of
        flushed: the ``clflush`` would be the identity operation under
        every fault mode.  If that empties the epoch *and* no earlier
        flush on the device still awaits ordering, the trailing fence is
        skipped too — it would order nothing.  Both skips are counted in
        ``DeviceStats.flushes_elided`` / ``fences_elided``.
        """
        pending = self._pending
        if not pending:
            return 0
        drained = len(pending)
        device = self.device
        cert = self.elision
        if (cert is not None and cert.active
                and cert.covers_domain(self.name)
                and device.event_log is None):
            redundant = [line for line in pending
                         if device.line_durably_equal(line)]
            for line in redundant:
                device.mark_line_clean(line)
                pending.discard(line)
            device.stats.flushes_elided += len(redundant)
            cert.note_elided(flushes=len(redundant))
            if not pending:
                if device.has_unfenced:
                    device.fence()
                else:
                    device.stats.fences_elided += 1
                    cert.note_elided(fences=1)
                device.stats.epochs += 1
                return drained
        # One clflush per run of contiguous lines, in ascending order.  The
        # trailing None is never contiguous, so it closes the last run.
        size = device.size_words
        lines = sorted(pending)
        lines.append(None)
        first = prev = lines[0]
        for line in lines[1:]:
            if line != prev + 1:
                start = first * LINE_WORDS
                device.clflush(
                    start, min((prev - first + 1) * LINE_WORDS, size - start),
                    asynchronous=True)
                first = line
            prev = line
        pending.clear()
        device.fence()
        device.stats.epochs += 1
        return drained

    def fence(self) -> None:
        """Drain the epoch and fence unconditionally.

        Unlike :meth:`commit_epoch` this always issues the fence, so it
        also finalises flushes other code issued directly on the device
        (e.g. a transaction draining its asynchronous data flushes).
        """
        if not self.enabled:
            return
        if self._pending:
            self.commit_epoch()
        else:
            self.device.fence()

    def persist(self, offset: int, count: int = 1) -> None:
        """The classic clflush+sfence pair: enqueue and commit in one step."""
        self.flush(offset, count)
        self.commit_epoch()

    @contextmanager
    def epoch(self):
        """Scope several ``flush`` calls into one epoch; commits on exit."""
        try:
            yield self
        finally:
            self.commit_epoch()

    def discard(self) -> None:
        """Drop the pending queue without flushing.

        Only correct when something stronger already made the lines durable
        (``persist_all`` during a checkpoint/close).
        """
        self._pending.clear()

    @property
    def pending_lines(self) -> int:
        return len(self._pending)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PersistDomain({self.name!r}, pending={len(self._pending)}, "
                f"enabled={self.enabled})")
