"""Test-only reference for the persist-order hazard replay.

This is ``repro.analysis.hazards.analyze_trace`` as it stood before the
replay was indexed, verbatim but for one deviation: every store scans
*all* publishes for a header overlap, every flush and fence scans *all*
pending publishes.  It is quadratic and obviously right, which is what a
reference is for: ``test_hazards_reference.py`` replays random traces
through this and the production pass and demands equal
``HazardReport.to_dict()``, findings order included.

The one deviation, marked ``DEVIATION`` below, is the ESP201/ESP204
premise both replays share: a target line no store of the trace touched
before the fence was durable before the trace began (fence 0).

Only passive data (``HazardReport``, the diagnostic constructors, the
layout constants) is shared with production; every line that decides
*which publish a store, flush or fence affects* is duplicated here on
purpose.  Do not "simplify" this file by importing behaviour from
``repro.analysis.hazards`` or ``repro.analysis.events``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, make_diagnostic
from repro.analysis.hazards import HazardReport
from repro.runtime import layout


def _lines_of(offset: int, count: int, line_words: int) -> Set[int]:
    return set(range(offset // line_words,
                     (offset + count - 1) // line_words + 1))


class _Publish:
    """One recorded pointer publish, tracked until it becomes durable."""

    __slots__ = ("index", "slot_offset", "target_offset", "slot_line",
                 "target_lines", "slot_fence", "slot_flushed",
                 "unpersisted_header", "rewritten_at", "code")

    def __init__(self, index: int, slot_offset: int, target_offset: int,
                 line_words: int, header_words: int,
                 code: str = "ESP201") -> None:
        self.index = index
        self.slot_offset = slot_offset
        self.target_offset = target_offset
        self.slot_line = slot_offset // line_words
        self.target_lines = _lines_of(target_offset, header_words,
                                      line_words)
        self.slot_fence: Optional[int] = None  # fence no. when durable
        self.slot_flushed = False  # slot line flushed after the publish
        self.unpersisted_header: Set[int] = set()  # rewritten, not fenced
        self.rewritten_at: Optional[int] = None
        self.code = code

    @property
    def where(self) -> str:
        if self.code == "ESP204":
            return (f"frame-top {self.slot_offset} -> "
                    f"frame {self.target_offset}")
        return f"slot {self.slot_offset} -> target {self.target_offset}"


def analyze_trace(trace, line_words: Optional[int] = None,
                  header_words: Optional[int] = None) -> HazardReport:
    """Replay a :class:`PersistEventLog` (or raw event list) for hazards.

    ``trace`` may be the log object itself or any iterable of event
    tuples: ``("store", offset, count)``, ``("flush", line)``,
    ``("fence",)``, ``("publish", slot_offset, target_offset)``,
    ``("frame", top_offset, frame_offset, frame_words)``.  Concurrent
    traces append a mutator index to store/flush/publish/frame events
    (recorded under :meth:`PersistEventLog.mutator`); tagged publishes
    are additionally checked against the ESP205 racy-publish rule.
    """
    events = list(getattr(trace, "events", trace))
    if line_words is None:
        from repro.nvm.device import LINE_WORDS
        line_words = LINE_WORDS
    if header_words is None:
        header_words = layout.HEADER_WORDS

    findings: List[Diagnostic] = []
    durable_fence: Dict[int, int] = {}  # line -> fence no. of last persist
    dirty: Set[int] = set()
    flushed: Set[int] = set()           # flushed since the last fence
    fence_no = 0
    publishes: List[_Publish] = []
    pending: List[_Publish] = []        # slot store not yet durable
    # line -> (mutator tag, fence count when the flush was issued); feeds
    # the ESP205 racy-publish check on tagged (concurrent) traces.
    last_flush: Dict[int, Tuple[Optional[int], int]] = {}
    mutators_seen: Set[int] = set()
    counts = {"events": len(events), "stores": 0, "flushes": 0,
              "fences": 0, "publishes": 0, "frame_publishes": 0,
              "mutators": 0}

    def _mutator_tag(event: tuple, untagged_len: int) -> Optional[int]:
        if len(event) <= untagged_len:
            return None
        tag = int(event[untagged_len])
        mutators_seen.add(tag)
        return tag

    for index, event in enumerate(events):
        kind = event[0]
        if kind == "store":
            offset = int(event[1])
            count = int(event[2]) if len(event) > 2 else 1
            _mutator_tag(event, 3)
            counts["stores"] += 1
            dirty |= _lines_of(offset, count, line_words)
            span = range(offset, offset + count)
            for pub in publishes:
                header = range(pub.target_offset,
                               pub.target_offset + header_words)
                if span.start < header.stop and header.start < span.stop:
                    # A published object's header was rewritten: it must
                    # be flushed+fenced again before the trace ends.
                    pub.rewritten_at = index
                    pub.unpersisted_header |= _lines_of(
                        offset, count, line_words) & pub.target_lines
        elif kind == "flush":
            line = int(event[1])
            flusher = _mutator_tag(event, 2)
            counts["flushes"] += 1
            last_flush[line] = (flusher, fence_no)
            if line in dirty:
                dirty.discard(line)
                flushed.add(line)
            # A flush only persists the pointer if it happens after the
            # publish's store; flushes that predate the publish snapshot
            # the old contents and prove nothing about the new pointer.
            for pub in pending:
                if pub.slot_line == line:
                    pub.slot_flushed = True
        elif kind == "fence":
            counts["fences"] += 1
            fence_no += 1
            for pub in list(pending):
                if not pub.slot_flushed:
                    continue
                pub.slot_fence = fence_no
                pending.remove(pub)
                # Durability state *before* this fence decides safety:
                # header and pointer persisting at the same fence may
                # reorder within the epoch under FaultMode.REORDERED.
                # DEVIATION: a line the trace never stored counts as
                # durable from before the trace.
                unsafe = sorted(ln for ln in pub.target_lines
                                if ln not in durable_fence
                                and (ln in dirty or ln in flushed))
                if unsafe:
                    what = ("frame-top" if pub.code == "ESP204"
                            else "pointer")
                    target = ("frame record" if pub.code == "ESP204"
                              else "target header")
                    findings.append(make_diagnostic(
                        pub.code, pub.where,
                        f"{what} became durable at fence {fence_no} but "
                        f"{target} line(s) "
                        f"{', '.join(str(ln) for ln in unsafe)} had no "
                        f"earlier durable fence",
                        event_index=pub.index, fence=fence_no,
                        lines=",".join(str(ln) for ln in unsafe)))
            for line in flushed:
                durable_fence[line] = fence_no
            for pub in publishes:
                pub.unpersisted_header -= flushed
            flushed = set()
        elif kind == "publish":
            counts["publishes"] += 1
            publisher = _mutator_tag(event, 3)
            pub = _Publish(index, int(event[1]), int(event[2]),
                           line_words, header_words)
            publishes.append(pub)
            pending.append(pub)
            if publisher is not None:
                # ESP205: every target line flushed before this publish
                # needs a persist edge to the publisher — same mutator's
                # program order, or a global fence after the flush.
                racy = sorted(
                    line for line in pub.target_lines
                    if line in last_flush
                    and last_flush[line][0] is not None
                    and last_flush[line][0] != publisher
                    and last_flush[line][1] == fence_no)
                if racy:
                    others = sorted({last_flush[line][0] for line in racy})
                    findings.append(make_diagnostic(
                        "ESP205", pub.where,
                        f"mutator {publisher} published a pointer whose "
                        f"target line(s) "
                        f"{', '.join(str(ln) for ln in racy)} were flushed "
                        f"only by mutator(s) "
                        f"{', '.join(str(m) for m in others)} with no "
                        f"fence between the flush and the publish — no "
                        f"persist edge orders the flush before the "
                        f"publish under other interleavings",
                        event_index=index, mutator=publisher,
                        lines=",".join(str(ln) for ln in racy)))
        elif kind == "frame":
            counts["frame_publishes"] += 1
            _mutator_tag(event, 4)
            pub = _Publish(index, int(event[1]), int(event[2]),
                           line_words, header_words, code="ESP204")
            # The target span is the whole frame record, not a header.
            pub.target_lines = _lines_of(int(event[2]), int(event[3]),
                                         line_words)
            # Pending only: frame pubs skip the ESP203 rewrite tracking
            # (checkpoints rewrite published frames by design).
            pending.append(pub)

    for line in sorted(flushed):
        findings.append(make_diagnostic(
            "ESP202", f"line {line}",
            f"flushed after the last fence of the trace (fence "
            f"{fence_no}); the flush is revocable under the reordered "
            f"fault model", fence=fence_no))
    counts["mutators"] = len(mutators_seen)
    for pub in publishes:
        if pub.slot_fence is not None and pub.unpersisted_header:
            bad = sorted(pub.unpersisted_header)
            findings.append(make_diagnostic(
                "ESP203", pub.where,
                f"header line(s) {', '.join(str(ln) for ln in bad)} "
                f"rewritten at event {pub.rewritten_at} after the "
                f"pointer became durable (fence {pub.slot_fence}) and "
                f"never re-persisted",
                event_index=pub.rewritten_at,
                lines=",".join(str(ln) for ln in bad)))

    return HazardReport(findings, counts)
