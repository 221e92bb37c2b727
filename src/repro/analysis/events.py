"""The persist-event core: one vocabulary, one replay, one line-state
machine (DESIGN.md §18).

**Vocabulary.**  A :class:`~repro.nvm.persist.PersistEventLog` records
tuples of five kinds:

* ``("store", offset[, count])`` — *count* defaults to one word;
* ``("flush", line)``;
* ``("fence",)``;
* ``("publish", slot_offset, target_offset)``;
* ``("frame", top_offset, frame_offset, frame_words)``.

Concurrent traces append the issuing mutator's index to every kind but
``fence`` (see :meth:`PersistEventLog.mutator`).  A two-field store
cannot carry a tag: its third field would read as the count.  The static
verifier (ESP5xx) abstracts source calls into the same kinds, plus the
ones a trace never records: flush+fence, undo, transaction begin and
commit, and an opaque call.  :data:`CALL_KINDS` names the calls; the
source lint's ESP301/ESP302 read the same table and receiver names.

**Line state.**  :class:`Line` is the one transition function of a
cache line — dirty since its last flush, flushed awaiting a fence,
flushed and not stored since.  :func:`replay` steps it over the concrete
lines of a trace; the ESP5xx engine steps it, through
:class:`LineState`, over abstract lines: the receivers its flushes name.

**Replay.**  :func:`replay` walks a trace once and returns both
verdicts: the ESP2xx hazards (:mod:`repro.analysis.hazards`) and the
ESP4xx redundancy (:mod:`repro.analysis.elision`).
"""

from __future__ import annotations

import ast
import functools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, \
    Set, Tuple

from repro.analysis.diagnostics import Diagnostic, make_diagnostic
from repro.nvm.device import LINE_WORDS
from repro.runtime import layout

STORE, FLUSH, FENCE, PUBLISH, FRAME = (
    "store", "flush", "fence", "publish", "frame")
#: Kinds only the static verifier sees: source calls, not recorded events.
FLUSH_FENCE, UNDO, TXN_BEGIN, TXN_COMMIT, CALL = (
    "flush+fence", "undo", "txn-begin", "txn-commit", "call")

#: The raw device flush: ESP301 on any receiver.
CLFLUSH = "clflush"
#: Call name -> event kind.  ``flush_words`` is missing on purpose: its
#: kind depends on its ``fence`` argument, which the verifier evaluates.
CALL_KINDS: Dict[str, str] = {
    **dict.fromkeys(("write", "write_block", "fill", "set_field",
                     "array_set"), STORE),
    **dict.fromkeys((CLFLUSH, "flush"), FLUSH),
    **dict.fromkeys(("commit_epoch", "fence", "sfence"), FENCE),
    **dict.fromkeys(("persist", "persist_all", "flush_reachable",
                     "flush_object", "flush_field", "flush_array_element"),
                    FLUSH_FENCE),
    **dict.fromkeys(("log_slot", "tx_add_range", "tx_add"), UNDO),
    **dict.fromkeys(("begin", "tx_begin"), TXN_BEGIN),
    **dict.fromkeys(("commit", "tx_commit"), TXN_COMMIT),
}
#: Receiver names (the last name of the chain) of persist domains ...
DOMAIN_RECEIVERS = frozenset({"persist", "domain", "pd"})
#: ... and of raw devices, on which ESP302 forbids a fence.
DEVICE_RECEIVERS = frozenset({"device", "d", "dev"})


#: The name of a receiver, or of the part of one, that is not a name.
ANY = "?"


def receiver_name(expr: ast.expr) -> str:
    """A receiver chain as a dotted name (``self.heap.device``), with
    :data:`ANY` for a head that is not a name (``pool().device`` ->
    ``?.device``)."""
    parts: List[str] = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    parts.append(expr.id if isinstance(expr, ast.Name) else ANY)
    return ".".join(reversed(parts))


def call_kind(attr: str, receiver: str) -> Optional[str]:
    """The event kind of a ``receiver.attr(...)`` call, or None.

    Only the last name of the receiver chain counts.  A ``.flush()`` only
    counts on a domain or device receiver: a file object's
    ``fh.flush()`` must stay invisible.
    """
    last = receiver.rsplit(".", 1)[-1]
    if attr == "flush" and last not in DOMAIN_RECEIVERS \
            and last not in DEVICE_RECEIVERS:
        return None
    return CALL_KINDS.get(attr)


def lines_of(offset: int, count: int, line_words: int) -> range:
    """The cache lines the word span ``[offset, offset + count)`` touches."""
    return range(offset // line_words,
                 (offset + count - 1) // line_words + 1)


class Line(NamedTuple):
    """One line's persist state; every transition returns a new value.

    There are eight values, so each transition is computed once per
    value and then looked up: the replay steps one per event.
    """

    dirty: bool = False     # stored since its last flush
    pending: bool = False   # flushed while dirty, not fenced since
    current: bool = False   # flushed, not stored since

    @functools.lru_cache(maxsize=None)
    def store(self, words: bool = True) -> "Line":
        """A store; one of no words dirties nothing, but the line's
        durable copy stops being current all the same."""
        return Line(self.dirty or words, self.pending, False)

    @functools.lru_cache(maxsize=None)
    def flush(self) -> "Line":
        return Line(False, self.pending or self.dirty, True)

    @functools.lru_cache(maxsize=None)
    def fence(self) -> "Line":
        return Line(self.dirty, False, self.current)

    @functools.lru_cache(maxsize=None)
    def join(self, other: "Line") -> "Line":
        """What either of two paths may have left: each bit of either."""
        return Line(*(a or b for a, b in zip(self, other)))


CLEAN = Line()


class LineState(NamedTuple):
    """The line state of one path through the source.

    ``lines`` maps abstract lines, the receivers a path flushed, to their
    :class:`Line`.  ``phase`` is the path's publish guard (ESP501): 0
    before any flush, 1 after one, 2 once a flushed line reached a fence.
    ``fenced`` says the path fenced at all.
    """

    phase: int = 0
    lines: FrozenSet[Tuple[str, Line]] = frozenset()
    fenced: bool = False

    @property
    def flushed(self) -> FrozenSet[str]:
        return frozenset(name for name, line in self.lines if line.current)

    @property
    def pending(self) -> FrozenSet[str]:
        return frozenset(name for name, line in self.lines if line.pending)

    def flush(self, name: str) -> "LineState":
        # No store names the receiver a flush does, so the engine takes
        # every flushed receiver to cover a dirty line.
        lines = dict(self.lines)
        lines[name] = lines.get(name, CLEAN).store().flush()
        return self._replace(phase=max(self.phase, 1),
                             lines=frozenset(lines.items()))

    def fence(self, name: Optional[str] = None) -> "LineState":
        """Every pending line becomes durable: an epoch commit drains the
        whole device queue.  A fence naming a flushed line guards the
        path, and so does one on a receiver that is not a name, which may
        be any of them; one naming no line (a callee's) guards nothing."""
        phase = self.phase
        if phase == 1 and name is not None and (
                name.startswith(ANY) or name in self.flushed):
            phase = 2
        return LineState(phase, frozenset((n, line.fence())
                                          for n, line in self.lines), True)

    def call(self, callee: "LineState") -> "LineState":
        """This path, then a callee that reached *callee*'s guard and
        fence on every exit.  It names none of this path's lines."""
        state = self.fence() if callee.fenced else self
        return state._replace(phase=max(state.phase, callee.phase))

    @staticmethod
    def join(states: Iterable["LineState"]) -> "LineState":
        """The conservative merge of path states: the weakest guard,
        fenced only if every path fenced, and every line any path
        flushed, pending if it is pending on any."""
        states = list(states)
        if len(states) == 1:    # most calls resolve to one callee
            return states[0]
        lines: Dict[str, Line] = {}
        for state in states:
            for name, line in state.lines:
                lines[name] = lines.get(name, CLEAN).join(line)
        return LineState(min(s.phase for s in states),
                         frozenset(lines.items()),
                         all(s.fenced for s in states))


#: Fields each taggable kind has before the optional mutator tag.
_UNTAGGED_LEN = {STORE: 3, FLUSH: 2, PUBLISH: 3, FRAME: 4}


class _Publish:
    """One recorded pointer publish, tracked until it becomes durable."""

    __slots__ = ("index", "slot_offset", "target_offset", "slot_line",
                 "target_lines", "slot_fence", "unpersisted_header",
                 "rewritten_at", "code")

    def __init__(self, index: int, slot_offset: int, target_offset: int,
                 target_words: int, line_words: int,
                 code: str = "ESP201") -> None:
        self.index = index
        self.slot_offset = slot_offset
        self.target_offset = target_offset
        self.slot_line = slot_offset // line_words
        self.target_lines = set(lines_of(target_offset, target_words,
                                         line_words))
        self.slot_fence: Optional[int] = None  # fence no. when durable
        self.unpersisted_header: Set[int] = set()  # rewritten, not fenced
        self.rewritten_at: Optional[int] = None
        self.code = code

    @property
    def where(self) -> str:
        if self.code == "ESP204":
            return (f"frame-top {self.slot_offset} -> "
                    f"frame {self.target_offset}")
        return f"slot {self.slot_offset} -> target {self.target_offset}"


@dataclass
class Replay:
    """What one walk of a trace found."""

    hazards: List[Diagnostic]          # ESP201-205, in emission order
    stats: Dict[str, int]              # event counts both reports print
    redundant_flushes: Dict[int, int]  # ESP401: line -> no-op flushes
    redundant_fences: int              # ESP402: fences after no flush


def replay(trace, line_words: Optional[int] = None,
           header_words: Optional[int] = None) -> Replay:
    """Walk *trace* — a log object or an iterable of event tuples — once.

    *line_words* defaults to the device's line size, *header_words* to
    the object header's size.
    """
    events = list(getattr(trace, "events", trace))
    if line_words is None:
        line_words = LINE_WORDS
    if header_words is None:
        header_words = layout.HEADER_WORDS

    hazards: List[Diagnostic] = []
    state: Dict[int, Line] = {}   # line -> its state; absent lines CLEAN
    pending: Set[int] = set()     # lines whose state is pending
    durable: Set[int] = set()     # lines some fence made durable
    # line -> (mutator tag, fence count when the flush was issued); feeds
    # the ESP205 racy-publish check on tagged (concurrent) traces.
    last_flush: Dict[int, Tuple[Optional[int], int]] = {}
    fence_no = 0
    flush_since_fence = False
    redundant_flushes: Dict[int, int] = {}
    redundant_fences = 0
    publishes: List[_Publish] = []
    # No handler below scans every publish: each looks its publishes up
    # by the line the event names, so a replay is linear in the trace.
    # header line -> object publishes whose target header touches it
    by_header_line: Dict[int, List[_Publish]] = {}
    # header line -> publishes holding it in their unpersisted_header
    rewritten: Dict[int, List[_Publish]] = {}
    # slot line -> publishes whose slot store no flush has covered yet
    unflushed: Dict[int, List[_Publish]] = {}
    awaiting_fence: List[_Publish] = []  # slot flushed, not yet fenced
    mutators_seen: Set[int] = set()
    counts = {"events": len(events), "stores": 0, "flushes": 0,
              "fences": 0, "publishes": 0, "frame_publishes": 0,
              "mutators": 0}

    def tag_of(event: tuple) -> Optional[int]:
        untagged = _UNTAGGED_LEN[event[0]]
        if len(event) <= untagged:
            return None
        tag = int(event[untagged])
        mutators_seen.add(tag)
        return tag

    for index, event in enumerate(events):
        kind = event[0]
        if kind == STORE:
            offset = int(event[1])
            count = int(event[2]) if len(event) > 2 else 1
            tag_of(event)
            counts["stores"] += 1
            stored = lines_of(offset, count, line_words)
            # An empty store still names the line it sits on: that line's
            # durable copy becomes suspect, and the store can sit inside a
            # header.
            touched = lines_of(offset, max(count, 1), line_words)
            for line in touched:
                state[line] = state.get(line, CLEAN).store(line in stored)
            # Only a header sharing a line with the store can share a
            # word with it; the word test still decides, because one
            # line holds several headers.
            for line in touched:
                for pub in by_header_line.get(line, ()):
                    if not (offset < pub.target_offset + header_words
                            and pub.target_offset < offset + count):
                        continue
                    # A published object's header was rewritten: it must
                    # be flushed+fenced again before the trace ends.
                    pub.rewritten_at = index
                    for ln in stored:
                        if (ln in pub.target_lines
                                and ln not in pub.unpersisted_header):
                            pub.unpersisted_header.add(ln)
                            rewritten.setdefault(ln, []).append(pub)
        elif kind == FLUSH:
            line = int(event[1])
            flusher = tag_of(event)
            counts["flushes"] += 1
            last_flush[line] = (flusher, fence_no)
            flush_since_fence = True
            before = state.get(line, CLEAN)
            if before.current:
                redundant_flushes[line] = redundant_flushes.get(line, 0) + 1
            state[line] = after = before.flush()
            if after.pending:
                pending.add(line)
            # A flush only persists the pointer if it happens after the
            # publish's store; flushes that predate the publish snapshot
            # the old contents and prove nothing about the new pointer.
            awaiting_fence.extend(unflushed.pop(line, ()))
        elif kind == FENCE:
            counts["fences"] += 1
            fence_no += 1
            if not flush_since_fence:
                redundant_fences += 1
            flush_since_fence = False
            # Flushes reach slot lines in any order; findings are
            # emitted in publish order, as a scan of the publishes would.
            awaiting_fence.sort(key=lambda pub: pub.index)
            for pub in awaiting_fence:
                pub.slot_fence = fence_no
                # Durability state *before* this fence decides safety:
                # header and pointer persisting at the same fence may
                # reorder within the epoch under FaultMode.REORDERED.  A
                # line no store of the trace touched was durable before
                # the trace began (fence 0).
                unsafe = sorted(
                    ln for ln in pub.target_lines if ln not in durable
                    and (state.get(ln, CLEAN).dirty or ln in pending))
                if unsafe:
                    what = ("frame-top" if pub.code == "ESP204"
                            else "pointer")
                    target = ("frame record" if pub.code == "ESP204"
                              else "target header")
                    hazards.append(make_diagnostic(
                        pub.code, pub.where,
                        f"{what} became durable at fence {fence_no} but "
                        f"{target} line(s) "
                        f"{', '.join(str(ln) for ln in unsafe)} had no "
                        f"earlier durable fence",
                        event_index=pub.index, fence=fence_no,
                        lines=",".join(str(ln) for ln in unsafe)))
            awaiting_fence = []
            for line in pending:
                state[line] = state[line].fence()
                durable.add(line)
                for pub in rewritten.pop(line, ()):
                    pub.unpersisted_header.discard(line)
            pending = set()
        elif kind == PUBLISH:
            counts["publishes"] += 1
            publisher = tag_of(event)
            pub = _Publish(index, int(event[1]), int(event[2]),
                           header_words, line_words)
            publishes.append(pub)
            unflushed.setdefault(pub.slot_line, []).append(pub)
            for line in pub.target_lines:
                by_header_line.setdefault(line, []).append(pub)
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
                    hazards.append(make_diagnostic(
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
        elif kind == FRAME:
            counts["frame_publishes"] += 1
            tag_of(event)
            # The target span is the whole frame record, not a header.
            pub = _Publish(index, int(event[1]), int(event[2]),
                           int(event[3]), line_words, code="ESP204")
            # Awaiting its flush only: frame pubs skip the ESP203 rewrite
            # tracking (checkpoints rewrite published frames by design).
            unflushed.setdefault(pub.slot_line, []).append(pub)

    for line in sorted(pending):
        hazards.append(make_diagnostic(
            "ESP202", f"line {line}",
            f"flushed after the last fence of the trace (fence "
            f"{fence_no}); the flush is revocable under the reordered "
            f"fault model", fence=fence_no))
    counts["mutators"] = len(mutators_seen)
    for pub in publishes:
        if pub.slot_fence is not None and pub.unpersisted_header:
            bad = sorted(pub.unpersisted_header)
            hazards.append(make_diagnostic(
                "ESP203", pub.where,
                f"header line(s) {', '.join(str(ln) for ln in bad)} "
                f"rewritten at event {pub.rewritten_at} after the "
                f"pointer became durable (fence {pub.slot_fence}) and "
                f"never re-persisted",
                event_index=pub.rewritten_at,
                lines=",".join(str(ln) for ln in bad)))
    return Replay(hazards, counts, redundant_flushes, redundant_fences)
