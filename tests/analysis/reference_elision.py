"""Test-only reference for the flush/fence-elision verdicts.

This is ``repro.analysis.elision.analyze_elision`` as it stood while it
kept its own replay: one loop over the events with its own set of lines
flushed and not stored since, blind to publishes, frames and mutator
tags.  The body is verbatim; the three tuple decoders it called are
copied below rather than imported, so the production replay it is
compared with (``test_hazards_reference.py``) shares nothing with it but
the passive ``ElisionReport``.
"""

from __future__ import annotations

from typing import Tuple

from repro.analysis.elision import ElisionReport
from repro.nvm.device import LINE_WORDS


def events_of(trace) -> list:
    """The event tuples of a log object or of a raw iterable of them."""
    return list(getattr(trace, "events", trace))


def store_span(event: tuple) -> Tuple[int, int]:
    """``(offset, count)`` of a store event, in words."""
    return int(event[1]), int(event[2]) if len(event) > 2 else 1


def lines_of(offset: int, count: int, line_words: int) -> range:
    """The cache lines the word span ``[offset, offset + count)`` touches."""
    return range(offset // line_words,
                 (offset + count - 1) // line_words + 1)


def analyze_elision(log) -> ElisionReport:
    """Replay a :class:`~repro.nvm.persist.PersistEventLog` (or raw
    event list, as :func:`~repro.analysis.hazards.analyze_trace` takes)
    and prove which flushes/fences were redundant.

    The proof is conservative: a flush is only flagged when the *same
    line* was already flushed and not stored to since (its durable copy
    is current by construction, with no assumption about store values);
    a fence only when no flush at all happened since the previous fence.
    """
    report = ElisionReport(trace_name=getattr(log, "name", ""))
    durable_current: set = set()   # lines flushed and untouched since
    flushes_since_fence = 0
    for event in events_of(log):
        kind = event[0]
        if kind == "store":
            offset, count = store_span(event)
            report.stores += 1
            durable_current.difference_update(
                lines_of(offset, max(count, 1), LINE_WORDS))
        elif kind == "flush":
            line = int(event[1])
            report.flushes += 1
            flushes_since_fence += 1
            if line in durable_current:
                report.redundant_flushes[line] = (
                    report.redundant_flushes.get(line, 0) + 1)
            durable_current.add(line)
        elif kind == "fence":
            report.fences += 1
            if flushes_since_fence == 0:
                report.redundant_fences += 1
            flushes_since_fence = 0
    return report
