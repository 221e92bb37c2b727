"""Decoding of :class:`~repro.nvm.persist.PersistEventLog` tuples.

The hazard pass (ESP2xx) and the elision pass (ESP4xx) replay the same
recorded trace; this is the one place that knows how an event tuple is
laid out, so the two cannot disagree on what a trace means:

* ``("store", offset[, count])`` — *count* defaults to one word;
* ``("flush", line)``;
* ``("fence",)``;
* ``("publish", slot_offset, target_offset)``;
* ``("frame", top_offset, frame_offset, frame_words)``.

Concurrent traces append the issuing mutator's index to every kind but
``fence`` (see :meth:`PersistEventLog.mutator`).  A two-field store
cannot carry a tag: its third field would read as the count.
"""

from __future__ import annotations

from typing import Optional, Tuple

#: Fields each taggable kind has before the optional mutator tag.
_UNTAGGED_LEN = {"store": 3, "flush": 2, "publish": 3, "frame": 4}


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


def mutator_tag(event: tuple) -> Optional[int]:
    """The mutator that issued a store/flush/publish/frame event, if any."""
    untagged = _UNTAGGED_LEN[event[0]]
    return int(event[untagged]) if len(event) > untagged else None
