"""The one replay against its two references.

``repro.analysis.events.replay`` looks publishes up by cache line
instead of scanning them all, and yields the elision verdicts from the
same walk; ``tests/analysis/reference_hazards.py`` is the hazard scan it
replaced and ``tests/analysis/reference_elision.py`` the elision pass's
own replay.  Two pins: on random traces the reports are equal to the
references' (hazard findings down to their order), and the replay's
executed-line count grows linearly with the trace (a count, not a
timing, so it can gate tier-1).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import events
from repro.analysis.elision import analyze_elision
from repro.analysis.hazards import analyze_trace
from tests.analysis import reference_elision, reference_hazards
from tests.line_census import lines_executed

# A 48-word space (six 8-word lines) with a handful of object headers
# and pointer slots, so that stores, headers, slots and flushes collide
# constantly: 0/3/6 share line 0, 14 straddles lines 1-2 when a header is
# three words, the slots share lines 4 and 5.
OFFSET = st.integers(0, 47)
TARGET = st.sampled_from([0, 3, 6, 14, 21])
SLOT = st.sampled_from([32, 40, 41, 44])
TAG = st.integers(0, 2)


def _maybe_tagged(event):
    return st.one_of(event, st.tuples(event, TAG).map(
        lambda pair: pair[0] + (pair[1],)))


STORE_ONE_WORD = st.tuples(st.just("store"), OFFSET)   # untaggable 2-tuple
STORE = _maybe_tagged(
    st.tuples(st.just("store"), OFFSET, st.integers(0, 20)))
FLUSH = _maybe_tagged(st.tuples(st.just("flush"), st.integers(0, 6)))
FENCE = st.just(("fence",))
PUBLISH = _maybe_tagged(st.tuples(st.just("publish"), SLOT, TARGET))
FRAME = _maybe_tagged(
    st.tuples(st.just("frame"), SLOT, TARGET, st.integers(1, 20)))
# At least ten events: a hazard needs a store, a publish, a slot flush
# and a fence, and ESP201 needs the target stored before that fence.
TRACE = st.lists(st.one_of(STORE_ONE_WORD, STORE, FLUSH, FLUSH, FENCE, FENCE,
                           PUBLISH, PUBLISH, FRAME), min_size=10, max_size=60)
#: (line_words, header_words): the real geometry, a header that straddles
#: lines, and a header wider than a line.
GEOMETRY = st.sampled_from([(8, 2), (4, 3), (8, 10)])


def _assert_equal_reports(trace, line_words, header_words):
    got = analyze_trace(trace, line_words, header_words)
    want = reference_hazards.analyze_trace(trace, line_words, header_words)
    assert got.to_dict() == want.to_dict()
    return got


def test_indexed_replay_equals_the_scan():
    seen = set()

    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None)
    @given(TRACE, GEOMETRY)
    def check(trace, geometry):
        report = _assert_equal_reports(trace, *geometry)
        seen.update(d.code for d in report.findings)
        if geometry[0] == 8:    # the elision pass runs on device lines
            got = analyze_elision(trace)
            want = reference_elision.analyze_elision(trace)
            assert got.summary() == want.summary()
            assert got.diagnostics() == want.diagnostics()
            seen.update(d.code for d in got.diagnostics())

    check()
    # The strategy is only a safety net if it reaches every rule.
    assert seen == {"ESP201", "ESP202", "ESP203", "ESP204", "ESP205",
                    "ESP401", "ESP402"}


@pytest.mark.parametrize("trace, geometry, codes", [
    # Header re-stored before and after the pointer's fence, never
    # re-flushed.
    ([("store", 0, 2), ("flush", 0), ("fence",), ("publish", 40, 0),
      ("store", 1), ("store", 40), ("flush", 5), ("fence",),
      ("store", 0, 1)], (8, 2), ["ESP203"]),
    # Three publishes sharing a header line and a slot line become
    # durable at one fence, header unpersisted; two have equal messages,
    # so only publish order tells them apart.  The store shares a line
    # with all three headers and a word with one.
    ([("publish", 40, 0), ("publish", 41, 3), ("publish", 40, 0),
      ("store", 2, 3), ("flush", 5), ("fence",), ("fence",)], (8, 2),
     ["ESP201", "ESP201", "ESP201", "ESP203"]),
    # A slot that is never flushed, beside one flushed twice.
    ([("store", 0, 2), ("publish", 16, 0), ("publish", 24, 0),
      ("flush", 3), ("flush", 3), ("fence",)], (8, 2), ["ESP201"]),
    # An empty store on a line boundary inside a straddling header moves
    # ``rewritten_at`` without dirtying a line.
    ([("store", 2, 3), ("flush", 0), ("flush", 1), ("fence",),
      ("publish", 40, 2), ("store", 40), ("flush", 10), ("fence",),
      ("store", 3), ("store", 4, 0)], (4, 3), ["ESP203"]),
])
def test_named_scenarios_equal_the_scan(trace, geometry, codes):
    report = _assert_equal_reports(trace, *geometry)
    assert [d.code for d in report.findings] == codes


def test_both_passes_read_the_same_raw_trace():
    """A two-field store is one word to the hazard pass; the elision pass
    used to index ``event[2]`` and die on the same list."""
    raw = [("store", 5), ("flush", 0), ("fence",), ("flush", 0), ("fence",)]
    full = [("store", 5, 1)] + raw[1:]
    assert analyze_elision(raw).summary() == analyze_elision(full).summary()
    assert analyze_elision(raw).redundant_flushes == {0: 1}
    assert analyze_trace(raw).summary()["stores"] \
        == analyze_elision(raw).stores == 1


def _protocol_trace(objects):
    """*objects* allocate-persist-publish rounds, every third object's
    header rewritten and re-persisted later: publishes, stores, flushes
    and fences all grow with *objects*."""
    trace = []
    slot_base = objects * 8
    for i in range(objects):
        header, slot = i * 8, slot_base + i
        trace += [("store", header, 2), ("flush", header // 8), ("fence",),
                  ("store", slot, 1), ("publish", slot, header),
                  ("flush", slot // 8), ("fence",)]
        if i % 3 == 0:
            trace += [("store", header, 1), ("flush", header // 8),
                      ("fence",)]
    return trace


def test_replay_is_linear_in_the_trace():
    small, large = _protocol_trace(150), _protocol_trace(600)
    assert len(large) == 4 * len(small)
    assert analyze_trace(large).clean
    base = lines_executed(events, lambda: analyze_trace(small))
    grown = lines_executed(events, lambda: analyze_trace(large))
    # The per-store scan of every publish measured 15x here.
    assert grown <= 4.6 * base, (base, grown)
