"""Unit tests for the observability core (repro.obs)."""

import json

import pytest

from repro.nvm.clock import Clock
from repro.obs import (
    NULL_OBS,
    MetricsRegistry,
    NullObservatory,
    Observatory,
    Tracer,
    render_report,
)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
def test_counters_accumulate():
    reg = MetricsRegistry()
    reg.inc("a")
    reg.inc("a", 4)
    assert reg.counter("a") == 5
    assert reg.counter("missing") == 0


def test_histogram_statistics():
    reg = MetricsRegistry()
    for v in (10, 20, 30):
        reg.observe("pause", v)
    h = reg.histogram("pause")
    assert (h.count, h.total, h.min, h.max) == (3, 60, 10, 30)
    assert h.mean == pytest.approx(20)


def test_counters_since_snapshot():
    reg = MetricsRegistry()
    reg.inc("x", 2)
    snap = reg.counters_snapshot()
    reg.inc("x", 3)
    reg.inc("y")
    assert reg.counters_since(snap) == {"x": 3, "y": 1}


def test_registry_as_dict_is_json_safe():
    reg = MetricsRegistry(Clock())
    reg.inc("c")
    reg.observe("h", 2)
    json.dumps(reg.as_dict())


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def test_spans_nest_and_attribute_time():
    clock = Clock()
    tracer = Tracer(clock)
    with tracer.span("outer"):
        clock.charge(100)
        with tracer.span("inner"):
            clock.charge(30)
    roots = tracer.timeline()
    assert [s.name for s in roots] == ["outer"]
    outer = roots[0]
    assert outer.duration_ns == 130
    assert [c.name for c in outer.children] == ["inner"]
    assert outer.children[0].duration_ns == 30


def test_span_totals_aggregate_across_instances():
    clock = Clock()
    tracer = Tracer(clock)
    for _ in range(3):
        with tracer.span("op"):
            clock.charge(10)
    totals = tracer.span_totals()
    assert totals["op"]["count"] == 3
    assert totals["op"]["total_ns"] == 30


def test_span_records_error_name():
    tracer = Tracer(Clock())
    with pytest.raises(ValueError):
        with tracer.span("boom"):
            raise ValueError("no")
    assert tracer.timeline()[0].error == "ValueError"


def test_timeline_roots_are_bounded():
    clock = Clock()
    tracer = Tracer(clock, max_roots=4)
    for i in range(10):
        with tracer.span(f"s{i}"):
            clock.charge(1)
    roots = tracer.timeline()
    assert len(roots) == 4
    assert [s.name for s in roots] == ["s6", "s7", "s8", "s9"]
    # ...but totals keep counting past the bound
    assert sum(v["count"] for v in tracer.span_totals().values()) == 10


def test_render_timeline_shows_nesting_and_attrs():
    clock = Clock()
    obs = Observatory(clock)
    with obs.span("gc.persistent", heap="h"):
        clock.charge(5)
        with obs.span("gc.mark"):
            clock.charge(2)
    text = obs.render_timeline()
    assert "gc.persistent" in text
    assert "  gc.mark" in text
    assert "heap=h" in text


# ----------------------------------------------------------------------
# Observatory
# ----------------------------------------------------------------------
def test_bind_clock_is_last_wins():
    obs = Observatory()
    c1, c2 = Clock(), Clock()
    obs.bind_clock(c1)
    obs.bind_clock(c2)
    assert obs.clock is c2
    assert obs.metrics.clock is c2
    assert obs.tracer.clock is c2


def test_phase_since_reports_deltas_only():
    clock = Clock()
    obs = Observatory(clock)
    with obs.span("a"):
        clock.charge(10)
    obs.inc("n", 2)
    snap = obs.phase_snapshot()
    with obs.span("a"):
        clock.charge(7)
    with obs.span("b"):
        clock.charge(1)
    obs.inc("n")
    delta = obs.phase_since(snap)
    assert delta["spans"]["a"] == {"count": 1, "total_ns": 7}
    assert delta["spans"]["b"]["count"] == 1
    assert delta["counters"] == {"n": 1}


def test_as_dict_round_trips_through_json():
    clock = Clock()
    obs = Observatory(clock)
    with obs.span("x", k=1):
        clock.charge(3)
    obs.inc("c")
    obs.observe("h", 5)
    d = json.loads(json.dumps(obs.as_dict(include_timeline=True)))
    assert d["spans"]["x"]["count"] == 1
    assert d["timeline"][0]["name"] == "x"


def test_report_renders_tables():
    clock = Clock()
    obs = Observatory(clock)
    with obs.span("x"):
        clock.charge(3)
    obs.inc("c", 2)
    text = obs.report()
    assert "span" in text and "x" in text
    assert "counter" in text and "c" in text


def test_render_report_handles_phase_delta_shape():
    text = render_report({"spans": {"a": {"count": 2, "total_ns": 10.0}},
                          "counters": {"n": 3}})
    assert "a" in text and "n" in text


# ----------------------------------------------------------------------
# Null observatory: the zero-cost default
# ----------------------------------------------------------------------
def test_null_obs_is_shared_and_disabled():
    assert NULL_OBS.enabled is False
    assert isinstance(NULL_OBS, NullObservatory)


def test_null_obs_span_yields_none():
    with NULL_OBS.span("anything", k=1) as span:
        assert span is None
    assert NULL_OBS.span("a") is NULL_OBS.span("b")  # shared handle


def test_null_obs_records_nothing():
    NULL_OBS.inc("c", 5)
    NULL_OBS.observe("h", 2)
    NULL_OBS.register_device("d", object())
    NULL_OBS.bind_clock(Clock())
    assert NULL_OBS.metrics.as_dict() == {"counters": {},
                                          "histograms": {}}
    assert NULL_OBS.tracer.timeline() == []
    assert NULL_OBS.device_stats() == {}
    assert NULL_OBS.clock is None


def test_tracing_never_charges_the_clock():
    clock = Clock()
    obs = Observatory(clock)
    before = clock.now_ns
    with obs.span("a", attr=1):
        with obs.span("b"):
            pass
    obs.inc("c")
    obs.observe("h", 1)
    assert clock.now_ns == before
