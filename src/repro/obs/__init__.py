"""repro.obs: the observability core (metrics, tracing spans, exporters).

One :class:`Observatory` per :class:`~repro.api.Espresso` session
(``jvm.obs``); :data:`NULL_OBS` is the shared zero-cost default.  See
DESIGN.md §11 for the span vocabulary and how it maps onto the paper's
GC phases (§4.2) and recovery steps (§4.3).
"""

from repro.obs.fleet import LatencyRecorder, aggregate_fleet, percentile
from repro.obs.observatory import NULL_OBS, NullObservatory, Observatory
from repro.obs.registry import HistogramData, MetricsRegistry
from repro.obs.tracing import Span, Tracer


def render_report(data):
    """Render an exported obs dict as human tables (lazy import so
    ``python -m repro.obs.report`` doesn't double-import the module)."""
    from repro.obs.report import render_report as _render
    return _render(data)

__all__ = [
    "Observatory",
    "NullObservatory",
    "NULL_OBS",
    "MetricsRegistry",
    "HistogramData",
    "Tracer",
    "Span",
    "LatencyRecorder",
    "aggregate_fleet",
    "percentile",
    "render_report",
]
