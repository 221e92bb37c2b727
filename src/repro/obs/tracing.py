"""Tracing spans over the simulated clock.

A span brackets one phase of work — ``with obs.span("gc.compact",
heap="Jimmy"):`` — with start/end stamps taken from the session's
simulated clock.  Spans nest: a span opened while another is active
becomes its child, so a full GC shows up as ``gc.full`` containing
``gc.mark`` / ``gc.summary`` / ``gc.compact``.  Finished root spans are
kept in a bounded timeline (for recovery/crash forensics); unbounded
per-name aggregates (count + total simulated ns) feed the per-phase
benchmark breakdowns.

The tracer reads the clock but never charges it, so traced and untraced
runs execute the identical instruction stream against the device.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.nvm.clock import Clock

DEFAULT_TIMELINE_ROOTS = 512


class Span:
    """One phase of work: name, attributes, simulated interval, children."""

    __slots__ = ("name", "attrs", "start_ns", "end_ns", "children", "error")

    def __init__(self, name: str, attrs: Dict[str, object],
                 start_ns: float) -> None:
        self.name = name
        self.attrs = attrs
        self.start_ns = start_ns
        self.end_ns: Optional[float] = None
        self.children: List["Span"] = []
        self.error: Optional[str] = None

    @property
    def duration_ns(self) -> float:
        if self.end_ns is None:
            return 0.0
        return self.end_ns - self.start_ns

    def as_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_ns": self.duration_ns,
        }
        if self.attrs:
            d["attrs"] = dict(self.attrs)
        if self.error is not None:
            d["error"] = self.error
        if self.children:
            d["children"] = [c.as_dict() for c in self.children]
        return d


class _SpanHandle:
    """Context manager binding one open span to its tracer."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.span.error = exc_type.__name__
        self.tracer._finish(self.span)


class Tracer:
    """Span factory + timeline + per-name aggregates for one session."""

    def __init__(self, clock: Optional[Clock] = None,
                 max_roots: int = DEFAULT_TIMELINE_ROOTS) -> None:
        self.clock = clock
        self._stack: List[Span] = []
        self._roots: Deque[Span] = deque(maxlen=max_roots)
        # name -> [count, total_ns]; totals include child time (spans nest).
        self._totals: Dict[str, List[float]] = {}

    def _now(self) -> float:
        return self.clock.now_ns if self.clock is not None else 0.0

    def span(self, name: str, **attrs: object) -> _SpanHandle:
        span = Span(name, attrs, self._now())
        self._stack.append(span)
        return _SpanHandle(self, span)

    def _finish(self, span: Span) -> None:
        span.end_ns = self._now()
        # Pop back to this span even if inner handles leaked (an exception
        # raised between span() and __enter__ can strand deeper entries).
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self._roots.append(span)
        entry = self._totals.get(span.name)
        if entry is None:
            self._totals[span.name] = [1, span.duration_ns]
        else:
            entry[0] += 1
            entry[1] += span.duration_ns

    # -- aggregates --------------------------------------------------------
    def span_totals(self) -> Dict[str, Dict[str, float]]:
        return {name: {"count": c, "total_ns": t}
                for name, (c, t) in sorted(self._totals.items())}

    def totals_snapshot(self) -> Dict[str, List[float]]:
        return {name: list(entry) for name, entry in self._totals.items()}

    def totals_since(self, snapshot: Dict[str, List[float]]
                     ) -> Dict[str, Dict[str, float]]:
        """Aggregate deltas vs. a prior :meth:`totals_snapshot`."""
        deltas = {}
        for name, (count, total) in sorted(self._totals.items()):
            old_count, old_total = snapshot.get(name, (0, 0.0))
            if count != old_count or total != old_total:
                deltas[name] = {"count": count - old_count,
                                "total_ns": total - old_total}
        return deltas

    # -- timeline ----------------------------------------------------------
    def timeline(self) -> List[Span]:
        """Finished root spans, oldest first (bounded), plus open spans."""
        roots = list(self._roots)
        if self._stack:
            roots.append(self._stack[0])
        return roots

    def render_timeline(self, max_depth: int = 6) -> str:
        """Human-readable indented tree of the timeline."""
        lines: List[str] = []

        def walk(span: Span, depth: int) -> None:
            state = "" if span.end_ns is not None else "  [open]"
            if span.error is not None:
                state += f"  !{span.error}"
            attrs = ""
            if span.attrs:
                attrs = "  " + " ".join(
                    f"{k}={v}" for k, v in span.attrs.items())
            lines.append(f"{'  ' * depth}{span.name}  "
                         f"[{span.start_ns:.0f}..{span.end_ns if span.end_ns is not None else '...'}]"
                         f"  {span.duration_ns:.0f} ns{attrs}{state}")
            if depth < max_depth:
                for child in span.children:
                    walk(child, depth + 1)

        for root in self.timeline():
            walk(root, 0)
        return "\n".join(lines) if lines else "(no spans recorded)"
