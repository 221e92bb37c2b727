"""The Observatory: one session's metrics + tracing + device stats.

One :class:`~repro.api.Espresso` session owns one Observatory, reachable
as ``jvm.obs``; subsystems receive it from the session (or a constructor
argument) rather than from a global.  The default recorder is
:data:`NULL_OBS`, a shared no-op whose every method returns immediately —
benches and sweeps that want visibility construct a real Observatory and
pass it in, and nothing else pays for it.

The Observatory observes but never acts: it reads the simulated clock
without charging it and reads device counters without issuing device
traffic, so flush/fence counts and simulated wall time are identical
whether tracing is on or off.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.nvm.clock import Clock
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import Tracer


class Observatory:
    """Live recorder: metrics registry + tracer + registered devices."""

    enabled = True

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock = clock
        self.metrics = MetricsRegistry(clock)
        self.tracer = Tracer(clock)
        self._devices: Dict[str, object] = {}

    def bind_clock(self, clock: Clock) -> None:
        """Adopt the session clock (last binding wins).

        An Observatory may be built before the session that owns the
        clock; the session binds it on construction so timestamps flow
        in simulated time.  An Observatory carried across
        ``restart()``/``restart(crash=True)`` rebinds to the successor
        session's clock, so post-recovery spans keep advancing.
        """
        self.clock = clock
        self.metrics.clock = clock
        self.tracer.clock = clock

    # -- tracing -----------------------------------------------------------
    def span(self, name: str, **attrs: object):
        return self.tracer.span(name, **attrs)

    def span_totals(self) -> Dict[str, Dict[str, float]]:
        return self.tracer.span_totals()

    def render_timeline(self) -> str:
        return self.tracer.render_timeline()

    # -- metrics -----------------------------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        self.metrics.inc(name, value)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    # -- devices (absorbing DeviceStats) -----------------------------------
    def register_device(self, label: str, device) -> None:
        """Track a device's DeviceStats under ``label`` (re-register to
        replace, e.g. after a heap reload swaps the backing device)."""
        self._devices[label] = device

    def device_stats(self) -> Dict[str, Dict[str, int]]:
        return {label: device.stats.as_dict()
                for label, device in sorted(self._devices.items())}

    # -- phase deltas (for per-phase bench sections) -----------------------
    def phase_snapshot(self) -> Dict[str, object]:
        return {"spans": self.tracer.totals_snapshot(),
                "counters": self.metrics.counters_snapshot()}

    def phase_since(self, snapshot: Dict[str, object]) -> Dict[str, object]:
        return {
            "spans": self.tracer.totals_since(snapshot["spans"]),
            "counters": self.metrics.counters_since(snapshot["counters"]),
        }

    # -- export ------------------------------------------------------------
    def as_dict(self, include_timeline: bool = False) -> Dict[str, object]:
        d: Dict[str, object] = {
            "spans": self.tracer.span_totals(),
            "metrics": self.metrics.as_dict(),
        }
        if self._devices:
            d["devices"] = self.device_stats()
        if include_timeline:
            d["timeline"] = [s.as_dict() for s in self.tracer.timeline()]
        return d

    def report(self) -> str:
        """Human-readable summary table (spans, counters, devices)."""
        from repro.obs.report import render_report
        return render_report(self.as_dict())


class _NullSpanHandle:
    """Shared no-op context manager returned by NullObservatory.span."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpanHandle()


class NullObservatory(Observatory):
    """The zero-cost default: every recording call is a no-op."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def bind_clock(self, clock: Clock) -> None:
        return None

    def span(self, name: str, **attrs: object):
        return _NULL_SPAN

    def inc(self, name: str, value: float = 1) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def register_device(self, label: str, device) -> None:
        return None


#: Process-wide shared no-op recorder; the default for every subsystem.
NULL_OBS = NullObservatory()
