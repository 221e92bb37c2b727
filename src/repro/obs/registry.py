"""Metrics registry: counters and histograms on the simulated clock.

Generalizes :class:`repro.nvm.device.DeviceStats` — where DeviceStats is a
fixed set of device counters, the registry accepts any named series and
stamps updates with the owning session's *simulated* time.  It never
charges the clock and never touches a device, so enabling it cannot
perturb a measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.nvm.clock import Clock


@dataclass
class HistogramData:
    """Streaming summary of observed values (no bucket storage)."""

    count: int = 0
    total: float = 0.0
    min: float = field(default=float("inf"))
    max: float = field(default=float("-inf"))
    last_ns: float = 0.0

    def record(self, value: float, now_ns: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.last_ns = now_ns

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        if not self.count:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "last_ns": 0.0}
        return {"count": self.count, "total": self.total, "min": self.min,
                "max": self.max, "mean": self.mean, "last_ns": self.last_ns}


class MetricsRegistry:
    """Named counters and histograms for one session."""

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock = clock
        self._counters: Dict[str, float] = {}
        self._histograms: Dict[str, HistogramData] = {}

    def _now(self) -> float:
        return self.clock.now_ns if self.clock is not None else 0.0

    # -- counters ----------------------------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + value

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0)

    # -- histograms --------------------------------------------------------
    def observe(self, name: str, value: float) -> None:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = HistogramData()
        histogram.record(value, self._now())

    def histogram(self, name: str) -> HistogramData:
        return self._histograms.get(name, HistogramData())

    # -- snapshots / export ------------------------------------------------
    def counters_snapshot(self) -> Dict[str, float]:
        return dict(self._counters)

    def counters_since(self, snapshot: Dict[str, float]) -> Dict[str, float]:
        """Counter deltas vs. a prior :meth:`counters_snapshot`."""
        deltas = {}
        for name, value in self._counters.items():
            delta = value - snapshot.get(name, 0)
            if delta:
                deltas[name] = delta
        return deltas

    def as_dict(self) -> Dict[str, Dict]:
        return {
            "counters": dict(self._counters),
            "histograms": {n: h.as_dict()
                           for n, h in self._histograms.items()},
        }
