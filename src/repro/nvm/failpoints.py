"""Crash-injection failpoints.

The crash-consistency protocols (§4 of the paper) are only as good as their
behaviour when the machine dies at the worst possible moment.  The runtime
marks every interesting moment with ``failpoints.hit("site.name")``; tests
install triggers that raise :class:`~repro.errors.SimulatedCrash` on the
N-th hit of a site, then exercise recovery.

A :class:`FailpointRegistry` is deliberately tiny: a counter per site and an
optional trigger.  The sweep helper in the tests walks N from 1 upward until
a full run completes without hitting the trigger, guaranteeing a crash is
injected *between every pair of consecutive persistence events*.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.errors import SimulatedCrash

Trigger = Callable[[str, int], None]

# Every failpoint site the runtime is documented to pass through.  A clean
# allocation + persistent-GC run must touch each of these at least once
# (asserted by tests/nvm/test_failpoints.py), so a sweep that arms a trigger
# on any of them is guaranteed to actually exercise it.
DOCUMENTED_SITES: Tuple[str, ...] = (
    # persistent allocation (core/persistent_heap.py)
    "pjh.alloc.top_persisted",
    "pjh.alloc.object_persisted",
    # persistent GC driver (core/pgc.py)
    "pgc.bitmaps_persisted",
    "pgc.flag_raised",
    "pgc.redo_persisted",
    "pgc.redo_applied",
    "pgc.top_persisted",
    "pgc.flag_cleared",
    # compaction engine (core/old_gc.py)
    "gc.compact.region_done",
    "gc.compact.copied",
    "gc.compact.dest_persisted",
    "gc.compact.src_stamped",
    "gc.move.recorded",
    "gc.compact.serial_object_done",
    "gc.move.chunk_done",
)


class FailpointRegistry:
    """Counts hits per named site and fires an installed trigger.

    Hit counting is always on — ``count()``/``total_hits()``/``sites()`` work
    as passive coverage probes with no trigger installed.  Only the trigger
    itself is gated on arming.
    """

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}
        self._baseline: Dict[str, int] = {}
        self._trigger: Optional[Trigger] = None
        self._armed = False

    def hit(self, site: str) -> None:
        """Record one pass through *site*; may raise via the trigger."""
        count = self._counts.get(site, 0) + 1
        self._counts[site] = count
        if self._armed and self._trigger is not None:
            # Triggers see hits *since install*, so passive counts collected
            # before arming don't shift the injection point.
            self._trigger(site, count - self._baseline.get(site, 0))

    # -- installation --------------------------------------------------------
    def install(self, trigger: Trigger) -> None:
        self._trigger = trigger
        self._armed = True
        self._baseline = dict(self._counts)

    def crash_on_hit(self, site: str, nth: int) -> None:
        """Raise :class:`SimulatedCrash` on the *nth* hit of *site*."""

        def trigger(hit_site: str, count: int) -> None:
            if hit_site == site and count == nth:
                raise SimulatedCrash(f"injected crash at {site} hit #{count}")

        self.install(trigger)

    def crash_on_global_hit(self, nth: int) -> None:
        """Raise on the *nth* hit of *any* site (exhaustive sweeps)."""
        state = {"total": 0}

        def trigger(hit_site: str, count: int) -> None:
            state["total"] += 1
            if state["total"] == nth:
                raise SimulatedCrash(
                    f"injected crash at global hit #{nth} ({hit_site})")

        self.install(trigger)

    def clear(self) -> None:
        self._trigger = None
        self._armed = False
        self._counts.clear()
        self._baseline.clear()

    def count(self, site: str) -> int:
        return self._counts.get(site, 0)

    def total_hits(self) -> int:
        return sum(self._counts.values())

    def sites(self) -> Tuple[str, ...]:
        """Every site that has been hit at least once, sorted."""
        return tuple(sorted(s for s, c in self._counts.items() if c > 0))

