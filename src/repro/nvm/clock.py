"""Deterministic simulated-time clock with category attribution.

Every component of the reproduction charges simulated nanoseconds here
instead of measuring wall-clock time.  This makes benchmark output
deterministic and — crucially for the paper's breakdown figures (Fig. 4,
Fig. 6, Fig. 17) — lets each charge be attributed to the category currently
on top of a scope stack ("transformation", "metadata", "gc", ...).

Example::

    clock = Clock()
    with clock.scope("transformation"):
        clock.charge(120.0)            # attributed to "transformation"
    clock.charge(10.0)                 # attributed to "other"
    clock.breakdown()                  # {"transformation": 120.0, "other": 10.0}
"""

from __future__ import annotations

from typing import Dict, List

DEFAULT_CATEGORY = "other"


class ChargeMeter:
    """Accumulator for charges diverted away from global time.

    A simulated GC worker runs its share of the work under
    :meth:`Clock.divert`; the charges land here instead of advancing
    ``now_ns``, and the scheduler later advances the clock once by the
    *maximum* over the workers — pause time is the slowest worker, not
    the sum (see :mod:`repro.runtime.workers`).
    """

    __slots__ = ("ns",)

    def __init__(self) -> None:
        self.ns: float = 0.0

    def take(self) -> float:
        """Return the accumulated nanoseconds and reset to zero."""
        ns, self.ns = self.ns, 0.0
        return ns


class _Pushed:
    """``with`` object: *item* sits on top of *stack* inside the block.

    What :meth:`Clock.scope` and :meth:`Clock.divert` return.  It keeps
    no state of its own, so one object can be entered any number of
    times, nested in itself included.
    """

    __slots__ = ("_stack", "_item")

    def __init__(self, stack: list, item) -> None:
        self._stack = stack
        self._item = item

    def __enter__(self):
        self._stack.append(self._item)
        return self._item

    def __exit__(self, exc_type, exc, traceback) -> None:
        self._stack.pop()


class Clock:
    """Accumulates simulated nanoseconds, attributed to nested scopes."""

    def __init__(self) -> None:
        self._now_ns: float = 0.0
        self._by_category: Dict[str, float] = {}
        self._stack: List[str] = []
        self._meters: List[ChargeMeter] = []
        self._scopes: Dict[str, _Pushed] = {}

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------
    def charge(self, ns: float, category: str | None = None) -> None:
        """Advance time by *ns*, attributing it to *category*.

        When *category* is omitted the innermost active scope is used, or
        ``"other"`` if no scope is active.  While a :meth:`divert` is
        active the charge lands on the innermost meter instead and global
        time does not move.
        """
        if ns < 0:
            raise ValueError(f"negative charge: {ns}")
        meters = self._meters
        if meters:
            meters[-1].ns += ns
            return
        self._now_ns += ns
        if category is None:
            stack = self._stack
            category = stack[-1] if stack else DEFAULT_CATEGORY
        totals = self._by_category
        totals[category] = totals.get(category, 0.0) + ns

    def divert(self, meter: ChargeMeter) -> _Pushed:
        """Divert every charge inside the block into *meter*.

        Global time (``now_ns``) and the category breakdown are untouched
        until the caller re-charges the metered total — typically
        ``clock.charge(max(worker_meters))`` after a simulated parallel
        phase.  Diversions nest; the innermost meter wins.
        """
        return _Pushed(self._meters, meter)

    @property
    def diverted(self) -> bool:
        """True while a :meth:`divert` block is active."""
        return bool(self._meters)

    # ------------------------------------------------------------------
    # Scopes
    # ------------------------------------------------------------------
    @property
    def current_category(self) -> str:
        return self._stack[-1] if self._stack else DEFAULT_CATEGORY

    def scope(self, category: str) -> _Pushed:
        """Attribute charges inside the ``with`` block to *category*."""
        scope = self._scopes.get(category)
        if scope is None:
            scope = self._scopes[category] = _Pushed(self._stack, category)
        return scope

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def now_ns(self) -> float:
        """Total simulated nanoseconds elapsed."""
        return self._now_ns

    def breakdown(self) -> Dict[str, float]:
        """Copy of the per-category totals."""
        return dict(self._by_category)

    def breakdown_since(self, snapshot: Dict[str, float]) -> Dict[str, float]:
        """Per-category deltas relative to an earlier :meth:`breakdown`."""
        result: Dict[str, float] = {}
        for category, total in self._by_category.items():
            delta = total - snapshot.get(category, 0.0)
            if delta > 0:
                result[category] = delta
        return result

    def reset(self) -> None:
        self._now_ns = 0.0
        self._by_category.clear()
        self._stack.clear()
        self._meters.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Clock(now={self._now_ns:.0f}ns, scopes={self._stack!r})"
