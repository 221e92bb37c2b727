"""One crash sweep is one :class:`Sweep` object.

A *sweep* runs one workload many times, injecting a simulated crash at a
different point each time, and after every crash performs recovery and
checks invariants.  The :class:`Sweep` owns the walk and the injection
plumbing; the subject under test supplies callbacks:

``setup()``
    Build a fresh world (heap, database, pool, ...) and return a context
    object.  Runs *outside* injection.
``devices(ctx)``
    The :class:`~repro.nvm.device.NvmDevice` instances whose fault mode is
    configured and (for the ``"flush"`` bomb) whose ``clflush`` is
    instrumented.
``registry(ctx)``
    The :class:`~repro.nvm.failpoints.FailpointRegistry` to arm (the
    ``"failpoint"`` bomb and :meth:`Sweep.run_site`).
``workload(ctx)``
    The operations being swept.  May raise
    :class:`~repro.errors.SimulatedCrash`.
``recover(ctx)``
    Apply power loss (``device.crash()`` via the layer's own crash entry
    point) and reload/recover; returns a *recovered* context.
``invariant(rctx, completed)``
    Assert the recovered state is consistent.  ``completed`` tells whether
    the workload ran to the end (exact final state must then hold).
``fsck(rctx)`` (optional)
    Return an :class:`~repro.tools.fsck.FsckReport`; the sweep asserts
    ``report.clean`` after every recovery.
``teardown(ctx, rctx)`` (optional)
    Release temp directories etc.  Runs even when an iteration fails.

A context that carries a live :class:`~repro.obs.Observatory` as
``ctx.obs`` is *traced*: when an iteration's recovery, invariant or fsck
check fails, the recorded span timelines of the crashed and recovered
contexts are dumped alongside the assertion, so a sweep failure arrives
with the exact sequence of GC/WAL/recovery phases that led to it.

The bomb kind picks the injection points: ``"failpoint"`` crashes at the
N-th hit of *any* failpoint (between every pair of consecutive
persistence events the workload marks), ``"flush"`` after the N-th
``clflush`` across all devices.  :meth:`Sweep.run` walks N upward and
terminates when the workload first runs to completion without the bomb
firing — by construction every earlier injection point has then been
exercised; ``exhaustive=False`` takes the sweep's fast stride and cap
instead.  :meth:`Sweep.run_site` walks every ordinal of one named site.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from repro.errors import SimulatedCrash
from repro.nvm.device import FaultMode, NvmDevice

DEFAULT_MAX_POINTS = 4096  # backstop against a workload that never completes


@dataclass
class SweepIteration:
    """One injection point: what happened and what was checked."""

    point: int
    crashed: bool
    completed: bool
    fsck_clean: Optional[bool] = None


@dataclass
class SweepReport:
    """Outcome of a full sweep."""

    name: str
    strategy: str
    fault_mode: str
    iterations: List[SweepIteration] = field(default_factory=list)

    @property
    def crash_points(self) -> int:
        return sum(1 for it in self.iterations if it.crashed)

    @property
    def exhausted(self) -> bool:
        """True when the sweep ran until the workload completed cleanly."""
        return bool(self.iterations) and self.iterations[-1].completed

    def summary(self) -> str:
        return (f"{self.name}[{self.fault_mode}/{self.strategy}]: "
                f"{self.crash_points} crash points, "
                f"{'exhausted' if self.exhausted else 'capped'}")

    def to_dict(self) -> dict:
        """JSON-friendly per-layer summary (``sweep_all --json``)."""
        return {
            "name": self.name,
            "strategy": self.strategy,
            "fault_mode": self.fault_mode,
            "points": len(self.iterations),
            "crash_points": self.crash_points,
            "fsck_checked": sum(1 for it in self.iterations
                                if it.fsck_clean is not None),
            "exhausted": self.exhausted,
        }


class _FlushBomb:
    """Instrument several devices' ``clflush`` to raise after N flushes.

    The countdown is shared across devices, so a sweep covers boundaries in
    whichever device order the workload actually flushes.
    """

    def __init__(self, devices: Sequence[NvmDevice], nth: int) -> None:
        self.devices = list(devices)
        self.remaining = nth
        self._originals: list = []

    def __enter__(self) -> "_FlushBomb":
        for device in self.devices:
            original = device.clflush

            def guarded(offset, count=1, asynchronous=False,
                        _original=original):
                _original(offset, count, asynchronous)
                self.remaining -= 1
                if self.remaining == 0:
                    raise SimulatedCrash("injected crash after clflush")

            self._originals.append((device, device.__dict__.get("clflush")))
            device.clflush = guarded
        return self

    def __exit__(self, *exc) -> bool:
        for device, prior in self._originals:
            if prior is None:
                del device.__dict__["clflush"]  # restore the class method
            else:
                device.clflush = prior
        return False


def _observatory_of(ctx) -> Optional[Any]:
    """The live Observatory tracing *ctx* (``ctx.obs``), if any."""
    obs = getattr(ctx, "obs", None)
    if obs is None or not getattr(obs, "enabled", False):
        return None
    return obs


def _timeline_dump(ctx, rctx) -> str:
    """Render the crashed and recovered contexts' span timelines."""
    sections = []
    for label, context in (("crashed", ctx), ("recovered", rctx)):
        obs = _observatory_of(context)
        if obs is not None:
            sections.append(f"--- {label} context timeline ---\n"
                            f"{obs.render_timeline()}")
    return "\n".join(sections)


class Sweep:
    """A named crash sweep of one workload; see the module docstring.

    ``fast_stride`` / ``fast_max_points`` are the stride and point cap of
    the under-budget walk the default test selection runs.
    """

    BOMBS = {"failpoint": "failpoint-global", "flush": "flush-boundary"}

    def __init__(self, name: str, *, bomb: str,
                 setup: Callable[[], Any],
                 workload: Callable[[Any], None],
                 recover: Callable[[Any], Any],
                 invariant: Callable[[Any, bool], None],
                 devices: Callable[[Any], Sequence[NvmDevice]],
                 registry: Optional[Callable[[Any], Any]] = None,
                 fsck: Optional[Callable[[Any], Any]] = None,
                 teardown: Optional[Callable[[Any, Any], None]] = None,
                 fast_stride: int = 1,
                 fast_max_points: Optional[int] = None) -> None:
        if bomb not in self.BOMBS:
            raise ValueError(f"{name}: unknown bomb kind {bomb!r}")
        self.name = name
        self.bomb = bomb
        self.setup = setup
        self.workload = workload
        self.recover = recover
        self.invariant = invariant
        self.devices = devices
        self.registry = registry
        self.fsck = fsck
        self.teardown = teardown
        self.fast_stride = fast_stride
        self.fast_max_points = fast_max_points

    def run(self, fault_mode: str = FaultMode.ATOMIC, *,
            exhaustive: bool = True, seed: int = 0) -> SweepReport:
        """Walk the bomb's injection points 1, 2, ... until the workload
        completes; ``exhaustive=False`` walks 1, 1+fast_stride, ... for at
        most ``fast_max_points`` points."""
        stride, max_points = ((1, None) if exhaustive else
                              (self.fast_stride, self.fast_max_points))
        return self._walk(None, fault_mode, seed, stride, max_points)

    def run_site(self, site: str, fault_mode: str = FaultMode.ATOMIC, *,
                 seed: int = 0) -> SweepReport:
        """Crash at every ordinal hit of one named failpoint site."""
        return self._walk(site, fault_mode, seed, 1, None)

    @contextmanager
    def _armed(self, ctx, site: Optional[str], nth: int):
        """Arm injection point *nth* around the workload, disarm after."""
        if site is None and self.bomb == "flush":
            with _FlushBomb(self.devices(ctx), nth):
                yield
            return
        registry = self.registry(ctx)
        if site is None:
            registry.crash_on_global_hit(nth)
        else:
            registry.crash_on_hit(site, nth)
        try:
            yield
        finally:
            registry.clear()

    def _run_point(self, point: int, site: Optional[str], fault_mode: str,
                   seed: int) -> SweepIteration:
        ctx = self.setup()
        rctx = None
        try:
            for device in self.devices(ctx):
                device.set_fault_mode(fault_mode, seed=seed * 100003 + point)
            crashed = False
            completed = False
            try:
                with self._armed(ctx, site, point):
                    self.workload(ctx)
                    completed = True
            except SimulatedCrash:
                crashed = True
            try:
                rctx = self.recover(ctx)
                self.invariant(rctx, completed)
                fsck_clean = None
                if self.fsck is not None:
                    report = self.fsck(rctx)
                    if report is not None:
                        assert report.clean, (
                            f"{self.name}: fsck dirty after recovery at "
                            f"point {point} ({fault_mode}): {report.errors}")
                        fsck_clean = True
            except SimulatedCrash:
                raise
            except BaseException as exc:
                # A sweep failure without the phase history is nearly
                # undebuggable: attach the recorded span timelines of both
                # contexts (when tracing was enabled) to the failure.
                dump = _timeline_dump(ctx, rctx)
                if dump:
                    raise AssertionError(
                        f"{self.name}: point {point} ({fault_mode}) failed: "
                        f"{type(exc).__name__}: {exc}\n{dump}") from exc
                raise
            return SweepIteration(point, crashed, completed, fsck_clean)
        finally:
            if self.teardown is not None:
                self.teardown(ctx, rctx)

    def _walk(self, site: Optional[str], fault_mode: str, seed: int,
              stride: int, max_points: Optional[int]) -> SweepReport:
        if fault_mode not in FaultMode.ALL:
            raise ValueError(f"unknown fault mode {fault_mode!r}")
        strategy = (self.BOMBS[self.bomb] if site is None
                    else f"failpoint-site:{site}")
        report = SweepReport(self.name, strategy, fault_mode)
        point = 1
        cap = max_points if max_points is not None else DEFAULT_MAX_POINTS
        while len(report.iterations) < cap:
            iteration = self._run_point(point, site, fault_mode, seed)
            report.iterations.append(iteration)
            if not iteration.crashed:
                break  # the workload outran the injection: sweep is done
            point += stride
        if max_points is None and not report.exhausted:
            # The backstop fired: the workload never completed within
            # DEFAULT_MAX_POINTS injection points.  Returning a "capped"
            # report here would let a sweep silently stop exercising its
            # tail — every point past the cap would go untested while the
            # sweep still looked green.  The fast cap opts into partial
            # coverage; the default cap does not.
            raise RuntimeError(
                f"{self.name}[{fault_mode}/{strategy}]: workload still "
                f"crashing after {cap} injection points (backstop "
                f"DEFAULT_MAX_POINTS) — the sweep did not reach workload "
                f"completion")
        return report
