"""One repetition of one workload: substrates, legs, counters, oracle.

The harness is the only place that reads the host clock.  Everything it
learns about the product it reads from outside, through public state:
``Clock.now_ns`` / ``Clock.breakdown()``, ``device.stats`` and the VM's
barrier counters.  Product code is never patched.

A repetition is ``setup`` (build + preload, timed as one span) followed by
the ``body``: a fixed sequence of *legs*, each a timed span around public
calls into one layer.  Oracle checks that need extra reads run in an
untimed ``verify`` step afterwards, so a wrong answer is counted without
the check itself being measured.
"""

from __future__ import annotations

import cProfile
import gc
import math
import random
import re
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from metrics import (DEVICE_COUNTERS, HOST_LAYERS, SIM_CATEGORIES,
                     VM_COUNTERS, WORKLOAD_LEGS)

#: The legs of a body must cover its wall time to within this share.
LEG_COVERAGE = 0.02
#: Float slack when two sums of the same simulated charges are compared.
SIM_RTOL = 1e-9

_LAYER_OF_PATH = re.compile(r"[/\\]repro[/\\]([a-z0-9_]+)[/\\]")


class Rep:
    """Measurements and tracked substrates of one repetition."""

    def __init__(self, workload: str, seed: int, scale: float, workdir: Path,
                 traced: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.dir = workdir
        self.traced = traced
        #: Seeded per workload so one seed gives six unrelated input sets.
        self.rng = random.Random(f"{workload}:{seed}")
        self.attempted = 0
        self.failures: List[str] = []
        self.setup_s = 0.0
        self.body_s = 0.0
        self.legs: Dict[str, Dict[str, float]] = {}
        self.spans: List[Dict[str, object]] = []
        self.observatories: List[object] = []
        self._clocks: List[object] = []
        self._device_stats: List[object] = []
        self._vms: List[object] = []
        self._base: Optional[Dict[str, object]] = None
        self._totals: Optional[Dict[str, object]] = None
        self._origin = 0.0

    # -- sizing ---------------------------------------------------------
    def n(self, full: int, floor: int = 1) -> int:
        """*full* operations at scale 1.0, never fewer than *floor*."""
        return max(floor, int(round(full * self.scale)))

    # -- substrates -----------------------------------------------------
    def observatory(self):
        """A live Observatory on the traced run, ``None`` otherwise."""
        if not self.traced:
            return None
        from repro.obs import Observatory
        obs = Observatory()
        self.observatories.append(obs)
        return obs

    def track(self, *, clock=None, device=None, vm=None, jvm=None) -> None:
        """Count this substrate's clock/device/VM activity in the totals.

        Only the device's ``stats`` object is kept (the device itself holds
        two images of its heap).  It outlives an unmount, so a device
        tracked while mounted still reports its final counts after a crash
        or reload; the successor device is tracked as a new one.
        """
        if jvm is not None:
            self.track(clock=jvm.clock, vm=jvm.vm)
            for name in jvm.heaps.mounted_names():
                self.track(device=jvm.heaps.heap(name).device)
        stats = device.stats if device is not None else None
        for item, known in ((clock, self._clocks),
                            (stats, self._device_stats), (vm, self._vms)):
            if item is not None and not any(item is k for k in known):
                known.append(item)

    # -- oracle ---------------------------------------------------------
    def check(self, ok: bool, what: str, *detail: object) -> bool:
        """Count one checked operation; remember it when it failed.

        *detail* is only formatted on failure, so hot loops can pass the
        key they are on without paying for a string per operation.
        """
        self.attempted += 1
        if not ok:
            self.failures.append(" ".join([what, *map(repr, detail)]))
        return ok

    def check_equal(self, got, want, what: str, *detail: object) -> bool:
        if got == want:
            return self.check(True, what)
        return self.check(False, what, *detail, "got", got, "want", want)

    # -- reading the product from outside -------------------------------
    def _read_totals(self) -> Dict[str, object]:
        breakdown: Dict[str, float] = {}
        for clock in self._clocks:
            for category, ns in clock.breakdown().items():
                breakdown[category] = breakdown.get(category, 0.0) + ns
        counters = {name: sum(getattr(s, attr) for s in self._device_stats)
                    for name, attr in DEVICE_COUNTERS}
        counters.update({name: sum(getattr(vm, attr) for vm in self._vms)
                         for name, attr in VM_COUNTERS})
        return {"sim_ns": self._sim_now(), "breakdown": breakdown,
                "counters": counters}

    def _sim_now(self) -> float:
        return math.fsum(clock.now_ns for clock in self._clocks)

    # -- spans ----------------------------------------------------------
    def _span(self, name: str, start: float, end: float,
              parent: Optional[str]) -> None:
        self.spans.append({"name": name, "start": start - self._origin,
                           "end": end - self._origin, "parent": parent})

    @contextmanager
    def leg(self, name: str) -> Iterator[None]:
        """Time one leg of the body on both clocks."""
        if name not in WORKLOAD_LEGS[self.workload]:
            raise KeyError(f"{self.workload} has no leg {name!r}")
        sim0 = self._sim_now()
        start = time.perf_counter()
        yield
        end = time.perf_counter()
        self.legs[name] = {"host_s": end - start,
                           "sim_ms": (self._sim_now() - sim0) / 1e6}
        self._span(name, start, end, "body")

    # -- the repetition -------------------------------------------------
    def run(self, setup: Callable[["Rep"], object],
            body: Callable[["Rep", object], None],
            verify: Callable[["Rep", object], None],
            profile: Optional[cProfile.Profile] = None) -> None:
        gc.collect()
        self._origin = start = time.perf_counter()
        state = setup(self)
        mid = time.perf_counter()
        self.setup_s = mid - start
        self._span("setup", start, mid, None)

        self._base = self._read_totals()
        if profile is not None:
            profile.enable()
        start = time.perf_counter()
        body(self, state)
        end = time.perf_counter()
        if profile is not None:
            profile.disable()
        self.body_s = end - start
        self._span("body", start, end, None)
        self._totals = self._read_totals()

        verify(self, state)
        self._assert_invariants()
        # The totals are plain numbers now; let the substrates (tens of
        # MiB of heap images each) go before the next repetition starts.
        self._clocks, self._device_stats, self._vms = [], [], []

    def _assert_invariants(self) -> None:
        expected = WORKLOAD_LEGS[self.workload]
        if tuple(self.legs) != expected:
            raise AssertionError(
                f"{self.workload}: legs ran as {tuple(self.legs)}, "
                f"expected {expected}")
        covered = sum(leg["host_s"] for leg in self.legs.values())
        if abs(self.body_s - covered) > LEG_COVERAGE * self.body_s:
            raise AssertionError(
                f"{self.workload}: legs cover {covered:.4f}s of a "
                f"{self.body_s:.4f}s body (more than "
                f"{LEG_COVERAGE:.0%} unattributed)")
        clock_ms = (self._totals["sim_ns"] - self._base["sim_ns"]) / 1e6
        for label, total in (("legs", self.sim_ms),
                             ("sim.* categories",
                              math.fsum(self.sim_breakdown().values()))):
            if abs(total - clock_ms) > SIM_RTOL * max(clock_ms, 1.0):
                raise AssertionError(
                    f"{self.workload}: {label} sum to {total!r} ms but the "
                    f"clocks advanced {clock_ms!r} ms during the body")

    # -- results --------------------------------------------------------
    @property
    def sim_ms(self) -> float:
        """Simulated time of the body: the sum of its legs."""
        return math.fsum(leg["sim_ms"] for leg in self.legs.values())

    def counters(self) -> Dict[str, int]:
        base = self._base["counters"]
        return {name: value - base[name]
                for name, value in self._totals["counters"].items()}

    @property
    def nvm_flush_fence(self) -> int:
        counters = self.counters()
        return counters["nvm.clflush"] + counters["nvm.sfence"]

    def sim_breakdown(self) -> Dict[str, float]:
        """``sim.<category>`` in ms; unknown categories fold into other."""
        out = {category: 0.0 for category in SIM_CATEGORIES}
        base = self._base["breakdown"]
        for category, ns in self._totals["breakdown"].items():
            delta = (ns - base.get(category, 0.0)) / 1e6
            out[category if category in out else "other"] += delta
        return out

    def exact_signature(self) -> Dict[str, object]:
        """What must be bit-identical across repetitions of one seed."""
        return {"sim_ms": self.sim_ms, "counters": self.counters(),
                "legs": {name: leg["sim_ms"]
                         for name, leg in self.legs.items()}}


def fold_profile(profile: cProfile.Profile,
                 body_s: float) -> Dict[str, Dict[str, float]]:
    """Fold cProfile self times and call counts by ``repro/<package>/``.

    ``other`` takes whatever the named layers do not, so the self times
    sum to the traced body time by construction.
    """
    layers = {layer: {"host_self_s": 0.0, "calls": 0}
              for layer in HOST_LAYERS}
    for entry in profile.getstats():
        code = entry.code
        layer = "other"
        if not isinstance(code, str):
            match = _LAYER_OF_PATH.search(code.co_filename)
            if match and match.group(1) in layers:
                layer = match.group(1)
        layers[layer]["host_self_s"] += entry.inlinetime
        layers[layer]["calls"] += entry.callcount
    named = sum(v["host_self_s"] for k, v in layers.items() if k != "other")
    layers["other"]["host_self_s"] = body_s - named
    return layers


def merged_obs_spans(observatories: Sequence[object]
                     ) -> Dict[str, Dict[str, float]]:
    """Sum the product's own sim-time span totals over every session."""
    merged: Dict[str, Dict[str, float]] = {}
    for obs in observatories:
        for name, totals in obs.span_totals().items():
            into = merged.setdefault(name, {})
            for key, value in totals.items():
                into[key] = into.get(key, 0) + value
    return dict(sorted(merged.items()))
