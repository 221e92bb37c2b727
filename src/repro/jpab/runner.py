"""JPAB runner: throughput per operation, for either provider.

The paper's Figure 16 reports JPAB throughput of H2-JPA vs H2-PJO for the
four tests x four CRUD operations; Figure 17 breaks BasicTest down into
Execution (database) / Transformation / Other time.  This runner produces
both: per-operation simulated time + the clock's category breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.h2.engine import Database
from repro.jpa.entity_manager import JpaEntityManager
from repro.nvm.clock import Clock
from repro.nvm.device import device_counters, snapshot_devices
from repro.nvm.latency import DEFAULT_LATENCY, LatencyConfig
from repro.obs import NULL_OBS, Observatory
from repro.pjo.provider import PjoEntityManager

from repro.jpab.workload import CrudDriver, JpabTest

OPERATIONS = ["Create", "Retrieve", "Update", "Delete"]
_RUN_ORDER = ["Create", "Retrieve", "Update", "Delete"]


@dataclass
class OperationResult:
    operation: str
    ops: int
    sim_ns: float
    breakdown: Dict[str, float] = field(default_factory=dict)
    # Per-device NVM counter deltas for this phase (flushes, fences,
    # flushes_deduped, epochs, reads, writes), keyed by device label.
    nvm: Dict[str, Dict[str, int]] = field(default_factory=dict)
    # Observatory span/counter deltas for this phase (empty when the
    # run used the no-op recorder).
    obs: Dict[str, object] = field(default_factory=dict)
    # Ref-store barriers run in this phase ("checks").  Empty for
    # providers without an Espresso VM.
    barrier: Dict[str, int] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Operations per simulated millisecond."""
        if self.sim_ns <= 0:
            return 0.0
        return self.ops / (self.sim_ns / 1e6)


@dataclass
class TestResult:
    provider: str
    test: str
    operations: Dict[str, OperationResult] = field(default_factory=dict)


def make_jpa_em(clock: Clock, entities, obs: Observatory = NULL_OBS,
                latency: LatencyConfig = DEFAULT_LATENCY) -> JpaEntityManager:
    database = Database(size_words=1 << 21, clock=clock, latency=latency,
                        obs=obs)
    em = JpaEntityManager(database)
    em.create_schema(entities)
    return em


def make_pjo_em(clock: Clock, entities, heap_dir,
                field_tracking: bool = True,
                deduplication: bool = True,
                obs: Observatory = NULL_OBS,
                **overrides) -> PjoEntityManager:
    """*overrides* are :class:`~repro.api.EspressoConfig` fields, e.g.
    ``alloc_buffer_words=0`` for the per-object §4.1 top-persist protocol
    (the pre-buffer baseline)."""
    from repro.api import Espresso
    jvm = Espresso(heap_dir, clock=clock, observatory=obs, **overrides)
    jvm.create_heap("jpab", 32 * 1024 * 1024)
    em = PjoEntityManager(jvm, field_tracking=field_tracking,
                          deduplication=deduplication)
    em.create_schema(entities)
    return em


def _nvm_devices(em) -> Dict[str, object]:
    """Label -> NvmDevice map for whichever provider backs *em*."""
    database = getattr(em, "database", None)
    if database is not None:
        return {"h2": database.device}
    jvm = getattr(em, "jvm", None)
    if jvm is not None:
        return {name: jvm.heaps.heap(name).device
                for name in jvm.heaps.mounted_names()}
    return {}


def run_jpab_test(test: JpabTest, em_factory: Callable[[Clock], object],
                  count: int, provider: str,
                  observatory: Optional[Observatory] = None) -> TestResult:
    """One JPAB test end to end (Create -> Retrieve -> Update -> Delete).

    When *observatory* is a live recorder the factory should have routed
    it into the provider (see :func:`make_jpa_em` / :func:`make_pjo_em`);
    each operation then carries its span/counter deltas in ``result.obs``.
    """
    clock = Clock()
    em = em_factory(clock)
    driver = CrudDriver(em, test, count)
    result = TestResult(provider=provider, test=test.name)
    devices = _nvm_devices(em)
    obs = observatory if observatory is not None else NULL_OBS
    vm = getattr(getattr(em, "jvm", None), "vm", None)
    for operation in _RUN_ORDER:
        action = getattr(driver, operation.lower())
        start = clock.now_ns
        snapshot = clock.breakdown()
        nvm_before = snapshot_devices(devices)
        checks_before = vm.barrier_checks if vm is not None else 0
        obs_before = obs.phase_snapshot() if obs.enabled else None
        with obs.span(f"jpab.{operation.lower()}", test=test.name,
                      provider=provider):
            ops = action()
        result.operations[operation] = OperationResult(
            operation=operation,
            ops=ops,
            sim_ns=clock.now_ns - start,
            breakdown=clock.breakdown_since(snapshot),
            nvm=device_counters(devices, since=nvm_before),
            obs=obs.phase_since(obs_before) if obs_before is not None else {},
            barrier=({"checks": vm.barrier_checks - checks_before}
                     if vm is not None else {}),
        )
    return result
