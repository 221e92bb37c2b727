"""Deterministic TPCC-lite workload runner for both providers."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

from repro.h2.engine import Database
from repro.jpa.entity_manager import JpaEntityManager
from repro.nvm.clock import Clock
from repro.nvm.device import device_counters, snapshot_devices
from repro.obs import NULL_OBS, Observatory
from repro.pjo.provider import PjoEntityManager

from repro.tpcc.model import customer_id, district_id
from repro.tpcc.transactions import TpccApplication


@dataclass
class TpccResult:
    provider: str
    transactions: int
    sim_ns: float
    snapshot: Dict = field(default_factory=dict)
    # Per-device NVM counters, split into the populate and transaction
    # phases (each value is a flushes/fences/dedup/epochs dict).
    nvm: Dict[str, Dict[str, Dict[str, int]]] = field(default_factory=dict)
    # Observatory span/counter deltas per phase; empty without tracing.
    obs: Dict[str, Dict[str, object]] = field(default_factory=dict)
    # The recorded PersistEventLog (pjo + ``record_trace=True`` only).
    trace: Optional[object] = None

    @property
    def tx_per_ms(self) -> float:
        return self.transactions / (self.sim_ns / 1e6) if self.sim_ns else 0.0


def _make_em(provider: str, clock: Clock, heap_dir: Path,
             obs: Observatory = NULL_OBS, **overrides):
    if provider == "jpa":
        database = Database(size_words=1 << 22, clock=clock, obs=obs)
        return JpaEntityManager(database)
    from repro.api import Espresso
    jvm = Espresso(heap_dir, clock=clock, observatory=obs, **overrides)
    jvm.create_heap("tpcc", 64 * 1024 * 1024)
    return PjoEntityManager(jvm)


def run_tpcc(provider: str, transactions: int = 60, seed: int = 7, *,
             heap_dir: Path,
             warehouses: int = 1, items: int = 15,
             observatory: Optional[Observatory] = None,
             record_trace: bool = False,
             elision_certificate=None,
             **overrides) -> TpccResult:
    """Run a seeded transaction mix; identical seeds produce identical
    business outcomes on either provider (the cross-provider test relies
    on this).  Passing a live *observatory* records per-phase (populate /
    transactions) span and counter deltas in ``result.obs``.

    PJO-only hooks for the flush-elision pipeline: ``record_trace=True``
    records the heap's persist trace into ``result.trace`` (detached
    before the shutdown persist, so the trace covers exactly the
    workload), and *elision_certificate* installs a
    :class:`~repro.analysis.elision.FlushElisionCertificate` on the
    session before any population traffic.  *overrides* are
    :class:`~repro.api.EspressoConfig` fields for the PJO session, e.g.
    ``alloc_buffer_words=0`` for the per-object §4.1 top-persist protocol
    (no TLABs) — the epoch-coalescing-only baseline the benches compare
    against."""
    from repro.jpab.runner import _nvm_devices

    clock = Clock()
    obs = observatory if observatory is not None else NULL_OBS
    em = _make_em(provider, clock, heap_dir / provider, obs=obs, **overrides)
    if provider == "pjo":
        if elision_certificate is not None:
            em.jvm.vm.elision_certificate = elision_certificate
            em.jvm.config.elision_certificate = elision_certificate
            em.jvm.heaps.heap("tpcc").install_elision_certificate(
                elision_certificate)
        if record_trace:
            em.jvm.heaps.heap("tpcc").enable_event_log("tpcc")
    app = TpccApplication(em)
    devices = _nvm_devices(em)
    populate_before = snapshot_devices(devices)
    populate_obs_before = obs.phase_snapshot() if obs.enabled else None
    with obs.span("tpcc.populate", provider=provider):
        app.populate(warehouses=warehouses, districts_per_warehouse=2,
                     customers_per_district=3, items=items)
    populate_nvm = device_counters(devices, since=populate_before)
    populate_obs = (obs.phase_since(populate_obs_before)
                    if populate_obs_before is not None else {})
    tx_before = snapshot_devices(devices)
    tx_obs_before = obs.phase_snapshot() if obs.enabled else None

    rng = random.Random(seed)
    start = clock.now_ns
    with obs.span("tpcc.transactions", provider=provider,
                  count=transactions):
        for _ in range(transactions):
            kind = rng.random()
            w = rng.randint(1, warehouses)
            d = rng.randint(0, 1)
            c = rng.randint(0, 2)
            if kind < 0.45:
                lines = [(rng.randint(1, items), rng.randint(1, 5))
                         for _ in range(rng.randint(1, 4))]
                app.new_order(w, d, c, lines)
                obs.inc("tpcc.tx.new_order")
            elif kind < 0.80:
                app.payment(w, d, c, round(rng.uniform(1.0, 50.0), 2))
                obs.inc("tpcc.tx.payment")
            elif kind < 0.92:
                app.order_status(customer_id(district_id(w, d), c))
                obs.inc("tpcc.tx.order_status")
            else:
                app.delivery()
                obs.inc("tpcc.tx.delivery")
    sim_ns = clock.now_ns - start
    em.clear()
    result = TpccResult(provider=provider, transactions=transactions,
                        sim_ns=sim_ns, snapshot=app.consistency_snapshot(),
                        nvm={"populate": populate_nvm,
                             "transactions": device_counters(
                                 devices, since=tx_before)},
                        obs=({"populate": populate_obs,
                              "transactions": obs.phase_since(tx_obs_before)}
                             if tx_obs_before is not None else {}))
    if provider == "pjo":
        em.clear()
        if record_trace:
            result.trace = em.jvm.heaps.heap("tpcc").disable_event_log()
        em.jvm.shutdown()  # persist the heap image: the run is durable
    return result
