"""The fleet router: K shard sessions behind one deterministic front door.

Tenancy model
-------------
A *fleet* is K persistent heaps ("shards") under one directory, each
mounted by its own fully re-entrant :class:`~repro.api.Espresso` session
(own observatory, device stats, persist-domain epochs, safety state).
The one sanctioned shared object is the fleet :class:`Clock` — a single
simulated timeline is what makes throughput and fail-over measurable.

Routing is a pure function of the session id (CRC32 mod K), so a session
always lands on the same shard; the router additionally records every
placement and refuses to let one silently move (a reload with a different
shard count would otherwise scatter tenants across heaps that do not
hold their data).

Request lifecycle
-----------------
:meth:`FleetRouter.submit` routes, admits (bounded per-shard queue —
:class:`FleetBusyError` is backpressure, not buffering), stamps the
arrival time and enqueues.  :meth:`FleetRouter.drain` then runs each
shard's queue on its own simulated worker of the router's
:class:`~repro.runtime.workers.WorkerPool` and the batch commits ``max``
over shards, so K shards genuinely buy ~K× throughput on the shared
timeline.  Per-request latency (queueing + service) feeds the shard's
:class:`~repro.obs.fleet.LatencyRecorder`.

Fail-over
---------
:meth:`crash_shard` power-fails one shard mid-traffic: queued requests
are dropped (and counted), the shard goes DOWN, and new traffic for it
fails fast with :class:`ShardDownError` while every other shard keeps
serving.  :meth:`recover_shard` reloads the heap on the recovery gang
(``gc_workers``), rolls back any torn transaction, and records the
recovery time.  The durable shard directory is never written during any
of this — see :mod:`repro.fleet.directory`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.api import Espresso, EspressoConfig
from repro.core.safety import SafetyLevel
from repro.errors import (
    FleetBusyError,
    IllegalArgumentException,
    IllegalStateException,
    ShardDownError,
)
from repro.fleet.directory import (
    DIRECTORY_HEAP,
    DIRECTORY_HEAP_BYTES,
    FleetDirectory,
    shard_heap_name,
)
from repro.fleet.store import ShardStore
from repro.nvm.clock import Clock
from repro.obs import LatencyRecorder, Observatory, aggregate_fleet
from repro.runtime.workers import WorkerPool

SHARD_UP = "up"
SHARD_DOWN = "down"

_OPS = frozenset({"put", "get", "delete"})


@dataclass
class FleetConfig:
    """Knobs for one fleet; carried by the router, not persisted.

    (The durable facts — shard count and size — live in the shard
    directory; everything here is per-process policy.)
    """

    shards: int = 2
    shard_size_bytes: int = 512 * 1024
    #: Admission bound: queued-but-undrained requests allowed per shard.
    max_in_flight: int = 64
    #: Recovery/GC gang width inside each shard session.
    gc_workers: int = 1
    #: Mutator gang width inside each shard session (the
    #: ``EspressoConfig.mutators`` knob, propagated to every shard).
    mutators: int = 1
    safety: SafetyLevel = SafetyLevel.USER_GUARANTEED


@dataclass
class Request:
    """One queued KV operation, stamped at admission."""

    session_id: str
    op: str
    key: str
    value: Optional[str]
    arrival_ns: float
    shard: int
    result: object = None
    done: bool = False


class _Shard:
    """Volatile per-shard state: the session, store, queue, accounting."""

    __slots__ = ("index", "jvm", "store", "state", "queue",
                 "latency", "obs", "served", "dropped")

    def __init__(self, index: int, jvm: Espresso, store: ShardStore,
                 obs: Observatory, latency: LatencyRecorder) -> None:
        self.index = index
        self.jvm = jvm
        self.store = store
        self.state = SHARD_UP
        self.queue: List[Request] = []
        self.obs = obs
        self.latency = latency
        self.served = 0
        self.dropped = 0


class FleetRouter:
    """Front door over K shard sessions plus the directory session.

    Build one with :meth:`create` (fresh fleet) or :meth:`load`
    (existing fleet directory; shards load in parallel on a worker
    gang).
    """

    def __init__(self, fleet_dir, config: FleetConfig, clock: Clock,
                 directory_jvm: Espresso, directory: FleetDirectory,
                 shards: List[_Shard], obs: Observatory) -> None:
        self.fleet_dir = fleet_dir
        self.config = config
        self.clock = clock
        self.directory_jvm = directory_jvm
        self.directory = directory
        self.shards = shards
        self.obs = obs
        self.recovery = LatencyRecorder("fleet.recovery_ns", obs)
        #: session id -> shard index, to veto silent migration.
        self.placements: Dict[str, int] = {}
        #: One simulated thread per shard; :meth:`drain` is its phase.
        self.drain_pool = WorkerPool(clock, len(shards),
                                     label="fleet.drain")

    # -- construction ---------------------------------------------------
    @staticmethod
    def _shard_session(fleet_dir, config: FleetConfig,
                       clock: Clock) -> Espresso:
        # One Observatory per shard: the fleet report reads them all.
        return Espresso(fleet_dir, config=EspressoConfig(
            clock=clock, observatory=Observatory(),
            gc_workers=config.gc_workers,
            mutators=config.mutators))

    @classmethod
    def create(cls, fleet_dir, *,
               config: Optional[FleetConfig] = None,
               clock: Optional[Clock] = None) -> "FleetRouter":
        """Create a fresh fleet: directory heap first, then K shards.

        Each shard record is published only after its heap exists, so a
        crash mid-create leaves a directory that either does not list
        the shard or lists a fully created one.
        """
        config = config if config is not None else FleetConfig()
        if config.shards < 1:
            raise IllegalArgumentException(
                f"a fleet needs at least one shard, got {config.shards}")
        clock = clock if clock is not None else Clock()
        fleet_obs = Observatory()

        dir_jvm = cls._shard_session(fleet_dir, config, clock)
        dir_jvm.create_heap(DIRECTORY_HEAP, DIRECTORY_HEAP_BYTES,
                            config.safety)
        directory = FleetDirectory(dir_jvm)
        directory.publish_meta(config.shards, config.shard_size_bytes)

        shards: List[_Shard] = []
        for index in range(config.shards):
            jvm = cls._shard_session(fleet_dir, config, clock)
            jvm.create_heap(shard_heap_name(index), config.shard_size_bytes,
                            config.safety)
            store = ShardStore.create(jvm)
            directory.publish_shard(index, config.shard_size_bytes)
            shards.append(cls._make_shard(index, jvm, store))
        return cls(fleet_dir, config, clock, dir_jvm, directory, shards,
                   fleet_obs)

    @classmethod
    def load(cls, fleet_dir, *,
             config: Optional[FleetConfig] = None,
             clock: Optional[Clock] = None) -> "FleetRouter":
        """Mount an existing fleet; shard heaps load on a worker gang.

        The durable directory is the source of truth for shard count and
        size — ``config.shards`` is overwritten from it.
        """
        config = config if config is not None else FleetConfig()
        clock = clock if clock is not None else Clock()
        fleet_obs = Observatory()

        dir_jvm = cls._shard_session(fleet_dir, config, clock)
        dir_jvm.load_heap(DIRECTORY_HEAP, config.safety)
        directory = FleetDirectory(dir_jvm)
        records = directory.shards()
        config.shards = len(records)
        config.shard_size_bytes = records[0].size_bytes if records \
            else config.shard_size_bytes

        sessions = [cls._shard_session(fleet_dir, config, clock)
                    for _ in records]

        def mount(index: int) -> ShardStore:
            jvm = sessions[index]
            jvm.load_heap(shard_heap_name(index), config.safety)
            return ShardStore.reattach(jvm)

        pool = WorkerPool(clock, workers=max(1, config.gc_workers),
                          obs=fleet_obs, label="fleet.load")
        stores = pool.run_partitioned(list(range(len(records))), mount,
                                      phase="mount")
        shards = [cls._make_shard(i, sessions[i], stores[i])
                  for i in range(len(records))]
        return cls(fleet_dir, config, clock, dir_jvm, directory, shards,
                   fleet_obs)

    @classmethod
    def session(cls, fleet_dir, *,
                config: Optional[FleetConfig] = None,
                clock: Optional[Clock] = None) -> "FleetRouter":
        """Context-managed way into a fleet: load-or-create, mirroring
        :meth:`Espresso.session` / :func:`repro.open_heap`.

        Loads the fleet when its durable shard directory exists (the
        directory's shard count/size win over *config*), creates it
        otherwise.  Use as ``with FleetRouter.session(dir) as fleet:`` —
        a clean exit shuts every shard down.
        """
        probe = Espresso(fleet_dir, config=EspressoConfig(clock=clock))
        if probe.exists_heap(DIRECTORY_HEAP):
            return cls.load(fleet_dir, config=config, clock=clock)
        return cls.create(fleet_dir, config=config, clock=clock)

    @classmethod
    def _make_shard(cls, index: int, jvm: Espresso,
                    store: ShardStore) -> _Shard:
        latency = LatencyRecorder(f"fleet.shard{index}.latency_ns",
                                  jvm.obs)
        return _Shard(index, jvm, store, jvm.obs, latency)

    # -- routing --------------------------------------------------------
    def route(self, session_id: str) -> int:
        """Deterministic placement: CRC32 of the id, mod shard count.

        The first routing of a session id is recorded; any later call
        must agree, so a session can never silently migrate to a shard
        that does not hold its data.
        """
        shard = zlib.crc32(str(session_id).encode("utf-8")) \
            % len(self.shards)
        placed = self.placements.setdefault(str(session_id), shard)
        if placed != shard:  # pragma: no cover - config-drift guard
            raise IllegalStateException(
                f"session {session_id!r} placed on shard {placed} but now "
                f"routes to {shard} — shard count changed under a live "
                "placement")
        return shard

    # -- request lifecycle ---------------------------------------------
    def submit(self, session_id: str, op: str, key: str,
               value: Optional[str] = None) -> Request:
        """Route + admit one request; raises instead of queueing badly.

        :class:`ShardDownError` — the session's shard is crashed (the
        request must NOT be served by a sibling).
        :class:`FleetBusyError` — admission bound hit; back off and
        retry after a :meth:`drain`.
        """
        if op not in _OPS:
            raise IllegalArgumentException(f"unknown fleet op {op!r}")
        index = self.route(session_id)
        shard = self.shards[index]
        if shard.state != SHARD_UP:
            raise ShardDownError(index, str(session_id))
        if len(shard.queue) >= self.config.max_in_flight:
            raise FleetBusyError(index, len(shard.queue))
        request = Request(session_id=str(session_id), op=op, key=key,
                          value=value, arrival_ns=self.clock.now_ns,
                          shard=index)
        shard.queue.append(request)
        return request

    def drain(self) -> List[Request]:
        """Serve every queued request; commit max-over-shards time.

        Each shard's queue runs on that shard's worker of the drain
        pool; the global clock then advances once by the slowest shard
        (the shards are parallel in simulated time).  A request's
        latency is its queueing delay plus its position's cumulative
        service time on its shard.  A drain that raises mid-queue (a
        power failure inside a shard) charges nothing.
        """
        batch_start = self.clock.now_ns
        pool = self.drain_pool
        completed: List[Request] = []
        try:
            for shard in self.shards:
                if not shard.queue:
                    continue
                with pool.on(shard.index) as meter:
                    for request in shard.queue:
                        request.result = self._serve(shard, request)
                        request.done = True
                        finish = batch_start + meter.ns
                        shard.latency.record(finish - request.arrival_ns)
                        shard.served += 1
                        completed.append(request)
                shard.queue = []
        except BaseException:
            pool.abandon_phase()
            raise
        pool.commit_phase("drain", category="fleet")
        if completed:
            self.obs.inc("fleet.requests", len(completed))
        return completed

    @staticmethod
    def _serve(shard: _Shard, request: Request) -> object:
        # Keys are session-scoped: tenants sharing a shard never collide.
        key = f"{request.session_id}\x00{request.key}"
        if request.op == "put":
            shard.store.put(key,
                            request.value if request.value is not None
                            else "")
            return True
        if request.op == "get":
            return shard.store.get(key)
        return shard.store.delete(key)

    # -- synchronous conveniences --------------------------------------
    def execute(self, session_id: str, op: str, key: str,
                value: Optional[str] = None) -> object:
        request = self.submit(session_id, op, key, value)
        self.drain()
        return request.result

    def put(self, session_id: str, key: str, value: str) -> None:
        self.execute(session_id, "put", key, value)

    def get(self, session_id: str, key: str) -> Optional[str]:
        return self.execute(session_id, "get", key)

    def delete(self, session_id: str, key: str) -> bool:
        return bool(self.execute(session_id, "delete", key))

    # -- fail-over ------------------------------------------------------
    def crash_shard(self, index: int) -> int:
        """Power-fail one shard mid-traffic; siblings are untouched.

        Queued-but-unserved requests are dropped (callers see them via
        the returned count and ``Request.done``), and further traffic
        for the shard raises :class:`ShardDownError` until
        :meth:`recover_shard`.
        """
        shard = self.shards[index]
        if shard.state != SHARD_UP:
            raise IllegalStateException(f"shard {index} already down")
        # A crash mid-drain leaves served (done) requests in the queue;
        # only the genuinely unserved ones count as dropped.
        dropped = len([r for r in shard.queue if not r.done])
        shard.queue = []
        shard.dropped += dropped
        shard.jvm.crash()
        shard.state = SHARD_DOWN
        self.obs.inc("fleet.shard_crashes")
        if dropped:
            self.obs.inc("fleet.requests_dropped", dropped)
        return dropped

    def recover_shard(self, index: int) -> float:
        """Reload a crashed shard on the recovery gang; return the time.

        A fresh session mounts the shard heap (zeroing scan + GC run on
        ``gc_workers`` workers), the undo log rolls back any torn
        operation, and the shard rejoins the fleet.  Recovery cost lands
        on the shared clock — surviving shards' *correctness* is
        unaffected (their queues and heaps are untouched), which is what
        the fail-over sweep asserts.
        """
        shard = self.shards[index]
        if shard.state != SHARD_DOWN:
            raise IllegalStateException(f"shard {index} is not down")
        started = self.clock.now_ns
        jvm = self._shard_session(self.fleet_dir, self.config, self.clock)
        jvm.load_heap(shard_heap_name(index), self.config.safety)
        store = ShardStore.reattach(jvm)
        shard.jvm = jvm
        shard.store = store
        shard.obs = jvm.obs
        shard.latency.obs = jvm.obs
        shard.state = SHARD_UP
        recovery_ns = self.clock.now_ns - started
        self.recovery.record(recovery_ns)
        self.obs.inc("fleet.shard_recoveries")
        return recovery_ns

    # -- observability --------------------------------------------------
    def report(self) -> Dict[str, object]:
        """Fleet-wide + per-shard latency/recovery aggregation."""
        per_shard = {s.index: s.latency for s in self.shards}
        report = aggregate_fleet(per_shard, self.recovery)
        report["served"] = {str(s.index): s.served for s in self.shards}
        report["dropped"] = sum(s.dropped for s in self.shards)
        report["sessions"] = len(self.placements)
        return report

    # -- lifecycle ------------------------------------------------------
    def shutdown(self) -> None:
        """Gracefully persist and unload every shard plus the directory."""
        for shard in self.shards:
            if shard.state == SHARD_UP:
                shard.jvm.shutdown()
        self.directory_jvm.shutdown()

    def __enter__(self) -> "FleetRouter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.shutdown()
