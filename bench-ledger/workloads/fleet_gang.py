"""fleet_gang — everything that runs on ``Clock.divert`` gangs.

A contended KV session store on ``FleetRouter`` fleets of 1 and 4 shards
(every tenant touches the fleet every round; ``drain`` commits the max
over shards), one ``crash_shard`` / ``recover_shard`` fail-over under
load, then the lock-free durable map hammered by ``concurrent_kv`` gangs
of 1 and 4 mutators and checked for durable linearizability.  It is the
only workload on the mutator gang and the fleet's diverted drain, so it
guards their collapse into one gang core (ROADMAP 3a).

Seed: the values tenants store, the fail-over victim, how its
dirty lines tear, and the gang's op script and interleaving.
Oracle: every get returns what the model says the tenant last committed;
after fail-over the victim's committed state is intact and its dropped
puts are old-or-new; the recovered concurrent maps pass their audit and
the durable-linearizability check; every heap fscks clean.
"""

from __future__ import annotations

from repro.api import Espresso, EspressoConfig
from repro.fleet import FleetConfig, FleetRouter, shard_heap_name
from repro.nvm.clock import Clock
from repro.tools.fsck import fsck_heap
from repro.workloads.concurrent_kv import ConcurrentKvWorkload

TENANTS = 48
ROUNDS = 5
WARM_KEYS = 4           # keys per tenant committed in setup, read in the body
GANG_OPS = 1600         # total KV ops, split evenly over the mutators
KEY_SPACE = 6
SHARD_BYTES = 1 << 20
KV_BYTES = 4 << 20


def _fleet(rep, where, shards: int, tenants) -> FleetRouter:
    fleet = FleetRouter.create(where, clock=Clock(), config=FleetConfig(
        shards=shards, shard_size_bytes=SHARD_BYTES,
        max_in_flight=2 * len(tenants)))
    rep.track(jvm=fleet.directory_jvm)
    for shard in fleet.shards:
        rep.track(jvm=shard.jvm)
    if rep.traced:  # a fleet observes its shards by default; collect them
        rep.observatories += [fleet.obs] + [s.obs for s in fleet.shards]
    return fleet


def _gang(rep, where, mutators: int, ops: int, seed: int):
    jvm = Espresso(where, config=EspressoConfig(
        clock=Clock(), observatory=rep.observatory(), mutators=mutators))
    jvm.create_heap("kv", KV_BYTES)
    rep.track(jvm=jvm)
    return jvm, ConcurrentKvWorkload(
        jvm, mutators=mutators, ops_per_mutator=max(1, ops // mutators),
        key_space=KEY_SPACE, seed=seed, buckets=8)


def setup(rep):
    rng = rep.rng
    # Names are fixed so routing (CRC32 of the name) and hence the load
    # per shard do not move with the seed; what the tenants store does.
    tenants = [f"tenant-{i:03d}" for i in range(rep.n(TENANTS, floor=8))]
    state = {"tenants": tenants, "rounds": rep.n(ROUNDS), "model": {},
             "salt": f"{rng.randrange(1 << 32):08x}", "fsck": {}}
    for shards in (1, 4):
        fleet = _fleet(rep, rep.dir / f"fleet-{shards}", shards, tenants)
        model = {}
        for k in range(WARM_KEYS):   # committed warm state on every shard
            for sid in tenants:
                model[(sid, f"warm{k}")] = f"{sid}.warm{k}.{state['salt']}"
                fleet.submit(sid, "put", f"warm{k}", model[(sid, f"warm{k}")])
            fleet.drain()
        state[f"fleet{shards}"], state["model"][shards] = fleet, model
    state["victim"] = state["fleet4"].route(rng.choice(tenants))
    state["tear_seed"] = rng.randrange(1 << 30)
    ops = rep.n(GANG_OPS, floor=8)
    for mutators in (1, 4):
        state[f"gang{mutators}"] = _gang(
            rep, rep.dir / f"gang-{mutators}", mutators, ops,
            seed=rng.randrange(1 << 30))
    return state


def _contended_rounds(rep, state, shards: int) -> None:
    """Every tenant puts, drain, every tenant gets, drain — per round."""
    fleet, model = state[f"fleet{shards}"], state["model"][shards]
    tenants, salt = state["tenants"], state["salt"]
    for rnd in range(state["rounds"]):
        for sid in tenants:
            model[(sid, "cart")] = f"{sid}.{rnd}.{salt}"
            fleet.submit(sid, "put", "cart", model[(sid, "cart")])
        fleet.drain()
        gets = [fleet.submit(sid, "get", key) for sid in tenants
                for key in ("cart", f"warm{rnd % WARM_KEYS}")]
        fleet.drain()
        for request in gets:
            rep.check_equal(request.result,
                            model[(request.session_id, request.key)],
                            "fleet get", shards, request.session_id)


def _failover(rep, state) -> None:
    """Load every queue, pull the plug on one shard, serve, recover."""
    fleet, model = state["fleet4"], state["model"][4]
    tenants, victim = state["tenants"], state["victim"]
    heap = fleet.shards[victim].jvm.heaps.heap(shard_heap_name(victim))
    heap.device.set_fault_mode("torn", state["tear_seed"])
    pending = {}
    for sid in tenants:
        pending[sid] = f"{sid}.hot.{state['salt']}"
        fleet.submit(sid, "put", "cart", pending[sid])
    on_victim = [sid for sid in tenants if fleet.route(sid) == victim]
    dropped = fleet.crash_shard(victim)
    rep.check_equal(dropped, len(on_victim), "requests dropped by the crash")
    served = fleet.drain()
    rep.check_equal(len(served), len(tenants) - len(on_victim),
                    "requests served during the outage")
    fleet.recover_shard(victim)
    rep.track(jvm=fleet.shards[victim].jvm)
    for sid in tenants:
        got = fleet.get(sid, "cart")
        if sid in on_victim:   # never acknowledged: old or new
            rep.check(got in (model[(sid, "cart")], pending[sid]),
                      "victim tenant lost its committed cart", sid, got)
        else:
            rep.check_equal(got, pending[sid], "survivor cart", sid)
        rep.check_equal(fleet.get(sid, "warm0"), model[(sid, "warm0")],
                        "warm state after fail-over", sid)


def _gang_cycle(rep, state, mutators: int) -> None:
    """Run the gang hot, crash, recover, check durable linearizability."""
    jvm, workload = state[f"gang{mutators}"]
    report = workload.run()
    rep.check(report.steps > 0, "the gang made no progress", mutators)
    jvm = jvm.restart(crash=True)
    jvm.load_heap("kv")
    rep.track(jvm=jvm)
    problems = workload.check_after_recovery(jvm, completed=True)
    rep.check(not problems, "durable linearizability", mutators, problems[:3])
    state["fsck"][f"gang{mutators}"] = fsck_heap(jvm.heaps.heap("kv"))


def body(rep, state) -> None:
    with rep.leg("fleet.drain_s1"):
        _contended_rounds(rep, state, 1)
    with rep.leg("fleet.drain_s4"):
        _contended_rounds(rep, state, 4)
    with rep.leg("fleet.failover"):
        _failover(rep, state)
    with rep.leg("runtime.gang_m1"):
        _gang_cycle(rep, state, 1)
    with rep.leg("runtime.gang_m4"):
        _gang_cycle(rep, state, 4)


def verify(rep, state) -> None:
    for shards in (1, 4):
        fleet = state[f"fleet{shards}"]
        for shard in fleet.shards:
            heap = shard.jvm.heaps.heap(shard_heap_name(shard.index))
            state["fsck"][f"fleet{shards}.shard{shard.index}"] = \
                fsck_heap(heap)
    for name, report in state["fsck"].items():
        rep.check(report.clean, "fsck dirty", name, report.errors[:3])
