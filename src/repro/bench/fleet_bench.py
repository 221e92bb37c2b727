"""Fleet scaling benchmark: throughput/latency vs shard count, §15.

A contended KV session-store workload (every tenant touches the fleet
every round) is replayed against fleets of 1/2/4/8 shards sharing one
simulated clock.  Because :meth:`FleetRouter.drain` commits the *max*
over per-shard service meters (the shards are parallel in simulated
time), throughput should scale with the shard count up to the load of
the busiest shard — the paper's "more heaps, more parallelism" argument
applied to serving instead of GC.

The second half measures fail-over: with every shard's queue loaded,
one shard power-fails; the survivors drain their queues, the victim
recovers on the gang, and the recovery time lands in the report via
:mod:`repro.obs.fleet`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.bench.harness import Experiment, format_table
from repro.fleet import FleetConfig, FleetRouter

SHARD_COUNTS = (1, 2, 4, 8)
SESSIONS = 64
ROUNDS = 4
RECOVERY_SHARDS = 8


@dataclass
class ScalingRow:
    shards: int
    requests: int
    elapsed_ms: float
    throughput_ops_per_ms: float
    p50_ns: float
    p99_ns: float
    speedup: float  # vs the smallest shard count in the run


@dataclass
class FleetBenchResult:
    rows: List[ScalingRow]
    recovery: Dict[str, object]
    sessions: int
    rounds: int

    @property
    def max_speedup(self) -> float:
        return self.rows[-1].speedup


def _tenants(count: int) -> List[str]:
    return [f"tenant-{i}" for i in range(count)]


def _drive(fleet: FleetRouter, sessions: Sequence[str],
           rounds: int) -> Tuple[int, float]:
    """Contended rounds: every tenant puts, drain, every tenant gets.

    Submitting the whole round before draining is what makes the load
    *contended* — each shard serves its entire slice back to back, so
    the batch time is the busiest shard's service time.
    """
    before = fleet.clock.now_ns
    ops = 0
    for rnd in range(rounds):
        for sid in sessions:
            fleet.submit(sid, "put", f"r{rnd}", f"{sid}.{rnd}")
        fleet.drain()
        for sid in sessions:
            fleet.submit(sid, "get", f"r{rnd}")
        fleet.drain()
        ops += 2 * len(sessions)
    return ops, fleet.clock.now_ns - before


def _config(shards: int, sessions: int) -> FleetConfig:
    return FleetConfig(shards=shards, shard_size_bytes=512 * 1024,
                       max_in_flight=max(64, 2 * sessions))


def run_scaling(heap_dir: Path, shard_counts: Sequence[int] = SHARD_COUNTS,
                sessions: int = SESSIONS,
                rounds: int = ROUNDS) -> List[ScalingRow]:
    """One fresh fleet per shard count, identical workload, same tenants."""
    tenants = _tenants(sessions)
    rows: List[ScalingRow] = []
    baseline = None
    for count in shard_counts:
        fleet = FleetRouter.create(heap_dir / f"fleet-{count}",
                                   config=_config(count, sessions))
        ops, elapsed_ns = _drive(fleet, tenants, rounds)
        report = fleet.report()
        elapsed_ms = elapsed_ns / 1e6
        throughput = ops / elapsed_ms
        if baseline is None:
            baseline = throughput
        rows.append(ScalingRow(
            shards=count,
            requests=int(report["requests"]),
            elapsed_ms=elapsed_ms,
            throughput_ops_per_ms=throughput,
            p50_ns=float(report["p50_ns"]),
            p99_ns=float(report["p99_ns"]),
            speedup=throughput / baseline,
        ))
        fleet.shutdown()
    return rows


def run_recovery(heap_dir: Path, shards: int = RECOVERY_SHARDS,
                 sessions: int = SESSIONS,
                 rounds: int = 2) -> Dict[str, object]:
    """Crash one shard with every queue loaded; measure the fail-over.

    Returns the recovery time plus what happened to in-flight traffic:
    the victim's queue is dropped, the survivors' queues are served
    during the outage, and the victim's committed state is intact after
    recovery.
    """
    tenants = _tenants(sessions)
    fleet = FleetRouter.create(heap_dir / "fleet-recovery",
                               config=_config(shards, sessions))
    _drive(fleet, tenants, rounds)  # committed warm state on every shard

    victim = fleet.route(tenants[0])
    for sid in tenants:  # load every queue, then pull the plug
        fleet.submit(sid, "put", "hot", sid)
    dropped = fleet.crash_shard(victim)
    served_during_outage = len(fleet.drain())
    recovery_ns = fleet.recover_shard(victim)
    victim_intact = fleet.get(tenants[0], "r0") == f"{tenants[0]}.0"
    report = fleet.report()
    fleet.shutdown()
    return {
        "shards": shards,
        "victim": victim,
        "dropped": dropped,
        "served_during_outage": served_during_outage,
        "recovery_ns": recovery_ns,
        "recovery_ms": recovery_ns / 1e6,
        "victim_state_intact": victim_intact,
        "summary": report["recovery"],
    }


def run(heap_dir: Path, shard_counts: Sequence[int] = SHARD_COUNTS,
        sessions: int = SESSIONS, rounds: int = ROUNDS,
        recovery_shards: int = RECOVERY_SHARDS) -> FleetBenchResult:
    rows = run_scaling(heap_dir, shard_counts, sessions, rounds)
    recovery = run_recovery(heap_dir, recovery_shards, sessions)
    return FleetBenchResult(rows=rows, recovery=recovery,
                            sessions=sessions, rounds=rounds)


def table(result: FleetBenchResult) -> str:
    scaling_table = format_table(
        ["Shards", "Requests", "Elapsed (ms)", "ops/ms", "p50 (ns)",
         "p99 (ns)", "Speedup"],
        [(row.shards, row.requests, f"{row.elapsed_ms:.3f}",
          f"{row.throughput_ops_per_ms:.1f}", row.p50_ns, row.p99_ns,
          f"{row.speedup:.2f}x") for row in result.rows],
        title=(f"§15 — fleet throughput vs shard count "
               f"({result.sessions} tenants, {result.rounds} contended "
               f"rounds; target: {result.rows[-1].shards}-shard ≥ 3x "
               f"1-shard)"))
    rec = result.recovery
    return (f"{scaling_table}\n"
            f"fail-over ({rec['shards']} shards): victim shard "
            f"{rec['victim']} dropped {rec['dropped']} in-flight, survivors "
            f"served {rec['served_during_outage']} during the outage, "
            f"recovered in {rec['recovery_ms']:.3f} ms, committed state "
            f"intact: {rec['victim_state_intact']}")


def check(result: FleetBenchResult) -> None:
    rows, rec = result.rows, result.recovery
    speedups = [row.speedup for row in rows]
    assert speedups[0] == 1.0 and speedups == sorted(speedups), \
        "§15: throughput never drops as shards are added"
    assert result.max_speedup >= 3.0, \
        f"§15: {rows[-1].shards} shards clear 3x the 1-shard throughput"
    assert rows[-1].p50_ns < rows[0].p50_ns, \
        "§15: more shards mean less queueing per shard (p50 drops)"
    for row in rows:
        assert row.p99_ns >= row.p50_ns > 0, \
            f"§15: latency percentiles are ordered ({row.shards} shards)"
    assert rec["dropped"] > 0 and rec["served_during_outage"] > 0, \
        "§15: the victim's queue is lost, the survivors serve the outage"
    assert rec["recovery_ns"] > 0 and rec["summary"]["count"] == 1, \
        "§15: exactly one recovery, and it takes simulated time"
    assert rec["victim_state_intact"] is True, \
        "§15: the victim's committed state survives the fail-over"


def payload(result: FleetBenchResult) -> Dict[str, object]:
    return {"scaling": [asdict(row) for row in result.rows],
            "max_speedup": result.max_speedup,
            "recovery": result.recovery}


EXPERIMENT = Experiment(
    name="fleet", title="§15 — fleet throughput vs shard count, fail-over",
    run=run,
    full={"shard_counts": SHARD_COUNTS, "sessions": SESSIONS,
          "rounds": ROUNDS, "recovery_shards": RECOVERY_SHARDS},
    ci={"shard_counts": (1, 8), "sessions": 48, "rounds": 3,
        "recovery_shards": RECOVERY_SHARDS},
    table=table, check=check, payload=payload)
