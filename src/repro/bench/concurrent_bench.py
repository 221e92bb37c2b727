"""Mutator-gang scaling benchmark: KV throughput vs gang width.

A fixed budget of contended KV operations (puts/removes/gets over a
small shared key space of the lock-free durable map) is split evenly
across gangs of 1/2/4/8 mutators sharing one simulated clock.  Because
:meth:`MutatorGang.run` commits the *max* over per-mutator charge
meters — the mutators are parallel in simulated time — wall time should
shrink (and throughput grow) with the gang width, bounded by CAS-retry
work the contention induces: the paper's "more non-volatility" story
only pays off if the durable structures scale with the mutators
hammering them.

The ≥3x acceptance line mirrors the fleet bench: an 8-mutator gang must
clear 3x the single-mutator throughput on the identical op budget.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Sequence

from repro.bench.harness import Experiment, format_table

GANG_WIDTHS = (1, 2, 4, 8)
TOTAL_OPS = 96
KEY_SPACE = 6
SEED = 11


@dataclass
class GangRow:
    mutators: int
    ops: int
    steps: int
    elapsed_ms: float
    throughput_ops_per_ms: float
    busy_ns: List[int]
    speedup: float  # vs the narrowest gang in the run


@dataclass
class ConcurrentBenchResult:
    rows: List[GangRow]
    total_ops: int
    key_space: int

    @property
    def max_speedup(self) -> float:
        return self.rows[-1].speedup


def run_scaling(heap_dir: Path, widths: Sequence[int] = GANG_WIDTHS,
                total_ops: int = TOTAL_OPS,
                key_space: int = KEY_SPACE,
                seed: int = SEED) -> List[GangRow]:
    """One fresh session per gang width, identical total op budget."""
    from repro.api import Espresso
    from repro.workloads.concurrent_kv import ConcurrentKvWorkload

    rows: List[GangRow] = []
    baseline = None
    for width in widths:
        jvm = Espresso(heap_dir / f"gang-{width}", mutators=width)
        jvm.create_heap("kv", 4 * 1024 * 1024)
        workload = ConcurrentKvWorkload(
            jvm, mutators=width, ops_per_mutator=total_ops // width,
            key_space=key_space, seed=seed, buckets=8)
        report = workload.run()
        elapsed_ms = report.committed_ns / 1e6
        throughput = len(workload.ops) / elapsed_ms
        if baseline is None:
            baseline = throughput
        rows.append(GangRow(
            mutators=width,
            ops=len(workload.ops),
            steps=report.steps,
            elapsed_ms=elapsed_ms,
            throughput_ops_per_ms=throughput,
            busy_ns=list(report.busy_ns),
            speedup=throughput / baseline,
        ))
    return rows


def run(heap_dir: Path, widths: Sequence[int] = GANG_WIDTHS,
        total_ops: int = TOTAL_OPS,
        key_space: int = KEY_SPACE) -> ConcurrentBenchResult:
    rows = run_scaling(heap_dir, widths, total_ops, key_space)
    return ConcurrentBenchResult(rows=rows, total_ops=total_ops,
                                 key_space=key_space)


def table(result: ConcurrentBenchResult) -> str:
    return format_table(
        ["Mutators", "Ops", "Steps", "Elapsed (ms)", "ops/ms", "Speedup"],
        [(row.mutators, row.ops, row.steps, f"{row.elapsed_ms:.4f}",
          f"{row.throughput_ops_per_ms:.1f}", f"{row.speedup:.2f}x")
         for row in result.rows],
        title=(f"§16 — contended KV throughput vs gang width "
               f"({result.total_ops} ops over {result.key_space} keys; "
               f"target: 8-mutator ≥ 3x 1-mutator)"))


def check(result: ConcurrentBenchResult) -> None:
    rows = result.rows
    speedups = [row.speedup for row in rows]
    assert speedups[0] == 1.0 and speedups == sorted(speedups), \
        "§16: throughput never drops as the gang widens"
    assert result.max_speedup >= 3.0, \
        f"§16: {rows[-1].mutators} mutators clear 3x the 1-mutator " \
        f"throughput on the identical op budget"
    assert rows[-1].elapsed_ms < rows[0].elapsed_ms, \
        "§16: the widest gang finishes the budget sooner"


def payload(result: ConcurrentBenchResult) -> Dict[str, object]:
    return {"scaling": [asdict(row) for row in result.rows],
            "max_speedup": result.max_speedup}


# A tenth of a host second at full size, so tier-1 runs that too.
_SIZE = {"widths": GANG_WIDTHS, "total_ops": TOTAL_OPS, "key_space": KEY_SPACE}

EXPERIMENT = Experiment(
    name="concurrent", title="§16 — contended KV throughput vs gang width",
    run=run, full=_SIZE, ci=_SIZE,
    table=table, check=check, payload=payload)
