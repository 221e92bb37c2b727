"""Ablation: PJO's §5 optimisations — field-level tracking and data
deduplication — switched on and off.

The paper motivates both qualitatively ("write latency in emerging NVM will
be several times larger than DRAM while read latency rivals DRAM"); this
harness quantifies each on the JPAB BasicTest update workload (tracking)
and on post-commit memory/read behaviour (dedup).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict

from repro.jpab import BASIC_TEST, CrudDriver, make_pjo_em
from repro.nvm.clock import Clock

from repro.bench.harness import Experiment, format_table

VARIANTS = [
    ("tracking+dedup", True, True),
    ("tracking only", True, False),
    ("dedup only", False, True),
    ("neither", False, False),
]


@dataclass
class AblationResult:
    count: int
    # variant name -> {operation: ops/ms}
    throughput: Dict[str, Dict[str, float]]

    def update_gain(self) -> float:
        """Update-op gain of field tracking over full-row shipping."""
        return (self.throughput["tracking+dedup"]["Update"]
                / self.throughput["dedup only"]["Update"])


def run(count: int, heap_dir: Path) -> AblationResult:
    throughput: Dict[str, Dict[str, float]] = {}
    for name, tracking, dedup in VARIANTS:
        clock = Clock()
        em = make_pjo_em(clock, BASIC_TEST.entities,
                         heap_dir / name.replace(" ", "_").replace("+", "_"),
                         field_tracking=tracking, deduplication=dedup)
        driver = CrudDriver(em, BASIC_TEST, count)
        results: Dict[str, float] = {}
        for operation in ("Create", "Retrieve", "Update", "Delete"):
            start = clock.now_ns
            ops = getattr(driver, operation.lower())()
            elapsed = clock.now_ns - start
            results[operation] = ops / (elapsed / 1e6) if elapsed else 0.0
        throughput[name] = results
    return AblationResult(count=count, throughput=throughput)


def table(result: AblationResult) -> str:
    rows = []
    for name, _t, _d in VARIANTS:
        ops = result.throughput[name]
        rows.append((name, f"{ops['Create']:.1f}", f"{ops['Retrieve']:.1f}",
                     f"{ops['Update']:.1f}", f"{ops['Delete']:.1f}"))
    return format_table(
        ["PJO variant", "Create", "Retrieve", "Update", "Delete"],
        rows,
        title=(f"Ablation — PJO optimisations (ops/ms, JPAB BasicTest, "
               f"{result.count} entities); field tracking gains "
               f"{result.update_gain():.2f}x on Update"))


def check(result: AblationResult) -> None:
    assert result.update_gain() > 1.2, \
        "§5: field-level tracking pays off on updates"
    assert result.throughput["tracking+dedup"]["Update"] \
        > result.throughput["neither"]["Update"], \
        "§5: the fully optimised variant beats the bare one on updates"


EXPERIMENT = Experiment(
    name="ablation_pjo", title="Ablation — PJO field tracking and dedup",
    run=run, full={"count": 60}, ci={"count": 30},
    table=table, check=check, payload=asdict)
