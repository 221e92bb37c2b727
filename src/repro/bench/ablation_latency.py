"""Ablation: sensitivity of the headline results to NVM media latency.

The paper's machine had one NVDIMM; emerging media span a wide latency
range.  This harness re-runs a Figure 15 slice (Tuple create/set/get) and a
Figure 16 slice (BasicTest update) with every NVM latency scaled by 1x, 2x
and 4x, showing that the *direction* of every headline claim is insensitive
to the media constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict

from repro.api import Espresso
from repro.jpab import BASIC_TEST, make_jpa_em, make_pjo_em, run_jpab_test
from repro.nvm.clock import Clock
from repro.nvm.latency import DEFAULT_LATENCY, LatencyConfig
from repro.pcj import MemoryPool, PersistentLong, PersistentTuple
from repro.pjhlib import PjhLong, PjhTransaction, PjhTuple

from repro.bench.harness import Experiment, format_table, per_op_ns

SCALES = [1.0, 2.0, 4.0]


@dataclass
class LatencyAblationResult:
    # scale -> {"tuple_set": speedup, "tuple_get": ..., "jpab_update": ...}
    by_scale: Dict[float, Dict[str, float]]

    def all_directions_hold(self) -> bool:
        return all(speedup > 1.0
                   for cells in self.by_scale.values()
                   for speedup in cells.values())


def _tuple_speedups(latency: LatencyConfig, count: int,
                    heap_dir: Path) -> Dict[str, float]:
    pcj_clock = Clock()
    pool = MemoryPool(1 << 21, clock=pcj_clock, latency=latency,
                      tx_log_words=1 << 14)
    tuples = [PersistentTuple(pool, 3) for _ in range(count)]
    values = [PersistentLong(pool, i) for i in range(16)]
    pcj_set = per_op_ns(
        pcj_clock, lambda i: tuples[i].set(i % 3, values[i % 16]), count)
    pcj_get = per_op_ns(pcj_clock, lambda i: tuples[i].get(i % 3), count)

    jvm = Espresso(heap_dir, latency=latency)
    jvm.create_heap("t", 1 << 23)
    txn = PjhTransaction(jvm)
    ptuples = [PjhTuple(jvm, txn, 3) for _ in range(count)]
    pvalues = [PjhLong(jvm, txn, i) for i in range(16)]
    pjh_set = per_op_ns(
        jvm.clock, lambda i: ptuples[i].set(i % 3, pvalues[i % 16]), count)
    pjh_get = per_op_ns(jvm.clock, lambda i: ptuples[i].get(i % 3), count)
    return {"tuple_set": pcj_set / pjh_set, "tuple_get": pcj_get / pjh_get}


def run(count: int, heap_dir: Path) -> LatencyAblationResult:
    by_scale: Dict[float, Dict[str, float]] = {}
    for scale in SCALES:
        latency = DEFAULT_LATENCY.scaled(scale)
        cells = _tuple_speedups(latency, count, heap_dir / f"tuple{scale}")
        jpa = run_jpab_test(
            BASIC_TEST,
            lambda clock: make_jpa_em(clock, BASIC_TEST.entities,
                                      latency=latency),
            25, "H2-JPA")
        pjo = run_jpab_test(
            BASIC_TEST,
            lambda clock: make_pjo_em(clock, BASIC_TEST.entities,
                                      heap_dir / f"jpab{scale}",
                                      latency=latency),
            25, "H2-PJO")
        cells["jpab_update"] = (pjo.operations["Update"].throughput
                                / jpa.operations["Update"].throughput)
        by_scale[scale] = cells
    return LatencyAblationResult(by_scale=by_scale)


def table(result: LatencyAblationResult) -> str:
    rows = [(f"{scale:.0f}x",
             f"{cells['tuple_set']:.1f}x",
             f"{cells['tuple_get']:.1f}x",
             f"{cells['jpab_update']:.2f}x")
            for scale, cells in sorted(result.by_scale.items())]
    return format_table(
        ["NVM latency", "Tuple set (PJH/PCJ)", "Tuple get (PJH/PCJ)",
         "JPAB update (PJO/JPA)"],
        rows,
        title="Ablation — headline speedups under scaled NVM media latency")


def check(result: LatencyAblationResult) -> None:
    assert result.all_directions_hold(), \
        "every headline direction holds at 1x, 2x and 4x NVM latency"


def payload(result: LatencyAblationResult) -> Dict[str, object]:
    return {"by_scale": {f"{scale:g}x": cells
                         for scale, cells in sorted(result.by_scale.items())}}


EXPERIMENT = Experiment(
    name="ablation_latency", title="Ablation — NVM media latency sensitivity",
    run=run, full={"count": 800}, ci={"count": 300},
    table=table, check=check, payload=payload)
