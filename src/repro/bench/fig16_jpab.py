"""Figure 16(a-d): JPAB throughput, H2-JPA vs H2-PJO.

Paper §6.3: "the evaluation result indicates that PJO (H2-PJO) outperforms
H2-JPA in all test cases and provides up to 3.24x speedup", across the four
JPAB tests (Basic/Ext/Collection/Node) and the four CRUD operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Tuple

from repro.jpab import (
    ALL_TESTS,
    OPERATIONS,
    make_jpa_em,
    make_pjo_em,
    run_jpab_test,
)

from repro.bench.harness import Experiment, format_table, slash_keys


@dataclass
class Fig16Result:
    count: int
    # (test, op) -> (jpa_throughput, pjo_throughput, speedup)
    cells: Dict[Tuple[str, str], Tuple[float, float, float]] = field(
        default_factory=dict)

    def speedup(self, test: str, op: str) -> float:
        return self.cells[(test, op)][2]


def run(count: int, heap_dir: Path) -> Fig16Result:
    result = Fig16Result(count=count)
    for test in ALL_TESTS:
        jpa = run_jpab_test(
            test, lambda clock: make_jpa_em(clock, test.entities),
            count, "H2-JPA")
        pjo = run_jpab_test(
            test, lambda clock: make_pjo_em(clock, test.entities,
                                            heap_dir / f"fig16-{test.name}"),
            count, "H2-PJO")
        for op in OPERATIONS:
            jpa_tp = jpa.operations[op].throughput
            pjo_tp = pjo.operations[op].throughput
            result.cells[(test.name, op)] = (
                jpa_tp, pjo_tp, pjo_tp / jpa_tp if jpa_tp else float("inf"))
    return result


def table(result: Fig16Result) -> str:
    rows = [(test, op, f"{jpa_tp:.1f}", f"{pjo_tp:.1f}", f"{speedup:.2f}x")
            for (test, op), (jpa_tp, pjo_tp, speedup) in result.cells.items()]
    return format_table(
        ["Test", "Operation", "H2-JPA ops/ms", "H2-PJO ops/ms", "Speedup"],
        rows,
        title=(f"Figure 16 — JPAB throughput, H2-JPA vs H2-PJO "
               f"({result.count} entities per test; paper: PJO wins all, "
               f"up to 3.24x)"))


def check(result: Fig16Result) -> None:
    for (test, op), (_jpa, _pjo, speedup) in result.cells.items():
        assert speedup > 1.0, \
            f"Fig. 16: PJO outperforms H2-JPA in all test cases ({test} {op})"
    assert max(cell[2] for cell in result.cells.values()) > 2.0, \
        "Fig. 16: the best PJO speedup clears 2x (paper: up to 3.24x)"
    for test in ALL_TESTS:
        assert result.speedup(test.name, "Create") <= \
            result.speedup(test.name, "Update"), \
            f"Fig. 16: Create is the most modest win ({test.name})"


def payload(result: Fig16Result) -> Dict[str, object]:
    """``cells``: "test/op" -> [jpa ops/ms, pjo ops/ms, speedup]."""
    return {"count": result.count, "cells": slash_keys(result.cells)}


EXPERIMENT = Experiment(
    name="fig16", title="Figure 16 — JPAB throughput, H2-JPA vs H2-PJO",
    run=run, full={"count": 60}, ci={"count": 30},
    table=table, check=check, payload=payload)
