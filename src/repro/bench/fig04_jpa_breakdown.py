"""Figure 4: breakdown for the commit/retrieve phase of DataNucleus.

Paper: "We test its retrieve operation using the JPA Performance Benchmark.
... the user-oriented operations on the database only account for 24.0%.
In contrast, the transformation from objects to SQL statements takes 41.9%."

We run the JPAB BasicTest retrieve workload against the JPA provider and
report the clock's category breakdown: ``database`` (execution inside H2),
``transformation`` (object<->SQL translation) and ``other`` (provider
bookkeeping).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict

from repro.jpab import BASIC_TEST, CrudDriver, make_jpa_em
from repro.nvm.clock import Clock

from repro.bench.harness import (Experiment, breakdown_percentages,
                                 shares_table)

PAPER_REFERENCE = {"database": 24.0, "transformation": 41.9, "other": 34.1}


@dataclass
class Fig04Result:
    shares: Dict[str, float]
    total_ns: float
    count: int


def run(count: int) -> Fig04Result:
    clock = Clock()
    em = make_jpa_em(clock, BASIC_TEST.entities)
    driver = CrudDriver(em, BASIC_TEST, count)
    driver.create()
    snapshot = clock.breakdown()
    start = clock.now_ns
    driver.retrieve()
    delta = clock.breakdown_since(snapshot)
    shares = breakdown_percentages(delta, ["database", "transformation"])
    return Fig04Result(shares=shares, total_ns=clock.now_ns - start,
                       count=count)


def table(result: Fig04Result) -> str:
    return shares_table(
        result.shares, PAPER_REFERENCE, "Phase",
        title=(f"Figure 4 — DataNucleus retrieve breakdown "
               f"({result.count} retrieves, "
               f"{result.total_ns / 1e6:.2f} simulated ms)"))


def check(result: Fig04Result) -> None:
    shares = result.shares
    assert shares["transformation"] > shares["database"], \
        "Fig. 4: transformation (paper 41.9%) outweighs the database (24.0%)"
    assert shares["transformation"] > 30.0, \
        "Fig. 4: transformation is the largest share, above 30%"
    assert shares["other"] > 10.0, \
        "Fig. 4: provider bookkeeping (paper 34.1%) stays above 10%"


EXPERIMENT = Experiment(
    name="fig04", title="Figure 4 — DataNucleus commit breakdown",
    # JPA over H2 persists nothing to a heap directory.
    run=lambda heap_dir, **size: run(**size),
    full={"count": 200}, ci={"count": 60},
    table=table, check=check, payload=asdict)
