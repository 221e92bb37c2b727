"""Figure 6: breakdown analysis for create operations in PCJ.

Paper: 200,000 ``PersistentLong`` creates; "the operation related to real
data manipulation only accounts for 1.8% ... operations related to metadata
update contribute 36.8%, most of which is caused by type information
memorization ... it takes 14.8% of the overall time to add garbage
collection related information to the newly created object."

We create PersistentLongs in our PCJ and report the same category shares
(measured through the clock scopes of :mod:`repro.pcj.base`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict

from repro.nvm.clock import Clock
from repro.pcj import MemoryPool, PersistentLong

from repro.bench.harness import (Experiment, breakdown_percentages,
                                 shares_table)

CATEGORIES = ["transaction", "gc", "metadata", "allocation", "data"]
PAPER_REFERENCE = {
    "transaction": 25.0,   # eyeballed from the stacked bar
    "gc": 14.8,
    "metadata": 36.8,
    "allocation": 15.0,    # eyeballed from the stacked bar
    "data": 1.8,
    "other": 6.6,
}


@dataclass
class Fig06Result:
    shares: Dict[str, float]
    per_create_ns: float
    count: int


def run(count: int) -> Fig06Result:
    """Scaled from the paper's 200,000 creates (simulated time is exact
    per-operation, so the share breakdown converges quickly)."""
    clock = Clock()
    pool = MemoryPool(max(1 << 20, count * 16), clock=clock,
                      tx_log_words=1 << 16)
    snapshot = clock.breakdown()
    start = clock.now_ns
    for i in range(count):
        PersistentLong(pool, i)
    delta = clock.breakdown_since(snapshot)
    shares = breakdown_percentages(delta, CATEGORIES)
    return Fig06Result(shares=shares,
                       per_create_ns=(clock.now_ns - start) / count,
                       count=count)


def table(result: Fig06Result) -> str:
    return shares_table(
        result.shares, PAPER_REFERENCE, "Category",
        title=(f"Figure 6 — PCJ create breakdown ({result.count} "
               f"PersistentLong creates, {result.per_create_ns:.0f} ns each)"))


def check(result: Fig06Result) -> None:
    shares = result.shares
    assert shares["data"] < 10.0, \
        "Fig. 6: real data manipulation is a sliver (paper 1.8%)"
    assert shares["metadata"] > shares["data"], \
        "Fig. 6: metadata update outweighs the data itself"
    assert shares["metadata"] > 15.0, \
        "Fig. 6: metadata (type memorization) is a first-class cost (36.8%)"
    assert 5.0 < shares["gc"] < 30.0, \
        "Fig. 6: GC bookkeeping is a first-class cost (paper 14.8%)"
    assert shares["transaction"] > 10.0, \
        "Fig. 6: the NVML transaction takes a double-digit share"


EXPERIMENT = Experiment(
    name="fig06", title="Figure 6 — PCJ create breakdown",
    # A PCJ MemoryPool persists nothing to a heap directory.
    run=lambda heap_dir, **size: run(**size),
    full={"count": 5000}, ci={"count": 1500},
    table=table, check=check, payload=asdict)
