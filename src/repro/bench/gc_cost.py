"""§6.4 "The cost of recoverable GC".

Paper: "The benchmark allocates lots of objects on PJH and some references
to them are abandoned afterwards.  We use System.gc() to forcedly collect
PJH and test the pause time.  For the baseline, we remove all the clflush
operations ... The evaluation result shows that the flush operations would
increase the pause time by 17.8%, which is still acceptable for the benefit
of crash consistency."

Same setup here: populate a PJH, drop a fraction of the references, run the
persistent collection once with flushes enabled and once with the
no-clflush baseline hooks, and report the pause-time overhead.

A second sweep re-runs the same collection with ``gc_workers`` of 1, 2,
4 and 8 (the paper's collector is Parallel Scavenge old GC, §4.2).  The
simulated pause shrinks as the max-over-workers barrier model kicks in
while the durable image stays byte-identical — each row records the
image's SHA-256 so the invariant is diffable from the JSON alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.api import Espresso
from repro.core.pgc import PersistentGC
from repro.runtime.klass import FieldKind, field as kfield

from repro.bench.harness import Experiment, format_table


@dataclass
class GcCostResult:
    objects: int
    flush_pause_ms: float
    baseline_pause_ms: float
    flushes: int

    @property
    def overhead_percent(self) -> float:
        if self.baseline_pause_ms <= 0:
            return 0.0
        return 100.0 * (self.flush_pause_ms - self.baseline_pause_ms) \
            / self.baseline_pause_ms


def _populate(heap_dir: Path, object_count: int, live_every: int = 4):
    jvm = Espresso(heap_dir)
    node = jvm.define_class("GcNode", [kfield("value", FieldKind.INT),
                                       kfield("next", FieldKind.REF)])
    jvm.create_heap("gc", max(1 << 21, object_count * 8 * 8))
    keep = jvm.pnew_array(jvm.vm.object_klass, object_count // live_every + 1)
    jvm.set_root("keep", keep)
    kept = 0
    for i in range(object_count):
        obj = jvm.pnew(node)
        jvm.set_field(obj, "value", i)
        if i % live_every == 0:
            jvm.array_set(keep, kept, obj)
            kept += 1
        obj.close()
    return jvm


def run(object_count: int, heap_dir: Path) -> GcCostResult:
    # Two identical heaps: one collected with flushes, one without.
    jvm_flush = _populate(heap_dir / "flush", object_count)
    jvm_base = _populate(heap_dir / "base", object_count)

    heap_flush = jvm_flush.heaps.heap("gc")
    start = jvm_flush.clock.now_ns
    result_flush = PersistentGC(heap_flush, flush_enabled=True).collect()
    flush_ms = (jvm_flush.clock.now_ns - start) / 1e6

    heap_base = jvm_base.heaps.heap("gc")
    start = jvm_base.clock.now_ns
    PersistentGC(heap_base, flush_enabled=False).collect()
    base_ms = (jvm_base.clock.now_ns - start) / 1e6

    return GcCostResult(objects=object_count, flush_pause_ms=flush_ms,
                        baseline_pause_ms=base_ms,
                        flushes=result_flush.flushes)


@dataclass
class GcScalingRow:
    workers: int
    pause_ms: float
    speedup: float           # vs. the single-worker pause
    image_sha256: str        # durable image after the collection


def run_scaling(object_count: int, heap_dir: Path,
                worker_counts: Sequence[int] = (1, 2, 4, 8)
                ) -> List[GcScalingRow]:
    """One identical collection per worker count; pause and image digest."""
    rows: List[GcScalingRow] = []
    base_pause_ms = None
    for workers in worker_counts:
        jvm = _populate(heap_dir / f"w{workers}", object_count)
        heap = jvm.heaps.heap("gc")
        start = jvm.clock.now_ns
        PersistentGC(heap, workers=workers).collect()
        pause_ms = (jvm.clock.now_ns - start) / 1e6
        if base_pause_ms is None:
            base_pause_ms = pause_ms
        digest = hashlib.sha256(
            heap.device.durable_image().tobytes()).hexdigest()
        rows.append(GcScalingRow(
            workers=workers, pause_ms=pause_ms,
            speedup=base_pause_ms / pause_ms if pause_ms else 0.0,
            image_sha256=digest))
    return rows


GcResult = Tuple[GcCostResult, List[GcScalingRow]]


def run_both(object_count: int, heap_dir: Path) -> GcResult:
    """The §6.4 flush-cost pair, then the §4.2 worker-scaling sweep."""
    return (run(object_count, heap_dir),
            run_scaling(object_count, heap_dir))


def table(result: GcResult) -> str:
    cost, scaling = result
    cost_table = format_table(
        ["Objects", "Recoverable GC (ms)", "No-flush baseline (ms)",
         "Overhead", "Paper"],
        [(f"{cost.objects:,}", f"{cost.flush_pause_ms:.3f}",
          f"{cost.baseline_pause_ms:.3f}",
          f"{cost.overhead_percent:.1f}%", "17.8%")],
        title="§6.4 — pause-time cost of the recoverable GC")
    scaling_table = format_table(
        ["GC workers", "Pause (ms)", "Speedup", "Image SHA-256 (first 12)"],
        [(row.workers, f"{row.pause_ms:.3f}", f"{row.speedup:.2f}x",
          row.image_sha256[:12]) for row in scaling],
        title="§4.2 — parallel old-GC pause scaling (image must not vary)")
    return f"{cost_table}\n\n{scaling_table}"


def check(result: GcResult) -> None:
    cost, scaling = result
    assert cost.flushes > 0 \
        and cost.flush_pause_ms > cost.baseline_pause_ms, \
        "§6.4: the recoverable GC flushes, and flushing costs pause time"
    assert 0.0 < cost.overhead_percent < 60.0, \
        "§6.4: flushes cost a modest share of the pause (paper 17.8%)"
    assert len({row.image_sha256 for row in scaling}) == 1, \
        "§4.2: the durable image is identical at every gang size"
    assert scaling[0].speedup == 1.0 and scaling[-1].speedup >= 2.0, \
        f"§4.2: {scaling[-1].workers} workers at least halve the pause"


def payload(result: GcResult) -> Dict[str, object]:
    cost, scaling = result
    return {
        "objects": cost.objects,
        "flush_pause_ms": cost.flush_pause_ms,
        "baseline_pause_ms": cost.baseline_pause_ms,
        "overhead_percent": cost.overhead_percent,
        "scaling": [asdict(row) for row in scaling],
    }


EXPERIMENT = Experiment(
    name="gc_cost", title="§6.4 — the cost of recoverable GC",
    run=run_both, full={"object_count": 8000}, ci={"object_count": 3000},
    table=table, check=check, payload=payload)
