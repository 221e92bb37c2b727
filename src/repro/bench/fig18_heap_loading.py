"""Figure 18: heap loading time, user-guaranteed vs zeroing safety.

Paper §6.4: heaps holding 0.2-2 million objects of 20 different Klasses.
"The heap loading time for user-guaranteed safety remains constant when the
number of objects increases, as the heap loading is dominated by the number
of Klasses instead of objects.  In contrast, the loading time grows
linearly with the number of objects with zeroing safety."

We sweep object counts (scaled down 10x by default — simulated time is
deterministic, so the flat-vs-linear shape needs no averaging) and measure
``loadHeap`` time under both safety levels.  A third series repeats the
zeroing load with an 8-worker gang (``gc_workers=8``): the scan
partitions the object walk over simulated workers, flattening the linear
curve without changing the loaded image.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from repro.api import Espresso
from repro.core.safety import SafetyLevel
from repro.runtime.klass import FieldKind, field as kfield

from repro.bench.harness import Experiment, format_table

KLASS_COUNT = 20  # "20 different Klasses", as in the paper


@dataclass
class Fig18Result:
    # object count -> {"UG": ms, "Zero": ms}
    series: Dict[int, Dict[str, float]] = field(default_factory=dict)


def _define_klasses(jvm) -> List:
    return [
        jvm.define_class(f"Fig18Type{k}",
                         [kfield("a", FieldKind.INT),
                          kfield("b", FieldKind.INT),
                          kfield("ref", FieldKind.REF)])
        for k in range(KLASS_COUNT)
    ]


def _build_heap(heap_dir: Path, object_count: int) -> None:
    jvm = Espresso(heap_dir)
    klasses = _define_klasses(jvm)
    # Size generously: ~5 words per object + slack.
    jvm.create_heap("fig18", max(1 << 20, object_count * 8 * 10))
    anchor = jvm.pnew_array(jvm.vm.object_klass, object_count)
    jvm.set_root("anchor", anchor)
    for i in range(object_count):
        obj = jvm.pnew(klasses[i % KLASS_COUNT])
        jvm.array_set(anchor, i, obj)
        obj.close()
    jvm.shutdown()


ZERO_WORKERS = 8  # gang size for the parallel-zeroing series


def _load_time_ms(heap_dir: Path, safety: SafetyLevel,
                  workers: int = 1) -> float:
    jvm = Espresso(heap_dir, gc_workers=workers)
    _define_klasses(jvm)
    _heap, report = jvm.heaps.load_heap_with_report("fig18", safety)
    return report.load_ns / 1e6


def run(object_counts: List[int], heap_dir: Path) -> Fig18Result:
    result = Fig18Result()
    for count in object_counts:
        build_dir = heap_dir / f"n{count}"
        _build_heap(build_dir, count)
        # Each load runs in its own fresh "JVM process".
        result.series[count] = {
            "UG": _load_time_ms(build_dir, SafetyLevel.USER_GUARANTEED),
            "Zero": _load_time_ms(build_dir, SafetyLevel.ZEROING),
            "ZeroW8": _load_time_ms(build_dir, SafetyLevel.ZEROING,
                                    workers=ZERO_WORKERS),
        }
    return result


def table(result: Fig18Result) -> str:
    rows = [(f"{count:,}", f"{times['UG']:.3f}", f"{times['Zero']:.3f}",
             f"{times['ZeroW8']:.3f}")
            for count, times in sorted(result.series.items())]
    return format_table(
        ["Objects", "UG load (ms)", "Zeroing load (ms)",
         f"Zeroing x{ZERO_WORKERS} workers (ms)"],
        rows,
        title=("Figure 18 — heap loading time (paper: UG flat in object "
               "count, zeroing linear; counts scaled 10x down)"))


def check(result: Fig18Result) -> None:
    counts = sorted(result.series)
    ug = [result.series[c]["UG"] for c in counts]
    zero = [result.series[c]["Zero"] for c in counts]
    assert max(ug) < min(ug) * 1.5 + 0.01, \
        "Fig. 18: user-guaranteed loading is flat in the object count"
    assert zero[-1] > zero[0] * 2.5, \
        "Fig. 18: zeroing grows linearly with the object count"
    for count in counts:
        times = result.series[count]
        assert times["Zero"] > times["UG"], \
            f"Fig. 18: zeroing is always the slower level ({count} objects)"
        assert times["ZeroW8"] <= times["Zero"], \
            f"Fig. 18: the zeroing gang is never slower ({count} objects)"


def payload(result: Fig18Result) -> Dict[str, object]:
    return {
        "klass_count": KLASS_COUNT,
        "zero_workers": ZERO_WORKERS,
        "series": {str(count): times
                   for count, times in sorted(result.series.items())},
    }


EXPERIMENT = Experiment(
    name="fig18", title="Figure 18 — heap loading time, UG vs zeroing",
    run=run,
    # The paper's 0.2M..2M objects scaled down 10x.
    full={"object_counts": [20_000, 50_000, 100_000, 150_000, 200_000]},
    ci={"object_counts": [2000, 4000, 8000]},
    table=table, check=check, payload=payload)
