"""Crash-transparent execution: replay accounting and checkpoint cost.

Two questions about the resume protocol (§14 of DESIGN.md), answered from
the deterministic simulator:

* **What does a crash cost at resume time?**  The same task is crashed at
  a stride of failpoint hits across its whole lifetime; after each crash
  the session restarts, loads the heap and re-runs the task.  The
  ``repro.obs`` counters split the second run into *skipped* steps
  (answered from durable checkpoint slots) and *executed* steps (work the
  crash actually lost), plus the frames replayed from the persistent
  stack.  Every resumed run must converge to the byte-identical durable
  image of an uncrashed run — the digest is recorded per row so the
  invariant is diffable from the JSON alone.

* **What do the checkpoints cost when nothing crashes?**  The identical
  object-graph workload runs once as a plain (non-resumable) session and
  once under the task engine; the per-device flush/fence counters and the
  simulated clock give the durable-write amplification and time overhead
  of frame pushes + step checkpoints.

``run()`` answers both; its result is ``(overhead, rows, golden)``.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from repro.api import Espresso, EspressoConfig
from repro.errors import SimulatedCrash
from repro.obs import Observatory
from repro.runtime.klass import FieldKind, field as kfield

from repro.bench.harness import Experiment, format_table

#: Steps per iteration: one allocation step + one weigh-call step.
STEPS_PER_ITERATION = 2


def _define(jvm) -> None:
    jvm.define_class("BenchNode", [kfield("v", FieldKind.INT),
                                   kfield("next", FieldKind.REF)])


def _mk(s, i, prev):
    node = s.pnew("BenchNode")
    s.set_field(node, "v", i)
    if prev is not None:
        s.set_field(node, "next", prev)
    s.flush_reachable(node)
    return node


def _register(jvm) -> None:
    @jvm.register_task("build")
    def build(task, s, n):
        prev = None
        total = 0
        for i in range(n):
            prev = task.step(_mk, s, i, prev)
            total += task.call("weigh", i)
        s.set_root("list", prev)
        return total

    @jvm.register_task("weigh")
    def weigh(task, s, i):
        return task.step(lambda: i * i)


def _session(heap_dir: Path, resumable: bool) -> Espresso:
    cfg = EspressoConfig(resumable=resumable, observatory=Observatory())
    jvm = Espresso(heap_dir, config=cfg)
    _define(jvm)
    if resumable:
        _register(jvm)
    jvm.create_heap("h", 512 * 1024)
    return jvm


def _image_hash(jvm) -> str:
    device = jvm.heaps.heap("h").device
    return hashlib.sha256(device.durable_image().tobytes()).hexdigest()


@dataclass
class OverheadResult:
    """Plain vs resumable run of the identical object-graph workload."""

    iterations: int
    plain: Dict[str, int]
    resumable: Dict[str, int]
    plain_ms: float
    resumable_ms: float

    def amplification(self, key: str) -> float:
        base = self.plain.get(key, 0)
        return self.resumable.get(key, 0) / base if base else 0.0

    @property
    def time_overhead_percent(self) -> float:
        if self.plain_ms <= 0:
            return 0.0
        return 100.0 * (self.resumable_ms - self.plain_ms) / self.plain_ms


def run_overhead(iterations: int, heap_dir: Path) -> OverheadResult:
    jvm = _session(heap_dir / "plain", resumable=False)
    heap = jvm.heaps.heap("h")
    since = heap.device.stats.snapshot()
    start = jvm.clock.now_ns
    prev = None
    total = 0
    for i in range(iterations):
        prev = _mk(jvm, i, prev)
        total += i * i
    jvm.set_root("list", prev)
    # The task engine's finalize runs one persistent GC and canonicalizes
    # the durable image (that is what buys byte-identity); give the plain
    # baseline the same tail so the delta isolates the frame protocol —
    # pushes, checkpoints, pops — rather than the shared finalize cost.
    heap.collect()
    heap.canonicalize_durable_image()
    plain_ms = (jvm.clock.now_ns - start) / 1e6
    plain = heap.device.stats.delta(since).as_dict()

    jvm = _session(heap_dir / "resumable", resumable=True)
    since = jvm.heaps.heap("h").device.stats.snapshot()
    start = jvm.clock.now_ns
    assert jvm.resumable_task("build").run(iterations) == total
    resumable_ms = (jvm.clock.now_ns - start) / 1e6
    resumable = jvm.heaps.heap("h").device.stats.delta(since).as_dict()

    return OverheadResult(iterations=iterations, plain=plain,
                          resumable=resumable, plain_ms=plain_ms,
                          resumable_ms=resumable_ms)


@dataclass
class ResumeRow:
    """One crash/restart/resume cycle of the task."""

    crash_hit: int           # global failpoint hit the crash landed on
    frames_replayed: int
    steps_skipped: int       # answered from durable checkpoints
    steps_executed: int      # work the crash actually lost
    resume_ms: float         # simulated time of the resumed run
    image_sha256: str        # durable image after the resumed run

    @property
    def steps_total(self) -> int:
        return self.steps_skipped + self.steps_executed


def run_resume(iterations: int, stride: int, heap_dir: Path
               ) -> Tuple[List[ResumeRow], str]:
    """Crash the task every *stride* failpoint hits; resume and account.

    Returns the rows plus the golden (uncrashed) image digest every row
    must reproduce.
    """
    jvm = _session(heap_dir / "golden", resumable=True)
    expected = jvm.resumable_task("build").run(iterations)
    golden = _image_hash(jvm)

    rows: List[ResumeRow] = []
    hit = stride
    while True:
        jvm = _session(heap_dir / f"hit{hit}", resumable=True)
        jvm.vm.failpoints.crash_on_global_hit(hit)
        try:
            jvm.resumable_task("build").run(iterations)
        except SimulatedCrash:
            pass
        else:
            break  # the bomb outlived the workload: sweep complete
        jvm2 = jvm.restart(crash=True)
        _define(jvm2)
        jvm2.load_heap("h")
        since = jvm2.obs.metrics.counters_snapshot()
        start = jvm2.clock.now_ns
        result = jvm2.resumable_task("build").run(iterations)
        assert result == expected, (hit, result, expected)
        resume_ms = (jvm2.clock.now_ns - start) / 1e6
        delta = jvm2.obs.metrics.counters_since(since)
        rows.append(ResumeRow(
            crash_hit=hit,
            frames_replayed=delta.get("resume.frames_replayed", 0),
            steps_skipped=delta.get("resume.steps_skipped", 0),
            steps_executed=delta.get("resume.steps_executed", 0),
            resume_ms=resume_ms,
            image_sha256=_image_hash(jvm2)))
        hit += stride
    return rows, golden


ResumeResult = Tuple[OverheadResult, List[ResumeRow], str]


def run(iterations: int, stride: int, heap_dir: Path) -> ResumeResult:
    """The no-crash overhead pair, then the crash/resume stride walk."""
    return (run_overhead(iterations, heap_dir),
            *run_resume(iterations, stride, heap_dir))


def table(result: ResumeResult) -> str:
    overhead, rows, golden = result
    overhead_table = format_table(
        ["Run", "Flushes", "Fences", "Simulated ms"],
        [("plain session", overhead.plain.get("flushes", 0),
          overhead.plain.get("fences", 0), f"{overhead.plain_ms:.3f}"),
         ("resumable task", overhead.resumable.get("flushes", 0),
          overhead.resumable.get("fences", 0),
          f"{overhead.resumable_ms:.3f}"),
         ("amplification", f"{overhead.amplification('flushes'):.2f}x",
          f"{overhead.amplification('fences'):.2f}x",
          f"+{overhead.time_overhead_percent:.1f}%")],
        title="§14 — checkpoint flush overhead (no crash)")
    total = overhead.iterations * STEPS_PER_ITERATION
    resume_table = format_table(
        ["Crash hit", "Frames replayed", "Steps skipped", "Steps executed",
         "Resume ms", "Image match"],
        [(row.crash_hit, row.frames_replayed, row.steps_skipped,
          row.steps_executed, f"{row.resume_ms:.3f}",
          "ok" if row.image_sha256 == golden else "DIVERGED")
         for row in rows],
        title=f"§14 — resume-after-crash accounting "
              f"({total} steps uncrashed, golden {golden[:12]})")
    return f"{overhead_table}\n\n{resume_table}"


def check(result: ResumeResult) -> None:
    overhead, rows, golden = result
    # The frame protocol costs extra fences (epoch bumps at every
    # checkpoint) but only a sliver of extra flush traffic on top of the
    # shared finalize GC + canonicalization.
    assert overhead.resumable.get("fences", 0) \
        > overhead.plain.get("fences", 0), \
        "§14: checkpoints cost extra fences"
    assert overhead.resumable.get("flushes", 0) \
        >= overhead.plain.get("flushes", 0), \
        "§14: checkpoints never flush less than the plain session"
    assert 0.0 < overhead.time_overhead_percent < 50.0, \
        "§14: the checkpoint time overhead stays under 50%"
    assert rows, "§14: the stride never landed inside the task"
    total = overhead.iterations * STEPS_PER_ITERATION
    for row in rows:
        assert row.image_sha256 == golden, \
            f"§14: a resumed run converges to the golden image " \
            f"(crash hit {row.crash_hit})"
        assert 0 <= row.steps_total <= total, \
            f"§14: skipped + executed never exceeds the full run " \
            f"(crash hit {row.crash_hit})"
        # A crash before the first checkpoint has nothing to skip.
        assert not row.frames_replayed or row.steps_skipped > 0 \
            or row.steps_executed == total, \
            f"§14: a replayed frame skips its checkpointed steps " \
            f"(crash hit {row.crash_hit})"
    assert any(row.frames_replayed for row in rows), \
        "§14: at least one mid-task crash exercised real replay"


def payload(result: ResumeResult) -> Dict[str, object]:
    overhead, rows, golden = result
    return {
        "iterations": overhead.iterations,
        "steps_total": overhead.iterations * STEPS_PER_ITERATION,
        "golden_image_sha256": golden,
        "overhead": {
            **asdict(overhead),
            "flush_amplification": overhead.amplification("flushes"),
            "time_overhead_percent": overhead.time_overhead_percent,
        },
        "resume": [{**asdict(row), "image_match": row.image_sha256 == golden}
                   for row in rows],
    }


EXPERIMENT = Experiment(
    name="resume", title="§14 — resume-after-crash accounting",
    run=run, full={"iterations": 8, "stride": 5},
    ci={"iterations": 6, "stride": 11},
    table=table, check=check, payload=payload)
