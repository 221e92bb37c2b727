"""Recovery of a PJH that crashed mid-collection (paper §4.3).

"The recovery phase will be activated by the API loadHeap if the heap is
marked as being garbage collected in the metadata area.  The recovery also
contains three steps: 1) fetch the mark bitmap, the result of the previous
marking phase; 2) redo the summary phase by regenerating the volatile
auxiliary data structure from the mark bitmap; 3) fetch the region bitmap to
locate the unprocessed or half-processed regions and process the objects
within them using the same algorithm in the compact phase."

This module drives the :class:`~repro.runtime.old_gc.CompactionEngine`
through exactly those steps, in recovery mode: regions whose bit is set are
skipped, objects whose source header already carries the crashed
collection's timestamp are skipped (their destination copy was persisted
first, so it is complete), a serialized region resumes at its durable
region cursor — including a half-finished chunked move, which continues
from its durable progress record — and the persisted root redo log is
applied blindly (idempotent) before the heap is unflagged.

Recovery is worker-count agnostic: the region-dependency ready-queue used
by a parallel recovery (``gc_workers > 1``) admits every schedule a serial
ascending walk admits — a region's destination span only overlaps regions
with lower numbers — so the recovered image is byte-identical no matter
how many workers the crashed collection used, or the recovering one uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.errors import CorruptHeapError
from repro.runtime.old_gc import CompactionEngine

from repro.core.frame_segment import FRAME_WORDS
from repro.core.metadata import TASK_RUNNING
from repro.core.pgc import NvmGCHooks


@dataclass
class RecoveryReport:
    """What recovery did (all zeros when no recovery was needed)."""

    performed: bool = False
    regions_replayed: int = 0
    objects_recopied: int = 0
    roots_redone: int = 0
    timestamp: int = 0


def recover(heap) -> RecoveryReport:
    """Finish a crashed collection; no-op when the heap is clean."""
    metadata = heap.metadata
    if not metadata.gc_in_progress:
        if metadata.root_redo_valid:
            # A crash landed between the flag clear and the redo-log
            # clear at the tail of a collection (or of a recovery).  The
            # log is dead weight — it is only ever consulted while the
            # flag is up — but leaving it breaks recovery's convergence
            # promise: the doubly-crashed image would differ from the
            # straight-recovery image by exactly this word.
            metadata.clear_root_redo()
        return RecoveryReport()

    vm = heap.vm
    pool = vm.gang("recovery")
    hooks = NvmGCHooks(heap, recovery=True, pool=pool)
    engine = CompactionEngine(
        vm.access, heap.data_space, heap.layout.region_words, hooks=hooks,
        obs=vm.obs, pool=pool)

    with vm.obs.span("recovery", heap=heap.name, workers=vm.gc_workers):
        # Step 1: fetch the persisted mark bitmaps.
        with vm.obs.span("recovery.fetch_bitmaps"):
            hooks.load_livemap(engine.livemap)
            engine.timestamp = metadata.global_timestamp

        # Step 2: redo the summary (idempotent: derived from the bitmaps
        # alone).  The engine emits the gc.summary span.
        regions_done_before = sum(
            1 for r in range(engine.n_regions) if hooks.is_region_done(r))
        engine.summarize()

        # Step 3: process the unfinished regions with the compact algorithm
        # (the engine emits gc.compact with recovery=True).
        engine.compact(recovery=True)
        roots_redone = (metadata.root_redo_count
                        if metadata.root_redo_valid else 0)
        with vm.obs.span("recovery.root_redo", roots=roots_redone):
            engine.finish()  # root redo, persist top, clear the flag

    vm.obs.inc("recovery.performed")
    vm.obs.inc("recovery.objects_recopied", engine.stats.moved_objects)

    return RecoveryReport(
        performed=True,
        regions_replayed=engine.n_regions - regions_done_before,
        objects_recopied=engine.stats.moved_objects,
        roots_redone=roots_redone,
        timestamp=engine.timestamp,
    )


@dataclass
class FrameRecoveryReport:
    """What frame-stack recovery did (all zeros when no task was live)."""

    performed: bool = False
    frames: int = 0
    pops_completed: int = 0
    root_sealed: bool = False


def recover_frames(heap) -> FrameRecoveryReport:
    """Normalise the persistent frame stack after a crash (§14).

    Only runs when the heap records an in-flight resumable task.  Two
    jobs, both idempotent so recovery itself may crash and rerun:

    1. **Validate** the durable chain — every published frame must have a
       good magic word, link to its predecessor, and carry a checkpoint
       epoch no newer than the durable task epoch.  (A *torn push* never
       shows up here: the top bump is a single persisted word, so a frame
       that crashed before publication sits invisibly above ``frame_top``
       and is simply overwritten later.)
    2. **Complete half-finished pops** — a sealed (FINISHED) top frame
       crashed somewhere in the pop protocol.  If its caller's ``pc``
       still points at the call site, re-checkpoint the caller from the
       child's sealed return value; either way retreat the top past the
       child.  Repeats until the top frame is live.  A sealed *root* is
       left in place: its result capture belongs to the engine's finalize
       tail, which replays from durable state on the next ``run()``.
    """
    metadata = heap.metadata
    if metadata.task_status != TASK_RUNNING:
        return FrameRecoveryReport()
    frames = heap.frames
    vm = heap.vm
    report = FrameRecoveryReport(performed=True)

    with vm.obs.span("recovery.frames", heap=heap.name):
        if (frames.top - frames.offset) % FRAME_WORDS != 0:
            raise CorruptHeapError(
                "frame-segment",
                f"frame_top {frames.top} is not frame-aligned "
                f"(base {frames.offset}, frame {FRAME_WORDS} words)")
        expected_parent = -1
        task_epoch = metadata.task_epoch
        views = []
        for offset in frames.frame_offsets():
            view = frames.read_frame(offset)  # raises on a bad magic word
            if view.parent != expected_parent:
                raise CorruptHeapError(
                    "frame-segment",
                    f"frame at {offset} links to parent {view.parent}, "
                    f"expected {expected_parent}")
            if view.check_epoch > task_epoch:
                raise CorruptHeapError(
                    "frame-segment",
                    f"frame at {offset} carries checkpoint epoch "
                    f"{view.check_epoch} beyond the durable task epoch "
                    f"{task_epoch}")
            views.append(view)
            expected_parent = offset
        report.frames = len(views)

        while views:
            top = views[-1]
            if not top.finished:
                break
            if top.parent == -1:
                report.root_sealed = True
                break
            caller = views[-2]
            if caller.pc == top.call_pc:
                frames.checkpoint(caller.offset, top.call_pc, *top.ret,
                                  failpoint="resume.pop_checkpointed")
                report.pops_completed += 1
                views[-2] = frames.read_frame(caller.offset)
            frames.pop_to(top.offset)
            views.pop()

    if report.pops_completed:
        vm.obs.inc("recovery.frame_pops_completed", report.pops_completed)
    return report
