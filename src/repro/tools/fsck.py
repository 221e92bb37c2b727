"""fsck for PJH: structural consistency checking of a persistent heap.

Validates, on a mounted heap:

* every object below top has a resolvable Klass pointer and a size that
  stays inside the data space;
* every reference field points to null, to a valid object *start* within
  this heap, or (user-guaranteed level) anywhere outside the heap;
* every root-table entry points to null or a valid object start;
* every Klass entry resolves into the Klass segment;
* the metadata invariants hold (top within bounds, no GC flag leaking
  outside a collection, cursor/move records clear when idle);
* the frame segment is coherent (aligned published top, valid magic
  words, intact parent chain, checkpoint epochs bounded by the task
  epoch, and every published ``KIND_REF`` argument/step-slot/return
  value landing on a live object start — no dangling frame refs).

The crash-recovery test suites run this after every induced crash, so
"recovery succeeded" means *structurally valid heap*, not merely "the
values I looked at were right".

CLI exit codes: 0 clean, 1 usage error, 2 structural errors; with
``--check-escapes`` — 3 when the heap is structurally clean but holds
NVM->DRAM out-pointers (legal under the user-guaranteed level, dangling
after a reboot; the escape scan reports each offending slot); with
``--check-frames`` — 4 when the heap is structurally clean but the frame
segment is not (frame errors are always *collected*; the flag makes them
fail the run).

``--all-heaps <dir>`` checks every heap registered under a directory
(e.g. a fleet: the ``__fleet__`` directory heap plus every shard) and
exits with the *worst* per-heap code, ranked 2 > 4 > 3 > 0.  With
``--json`` it emits one aggregate document mapping heap name to its
report plus that heap's exit code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set

from repro.core.name_table import ENTRY_TYPE_KLASS, ENTRY_TYPE_ROOT
from repro.errors import (CorruptHeapError, HeapCorruptionError,
                          IllegalArgumentException)
from repro.runtime import layout


@dataclass
class FsckReport:
    objects: int = 0
    references: int = 0
    out_pointers: int = 0
    frames: int = 0
    errors: List[str] = field(default_factory=list)
    # Frame-segment findings live apart from ``errors``: a dangling frame
    # ref does not make the *object graph* invalid, so ``clean`` (and exit
    # code 2) stay purely structural; ``--check-frames`` turns these into
    # exit code 4.
    frame_errors: List[str] = field(default_factory=list)
    # Heap-relative slot offsets of every NVM->DRAM out-pointer found
    # (the --check-escapes scan reports these).
    escape_slots: List[int] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.errors

    @property
    def frames_clean(self) -> bool:
        return not self.frame_errors

    def error(self, message: str) -> None:
        self.errors.append(message)

    def frame_error(self, message: str) -> None:
        self.frame_errors.append(message)

    def to_dict(self) -> dict:
        return {
            "clean": self.clean,
            "objects": self.objects,
            "references": self.references,
            "out_pointers": self.out_pointers,
            "frames": self.frames,
            "frames_clean": self.frames_clean,
            "frame_errors": list(self.frame_errors),
            "escape_slots": list(self.escape_slots),
            "errors": list(self.errors),
        }


def fsck_heap(heap) -> FsckReport:
    """Check one mounted :class:`~repro.core.persistent_heap.PersistentHeap`."""
    report = FsckReport()
    vm = heap.vm
    registry = vm.registry
    space = heap.data_space

    # Pass 1: parse the objects, record valid starts.  The heap's parser
    # hops the unfilled tail of each live allocation buffer; a heap loaded
    # from disk has already settled every buffer claim during recovery.
    starts: Set[int] = set()
    try:
        for address, klass, _size in heap.parse(space.base, space.top):
            if klass is not None:
                starts.add(address)
                report.objects += 1
                continue
            klass_ptr = vm.memory.read(address + layout.KLASS_WORD_OFFSET)
            klass = registry.find(klass_ptr)
            if klass is None:
                report.error(f"object @{address:#x}: unresolvable klass "
                             f"pointer {klass_ptr:#x}")
            else:
                report.error(f"object @{address:#x} ({klass.name}): size "
                             f"{vm.access.object_words(address)} overruns "
                             f"top {space.top:#x}")
    except IllegalArgumentException as exc:  # a negative array length
        report.error(str(exc))

    # Pass 2: reference validity.
    for address in sorted(starts):
        for slot in vm.access.ref_slot_addresses(address):
            value = vm.memory.read(slot)
            if value == layout.NULL:
                continue
            report.references += 1
            if space.contains(value):
                if value not in starts:
                    report.error(
                        f"slot @{slot:#x} points inside the heap but not at "
                        f"an object start ({value:#x})")
            elif heap.in_heap_range(value):
                report.error(
                    f"slot @{slot:#x} points into heap metadata ({value:#x})")
            else:
                report.out_pointers += 1  # legal under UG/zeroing levels
                report.escape_slots.append(slot - heap.base_address)

    # Pass 3: name table.
    for name, value, _index in heap.name_table.entries(ENTRY_TYPE_ROOT):
        if value != layout.NULL and value not in starts:
            report.error(f"root {name!r} points at {value:#x}, "
                         f"not an object start")
    for name, value, _index in heap.name_table.entries(ENTRY_TYPE_KLASS):
        if registry.find(value) is None:
            report.error(f"Klass entry {name!r} -> {value:#x} unresolvable")

    # Pass 4: metadata invariants.
    metadata = heap.metadata
    if not (space.base <= space.top <= space.end):
        report.error(f"volatile top {space.top:#x} out of bounds")
    if metadata.top < space.top:
        report.error(f"durable top {metadata.top:#x} below volatile "
                     f"top {space.top:#x} (watermark must be >=)")
    if metadata.gc_in_progress:
        report.error("gc_in_progress flag set on an idle heap")
    if metadata.move_record() is not None:
        report.error("stale chunked-move record on an idle heap")
    if metadata.root_redo_valid:
        report.error("stale root-redo log on an idle heap")

    # Pass 5: frame segment (resumable-task stack).
    _check_frames(heap, starts, report)
    return report


def _check_frames(heap, starts: Set[int], report: FsckReport) -> None:
    """Validate the persistent task stack against the live object set."""
    from repro.core.frame_segment import (FRAME_FINISHED, FRAME_WORDS,
                                          KIND_INT, KIND_NONE, KIND_REF)
    from repro.core.metadata import TASK_RUNNING

    frames = heap.frames
    metadata = heap.metadata
    top = metadata.frame_top
    if not frames.offset <= top <= frames.limit:
        report.frame_error(f"frame top {top} outside the segment "
                           f"[{frames.offset}, {frames.limit})")
        return
    if (top - frames.offset) % FRAME_WORDS:
        report.frame_error(f"frame top {top} not frame-aligned "
                           f"(base {frames.offset}, stride {FRAME_WORDS})")
        return
    depth = (top - frames.offset) // FRAME_WORDS
    if depth and metadata.task_status != TASK_RUNNING:
        report.frame_error(f"{depth} live frame(s) on a heap whose task "
                           f"status is {metadata.task_status} (not RUNNING)")
    task_epoch = metadata.task_epoch

    def check_value(kind: int, word: int, what: str) -> None:
        if kind == KIND_REF:
            target = heap.base_address + word
            if target not in starts:
                report.frame_error(f"{what} dangles: heap offset {word} "
                                   f"is not an object start")
        elif kind not in (KIND_NONE, KIND_INT):
            report.frame_error(f"{what} has unknown value kind {kind}")

    expected_parent = -1
    for offset in frames.frame_offsets():
        try:
            view = frames.read_frame(offset)
        except HeapCorruptionError as exc:
            report.frame_error(str(exc))
            return
        report.frames += 1
        where = f"frame {view.name!r}@{offset}"
        if view.parent != expected_parent:
            report.frame_error(f"{where}: parent link {view.parent}, "
                               f"expected {expected_parent}")
        if expected_parent == -1 and view.call_pc != -1:
            report.frame_error(f"{where}: root frame carries call_pc "
                               f"{view.call_pc}")
        if not view.check_epoch <= task_epoch:
            report.frame_error(f"{where}: checkpoint epoch "
                               f"{view.check_epoch} ahead of task epoch "
                               f"{task_epoch}")
        if not view.birth_epoch <= view.check_epoch:
            report.frame_error(f"{where}: checkpoint epoch "
                               f"{view.check_epoch} behind birth epoch "
                               f"{view.birth_epoch} (epochs only grow)")
        for i, (kind, word) in enumerate(view.args):
            check_value(kind, word, f"{where} arg {i}")
        # Only *published* step slots (site < pc) are replay inputs; a
        # torn checkpoint may leave garbage beyond pc, which replay never
        # reads.
        if view.pc > 0:
            for site in range(view.pc):
                kind, word = frames.slot(offset, site)
                check_value(kind, word, f"{where} slot {site}")
        if view.finished:
            check_value(*view.ret, f"{where} return value")
        expected_parent = offset


def fsck(heap_dir, name: str) -> FsckReport:
    """Load *name* from *heap_dir* in a throwaway JVM and check it."""
    from repro.api import Espresso
    return fsck_heap(Espresso(heap_dir).heaps.load_heap(name))


#: Exit-code severity for --all-heaps aggregation: structural corruption
#: (2) beats an inconsistent frame stack (4) beats out-pointers (3) beats
#: clean (0).  Code 1 (usage) never comes out of a heap check.
_SEVERITY = {0: 0, 3: 1, 4: 2, 2: 3}


def _worst(codes) -> int:
    return max(codes, key=lambda code: _SEVERITY[code], default=0)


def _check_one(heap_dir, name: str, check_escapes: bool,
               check_frames: bool):
    """fsck one heap; returns ``(report, exit_code)``, never raises."""
    try:
        report = fsck(heap_dir, name)
    except CorruptHeapError as exc:
        # The image would not even load: report the failing region rather
        # than dumping a traceback.
        report = FsckReport()
        report.error(f"unloadable ({exc.region}): {exc.detail}")
    if not report.clean:
        return report, 2
    if check_frames and not report.frames_clean:
        return report, 4
    if check_escapes and report.out_pointers:
        return report, 3
    return report, 0


def _print_one(report: FsckReport, code: int) -> None:
    print(f"objects: {report.objects}, references: {report.references}, "
          f"out-pointers: {report.out_pointers}, frames: {report.frames}")
    if code == 2:
        for error in report.errors:
            print(f"ERROR: {error}")
    elif code == 4:
        for error in report.frame_errors:
            print(f"FRAME: {error}")
        print(f"fsck: {len(report.frame_errors)} frame-segment "
              f"error(s) — resumable-task stack inconsistent")
    elif code == 3:
        for offset in report.escape_slots:
            print(f"ESCAPE: slot at heap offset {offset} points "
                  f"outside the heap")
        print(f"fsck: {report.out_pointers} NVM->DRAM out-pointer(s) "
              f"— dangling after a reboot")
    else:
        print("clean")


def _main_all_heaps(heap_dir, as_json: bool, check_escapes: bool,
                    check_frames: bool) -> int:
    """``fsck --all-heaps <dir>``: every registered heap, worst code wins."""
    import json
    from repro.api import Espresso
    names = Espresso(heap_dir).heaps.names.names()
    if not names:
        print(f"fsck: no heaps under {heap_dir}")
        return 1
    checked = {name: _check_one(heap_dir, name, check_escapes, check_frames)
               for name in names}
    worst = _worst(code for _report, code in checked.values())
    if as_json:
        print(json.dumps({
            "heaps": {name: dict(report.to_dict(), exit_code=code)
                      for name, (report, code) in checked.items()},
            "scanned": len(names),
            "worst": worst,
        }, indent=2))
        return worst
    for name, (report, code) in checked.items():
        print(f"--- {name} ---")
        _print_one(report, code)
    dirty = sum(1 for _report, code in checked.values() if code != 0)
    print(f"fsck: {len(names)} heap(s) scanned, {dirty} dirty, "
          f"worst exit code {worst}")
    return worst


def main(argv=None) -> int:
    import json
    import sys
    args = list(sys.argv[1:] if argv is None else argv)
    flags = ("--json", "--check-escapes", "--check-frames", "--all-heaps")
    as_json, check_escapes, check_frames, all_heaps = (
        flag in args for flag in flags)
    args = [arg for arg in args if arg not in flags]
    if len(args) != (1 if all_heaps else 2):
        print(__doc__)
        return 1
    if all_heaps:
        return _main_all_heaps(args[0], as_json, check_escapes,
                               check_frames)
    report, code = _check_one(args[0], args[1], check_escapes, check_frames)
    if as_json:
        print(json.dumps(report.to_dict(), indent=2))
        return code
    _print_one(report, code)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
