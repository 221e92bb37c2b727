"""The PJH frame segment: a persistent task stack (DESIGN.md §14).

Crash-transparent execution (:mod:`repro.runtime.resume`) keeps a marked
task's frame stack in NVM, following the persistent-stack discipline of
Aksenov et al. (*Execution of NVRAM Programs with Persistent Stack*):

* **push** — the frame record is written and persisted *first*; only then
  is the stack top published (a single-word atomic store, persisted).  A
  crash in the window leaves an invisible record above the durable top,
  which the next push simply overwrites.
* **checkpoint** — a completed step's value, the frame's program counter
  and its checkpoint epoch persist in one fence epoch, *after* the global
  task epoch was bumped durably, so ``check_epoch <= task_epoch`` always
  holds in the durable image.
* **pop** — the finishing frame's return value is sealed (``pc`` set to
  ``FRAME_FINISHED``) before the caller consumes it and before the top
  retreats, so every pop is either invisible, replayable from the sealed
  child, or complete.

Frames are fixed-size records; the stack is a bump array below
``metadata.frame_top``.  All flush traffic routes through a dedicated
:class:`~repro.nvm.persist.PersistDomain` (``pjh-frames``); top updates go
through the metadata area's own persisted accessor.  Every protocol step
is marked with a failpoint site (``resume.*``) so the crash sweeps can
break it between any two persistence events.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import HeapCorruptionError, OutOfMemoryError
from repro.nvm.device import NvmDevice
from repro.nvm.persist import PersistDomain

from repro.core.metadata import FRAME_TOP_WORD, MetadataArea
from repro.core.name_table import _pack_name, _unpack_name, MAX_NAME_BYTES

_NAME_WORDS = MAX_NAME_BYTES // 8

FRAME_MAGIC = 0x4652414D45  # "FRAME"

#: ``pc`` value of a sealed (returned) frame.
FRAME_FINISHED = -1

#: Value kinds for args, step slots and results.
KIND_NONE = 0
KIND_INT = 1
KIND_REF = 2  # word is the heap-relative offset of the object

# Record layout (word offsets within one frame).
F_MAGIC = 0
F_PARENT = 1                      # device offset of the caller's frame; -1 root
F_CALL_PC = 2                     # caller's pc when this frame was pushed; -1 root
F_NAME_LEN = 3
F_NAME = 4
F_ARGC = F_NAME + _NAME_WORDS     # 12
F_ARGS = F_ARGC + 1               # 13..20: MAX_ARGS x (kind, word)
MAX_ARGS = 4
F_PC = F_ARGS + 2 * MAX_ARGS      # 21: completed steps; FRAME_FINISHED sealed
F_BIRTH_EPOCH = F_PC + 1          # 22
F_CHECK_EPOCH = F_BIRTH_EPOCH + 1  # 23
F_RET_KIND = F_CHECK_EPOCH + 1    # 24
F_RET = F_RET_KIND + 1            # 25
F_SLOTS = F_RET + 1               # 26..: SLOT_COUNT x (kind, word)
SLOT_COUNT = 16

#: One frame record, padded to a cache-line multiple (LINE_WORDS = 8).
FRAME_WORDS = 64
assert F_SLOTS + 2 * SLOT_COUNT <= FRAME_WORDS


class FrameView:
    """Decoded, read-only view of one durable frame record."""

    __slots__ = ("offset", "parent", "call_pc", "name", "args", "pc",
                 "birth_epoch", "check_epoch", "ret")

    def __init__(self, offset: int, parent: int, call_pc: int, name: str,
                 args: Tuple[Tuple[int, int], ...], pc: int,
                 birth_epoch: int, check_epoch: int,
                 ret: Tuple[int, int]) -> None:
        self.offset = offset
        self.parent = parent
        self.call_pc = call_pc
        self.name = name
        self.args = args
        self.pc = pc
        self.birth_epoch = birth_epoch
        self.check_epoch = check_epoch
        self.ret = ret

    @property
    def finished(self) -> bool:
        return self.pc == FRAME_FINISHED


class FrameSegment:
    """Allocator + protocol driver for the NVM-resident frame stack."""

    def __init__(self, device: NvmDevice, metadata: MetadataArea,
                 base_address: int, vm) -> None:
        self.device = device
        self.metadata = metadata
        self.base_address = base_address
        self.vm = vm
        layout = metadata.layout()
        self.offset = layout.frame_segment_offset
        self.limit = self.offset + layout.frame_segment_words
        self.persist = PersistDomain(device, name="pjh-frames")

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def top(self) -> int:
        return self.metadata.frame_top

    def depth(self) -> int:
        return (self.top - self.offset) // FRAME_WORDS

    def frame_offsets(self) -> List[int]:
        """Device offsets of every live frame, bottom (root) first."""
        return list(range(self.offset, self.top, FRAME_WORDS))

    # ------------------------------------------------------------------
    # Push: record -> persist -> publish top (Aksenov et al. order)
    # ------------------------------------------------------------------
    def push(self, name: str, args: Sequence[Tuple[int, int]],
             parent: int, call_pc: int, birth_epoch: int) -> int:
        if len(args) > MAX_ARGS:
            raise OutOfMemoryError(
                f"resumable frame {name!r} takes {len(args)} args "
                f"(max {MAX_ARGS})")
        top = self.top
        if top + FRAME_WORDS > self.limit:
            raise OutOfMemoryError(
                f"frame segment full at depth {self.depth()} "
                f"(pushing {name!r})")
        record = np.zeros(FRAME_WORDS, dtype=np.int64)
        record[F_MAGIC] = FRAME_MAGIC
        record[F_PARENT] = parent
        record[F_CALL_PC] = call_pc
        name_words, name_len = _pack_name(name)
        record[F_NAME_LEN] = name_len
        record[F_NAME:F_NAME + _NAME_WORDS] = name_words
        record[F_ARGC] = len(args)
        for i, (kind, word) in enumerate(args):
            record[F_ARGS + 2 * i] = kind
            record[F_ARGS + 2 * i + 1] = word
        record[F_PC] = 0
        record[F_BIRTH_EPOCH] = birth_epoch
        record[F_CHECK_EPOCH] = birth_epoch
        self.device.write_block(top, record)
        # The whole record commits before the top bump can publish it.
        self.persist.persist(top, FRAME_WORDS)
        self.vm.failpoints.hit("resume.frame_persisted")
        log = self.device.event_log
        if log is not None:
            log.record_frame_publish(FRAME_TOP_WORD, top, FRAME_WORDS)
        self.metadata.set_frame_top(top + FRAME_WORDS)
        self.vm.failpoints.hit("resume.top_published")
        return top

    # ------------------------------------------------------------------
    # Checkpoint: epoch bump first, then slot + pc in one fence epoch
    # ------------------------------------------------------------------
    def checkpoint(self, offset: int, site: int, kind: int, word: int,
                   failpoint: str = "resume.checkpointed") -> int:
        if not 0 <= site < SLOT_COUNT:
            raise OutOfMemoryError(
                f"resumable frame at {offset} overflows its {SLOT_COUNT} "
                f"step slots (site {site})")
        epoch = self.metadata.task_epoch + 1
        self.metadata.set_task_epoch(epoch)
        self.device.write(offset + F_SLOTS + 2 * site, kind)
        self.device.write(offset + F_SLOTS + 2 * site + 1, word)
        self.device.write(offset + F_PC, site + 1)
        self.device.write(offset + F_CHECK_EPOCH, epoch)
        with self.persist.epoch():
            self.persist.flush(offset + F_SLOTS + 2 * site, 2)
            self.persist.flush(offset + F_PC, 1)
            self.persist.flush(offset + F_CHECK_EPOCH, 1)
        self.vm.failpoints.hit(failpoint)
        return epoch

    # ------------------------------------------------------------------
    # Pop: seal the child, let the caller checkpoint, then retreat top
    # ------------------------------------------------------------------
    def finish(self, offset: int, kind: int, word: int) -> None:
        """Seal a frame's return value; the frame stops being replayable."""
        self.device.write(offset + F_RET_KIND, kind)
        self.device.write(offset + F_RET, word)
        self.device.write(offset + F_PC, FRAME_FINISHED)
        with self.persist.epoch():
            self.persist.flush(offset + F_RET_KIND, 2)
            self.persist.flush(offset + F_PC, 1)
        self.vm.failpoints.hit("resume.frame_finished")

    def pop_to(self, offset: int) -> None:
        """Retreat the published top to *offset* (single-word atomic)."""
        self.metadata.set_frame_top(offset)
        self.vm.failpoints.hit("resume.top_popped")

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def read_frame(self, offset: int) -> FrameView:
        read = self.device.read
        if read(offset + F_MAGIC) != FRAME_MAGIC:
            raise HeapCorruptionError(
                f"frame record at {offset} has a bad magic word")
        name = _unpack_name(
            self.device.read_block(offset + F_NAME, _NAME_WORDS),
            read(offset + F_NAME_LEN))
        argc = read(offset + F_ARGC)
        args = tuple((read(offset + F_ARGS + 2 * i),
                      read(offset + F_ARGS + 2 * i + 1))
                     for i in range(argc))
        return FrameView(
            offset=offset,
            parent=read(offset + F_PARENT),
            call_pc=read(offset + F_CALL_PC),
            name=name, args=args,
            pc=read(offset + F_PC),
            birth_epoch=read(offset + F_BIRTH_EPOCH),
            check_epoch=read(offset + F_CHECK_EPOCH),
            ret=(read(offset + F_RET_KIND), read(offset + F_RET)),
        )

    def slot(self, offset: int, site: int) -> Tuple[int, int]:
        return (self.device.read(offset + F_SLOTS + 2 * site),
                self.device.read(offset + F_SLOTS + 2 * site + 1))

    # ------------------------------------------------------------------
    # Reset (task init and the finalize scrub)
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero the whole segment durably and retreat the top to base.

        Idempotent by construction: pure overwrite with canonical values,
        so the finalize protocol may replay it after a crash and converge
        on the same durable bytes.
        """
        words = self.limit - self.offset
        self.device.write_block(self.offset,
                                np.zeros(words, dtype=np.int64))
        self.persist.persist(self.offset, words)
        self.metadata.set_frame_top(self.offset)
        self.metadata.set_task_epoch(0)
