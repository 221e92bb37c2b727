"""The persistent metadata area of a PJH instance (paper Figure 8).

The metadata area sits at the very start of the heap's NVM device and holds
everything needed to rebuild and, if necessary, recover the heap:

* the *address hint* (where the heap was mapped, for fast reloads),
* the *heap size* and the replicated *top* pointer (§4.1),
* the *global timestamp* and GC-in-progress flag (§4.2),
* the locations of the mark bitmap, region bitmap, name table, Klass
  segment, frame segment, root-redo area and data heap, plus the
  serialized-compaction cursor and chunked-move record of the recoverable
  collector,
* the resumable-task block (status, checkpoint epoch, result, GC mark)
  backing :mod:`repro.runtime.resume` (DESIGN.md §14).

Every mutator persists its word(s) with clflush + sfence, so the metadata is
crash consistent by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CorruptHeapError, IllegalArgumentException
from repro.nvm.checksum import crc32_words
from repro.nvm.device import NvmDevice
from repro.nvm.persist import PersistDomain
from repro.nvm.publish import publish_point

MAGIC = 0x455350_52_45_53_53  # "ESPRESS" squeezed into a word
VERSION = 2  # v2 added the frame segment + resumable-task block

# Word offsets inside the metadata area (device offsets 0..METADATA_WORDS).
_MAGIC = 0
_VERSION = 1
_ADDRESS_HINT = 2
_HEAP_SIZE = 3
_TOP = 4                 # absolute address of the data-heap top
_GLOBAL_TIMESTAMP = 5
_GC_IN_PROGRESS = 6
_NAME_TABLE_OFF = 7
_NAME_TABLE_CAPACITY = 8
_NAME_TABLE_COUNT = 9
_KLASS_SEG_OFF = 10
_KLASS_SEG_WORDS = 11
_KLASS_SEG_TOP = 12      # device offset of the Klass segment bump pointer
_BITMAP_OFF = 13
_BITMAP_WORDS = 14
_REGION_BITMAP_OFF = 15
_REGION_BITMAP_WORDS = 16
_SCRATCH_OFF = 17        # reserved area (kept for layout stability)
_SCRATCH_WORDS = 18
_ROOT_REDO_OFF = 22
_ROOT_REDO_WORDS = 23
_ROOT_REDO_COUNT = 24
_ROOT_REDO_VALID = 25
_DATA_OFF = 26
_DATA_WORDS = 27
_REGION_WORDS = 28
_ALLOC_SCAN_HINT = 29   # absolute address: walk-from-here for tail validation
_LAYOUT_CRC = 30        # CRC32 of the immutable geometry words below
# Serialized-compaction state, grouped into one cache line (words 32-39) so
# each protocol step persists with a single flush.
_CURSOR_REGION = 32      # -1 when no serialized region is in flight
_CURSOR_INDEX = 33
_MOVE_VALID = 34
_MOVE_SRC = 35
_MOVE_DST = 36
_MOVE_SIZE = 37
_MOVE_PROGRESS = 38
# Frame segment (repro.core.frame_segment) + resumable-task block
# (repro.runtime.resume), grouped into one cache line (words 40-47) so
# every task-protocol step persists with a single flush.
_FRAME_SEG_OFF = 40
_FRAME_SEG_WORDS = 41
_FRAME_TOP = 42          # device offset of the frame-stack bump pointer
_TASK_STATUS = 43        # TASK_NONE / TASK_RUNNING / TASK_DONE
_TASK_EPOCH = 44         # monotonic checkpoint epoch of the current task
_TASK_RESULT_KIND = 45   # 0 none / 1 int (ref results go through roots)
_TASK_RESULT = 46
_TASK_GC_MARK = 47       # timestamp recorded before the finalize GC; -1 idle
# Per-mutator allocation-buffer table (words 48-63): one packed word per
# mutator slot, ``(data-relative start << 16) | extent_words``; 0 = no
# buffer claimed.  The start is stored relative to the data base so a
# remapped reload reads the same entry, and the whole claim is a single
# persisted word store, atomic under every fault mode.
_ALLOC_BUF_TABLE = 48
ALLOC_BUF_SLOTS = 16
_ALLOC_BUF_EXTENT_BITS = 16
#: Largest per-mutator buffer expressible in a table entry.
ALLOC_BUF_MAX_WORDS = (1 << _ALLOC_BUF_EXTENT_BITS) - 1
_ALLOC_BUF_EXTENT_MASK = ALLOC_BUF_MAX_WORDS

#: Resumable-task status values (durable; see DESIGN.md §14).
TASK_NONE = 0
TASK_RUNNING = 1
TASK_DONE = 2

#: Public alias: the device word holding the frame-stack top pointer.
#: The ("frame", top_offset, ...) hazard events key on it.
FRAME_TOP_WORD = _FRAME_TOP

METADATA_WORDS = 64

# Geometry words are written once by ``initialize`` and never mutated, so
# they can be covered by a stored CRC32 (_LAYOUT_CRC) and verified on every
# load.  Mutable words (address hint, top, timestamp, counts, GC state) are
# deliberately excluded: they are updated in place with single-word atomic
# stores and protected by the crash protocols instead.
_GEOMETRY_WORDS = (
    _VERSION, _HEAP_SIZE,
    _NAME_TABLE_OFF, _NAME_TABLE_CAPACITY,
    _KLASS_SEG_OFF, _KLASS_SEG_WORDS,
    _BITMAP_OFF, _BITMAP_WORDS,
    _REGION_BITMAP_OFF, _REGION_BITMAP_WORDS,
    _SCRATCH_OFF, _SCRATCH_WORDS,
    _ROOT_REDO_OFF, _ROOT_REDO_WORDS,
    _DATA_OFF, _DATA_WORDS, _REGION_WORDS,
    _FRAME_SEG_OFF, _FRAME_SEG_WORDS,
)


@dataclass(frozen=True)
class HeapLayout:
    """Device-relative offsets of each PJH component."""

    size_words: int
    region_words: int
    name_table_offset: int
    name_table_capacity: int
    klass_segment_offset: int
    klass_segment_words: int
    frame_segment_offset: int
    frame_segment_words: int
    bitmap_offset: int
    bitmap_words: int
    region_bitmap_offset: int
    region_bitmap_words: int
    scratch_offset: int
    scratch_words: int
    root_redo_offset: int
    root_redo_words: int
    data_offset: int
    data_words: int


def plan_layout(size_words: int, region_words: int = 1024,
                name_table_capacity: int = 0) -> HeapLayout:
    """Carve a device of *size_words* into the PJH components.

    Sizing follows the paper's observation that Klass metadata is small
    ("a typical TPCC workload only requires nine different data classes"):
    the Klass segment gets 1/16 of the heap, bounded to sane limits, and
    everything else is data heap.
    """
    if size_words < 4096:
        raise IllegalArgumentException(
            f"PJH needs at least 4096 words (32 KiB), got {size_words}")
    if region_words < 64:
        raise IllegalArgumentException("region must be at least 64 words")

    if name_table_capacity <= 0:
        name_table_capacity = max(64, min(1024, size_words // 512))
    from repro.core.name_table import ENTRY_WORDS
    cursor = METADATA_WORDS
    name_table_offset = cursor
    cursor += name_table_capacity * ENTRY_WORDS

    klass_segment_offset = cursor
    klass_segment_words = max(512, min(65536, size_words // 16))
    cursor += klass_segment_words

    # Frame segment: the persistent task stack (DESIGN.md §14).  Frames
    # are small fixed-size records and stacks are shallow, so a sliver of
    # the heap suffices.
    frame_segment_offset = cursor
    frame_segment_words = max(256, min(8192, size_words // 64))
    cursor += frame_segment_words

    # Size the bitmaps for the *upper bound* of the data region (all the
    # remaining words).  The final data region is necessarily smaller, so
    # the persisted livemap can never overflow into the areas behind it.
    remaining = size_words - cursor
    scratch_words = region_words
    root_redo_words = 2 * name_table_capacity + 2
    bitmap_offset = cursor
    bitmap_words = 2 * ((remaining + 63) // 64)
    cursor += bitmap_words
    region_bitmap_offset = cursor
    n_regions = (remaining + region_words - 1) // region_words
    region_bitmap_words = (n_regions + 63) // 64
    cursor += region_bitmap_words
    if size_words - cursor - scratch_words - root_redo_words < region_words:
        raise IllegalArgumentException(
            f"heap of {size_words} words leaves no room for data")
    scratch_offset = cursor
    cursor += scratch_words
    root_redo_offset = cursor
    cursor += root_redo_words
    data_offset = cursor
    data_words = size_words - cursor
    return HeapLayout(
        size_words=size_words,
        region_words=region_words,
        name_table_offset=name_table_offset,
        name_table_capacity=name_table_capacity,
        klass_segment_offset=klass_segment_offset,
        klass_segment_words=klass_segment_words,
        frame_segment_offset=frame_segment_offset,
        frame_segment_words=frame_segment_words,
        bitmap_offset=bitmap_offset,
        bitmap_words=bitmap_words,
        region_bitmap_offset=region_bitmap_offset,
        region_bitmap_words=region_bitmap_words,
        scratch_offset=scratch_offset,
        scratch_words=scratch_words,
        root_redo_offset=root_redo_offset,
        root_redo_words=root_redo_words,
        data_offset=data_offset,
        data_words=data_words,
    )


class MetadataArea:
    """Typed, persisted accessors over the metadata words."""

    def __init__(self, device: NvmDevice, flushing: bool = True) -> None:
        self.device = device
        # The §6.4 "recoverable GC cost" baseline disables every clflush;
        # a disabled persist domain over the same device implements it.
        self.persist = PersistDomain(device, name="pjh-meta", enabled=flushing)

    # -- low-level persisted word access ------------------------------------
    def _get(self, offset: int) -> int:
        return self.device.read(offset)

    def _set(self, offset: int, value: int, fence: bool = True) -> None:
        self.device.write(offset, value)
        self.persist.flush(offset)
        if fence:
            self.persist.commit_epoch()

    def _flush_range(self, offset: int, count: int) -> None:
        self.persist.persist(offset, count)

    # -- initialization -------------------------------------------------------
    def initialize(self, layout: HeapLayout, address_hint: int) -> None:
        self.device.write(_VERSION, VERSION)
        self.device.write(_ADDRESS_HINT, address_hint)
        self.device.write(_HEAP_SIZE, layout.size_words)
        self.device.write(_TOP, address_hint + layout.data_offset)
        self.device.write(_GLOBAL_TIMESTAMP, 0)
        self.device.write(_GC_IN_PROGRESS, 0)
        self.device.write(_NAME_TABLE_OFF, layout.name_table_offset)
        self.device.write(_NAME_TABLE_CAPACITY, layout.name_table_capacity)
        self.device.write(_NAME_TABLE_COUNT, 0)
        self.device.write(_KLASS_SEG_OFF, layout.klass_segment_offset)
        self.device.write(_KLASS_SEG_WORDS, layout.klass_segment_words)
        self.device.write(_KLASS_SEG_TOP, layout.klass_segment_offset)
        self.device.write(_FRAME_SEG_OFF, layout.frame_segment_offset)
        self.device.write(_FRAME_SEG_WORDS, layout.frame_segment_words)
        self.device.write(_FRAME_TOP, layout.frame_segment_offset)
        self.device.write(_TASK_STATUS, TASK_NONE)
        self.device.write(_TASK_EPOCH, 0)
        self.device.write(_TASK_RESULT_KIND, 0)
        self.device.write(_TASK_RESULT, 0)
        self.device.write(_TASK_GC_MARK, -1)
        self.device.write(_BITMAP_OFF, layout.bitmap_offset)
        self.device.write(_BITMAP_WORDS, layout.bitmap_words)
        self.device.write(_REGION_BITMAP_OFF, layout.region_bitmap_offset)
        self.device.write(_REGION_BITMAP_WORDS, layout.region_bitmap_words)
        self.device.write(_SCRATCH_OFF, layout.scratch_offset)
        self.device.write(_SCRATCH_WORDS, layout.scratch_words)
        self.device.write(_ROOT_REDO_OFF, layout.root_redo_offset)
        self.device.write(_ROOT_REDO_WORDS, layout.root_redo_words)
        self.device.write(_ROOT_REDO_COUNT, 0)
        self.device.write(_ROOT_REDO_VALID, 0)
        self.device.write(_DATA_OFF, layout.data_offset)
        self.device.write(_DATA_WORDS, layout.data_words)
        self.device.write(_REGION_WORDS, layout.region_words)
        self.device.write(_ALLOC_SCAN_HINT, address_hint + layout.data_offset)
        self.device.write(_CURSOR_REGION, -1)
        self.device.write(_CURSOR_INDEX, 0)
        self.device.write(_MOVE_VALID, 0)
        for slot in range(ALLOC_BUF_SLOTS):
            self.device.write(_ALLOC_BUF_TABLE + slot, 0)
        self.device.write(_LAYOUT_CRC, self._geometry_crc())
        # Magic last: a heap is valid only once fully initialized.
        self.device.write(_MAGIC, MAGIC)
        self.persist.persist(0, METADATA_WORDS)

    def _geometry_crc(self) -> int:
        return crc32_words([self.device.read(off) for off in _GEOMETRY_WORDS])

    def validate(self) -> None:
        """Integrity-check the metadata area; raises :class:`CorruptHeapError`.

        Checks, in order: magic, version, geometry CRC, then cheap bounds
        sanity so a CRC collision can't smuggle an impossible layout through.
        """
        if self._get(_MAGIC) != MAGIC:
            raise CorruptHeapError("metadata.magic", "bad magic: not a PJH image")
        if self._get(_VERSION) != VERSION:
            raise CorruptHeapError(
                "metadata.version",
                f"unsupported PJH version {self._get(_VERSION)}")
        stored = self._get(_LAYOUT_CRC)
        actual = self._geometry_crc()
        if stored != actual:
            raise CorruptHeapError(
                "metadata.layout",
                f"geometry checksum mismatch: stored {stored:#x}, "
                f"computed {actual:#x}")
        size = self._get(_HEAP_SIZE)
        if size != self.device.size_words:
            raise CorruptHeapError(
                "metadata.layout",
                f"heap size {size} does not match device of "
                f"{self.device.size_words} words")
        for name, off_word, words_word in (
                ("name_table", _NAME_TABLE_OFF, None),
                ("klass_segment", _KLASS_SEG_OFF, _KLASS_SEG_WORDS),
                ("frame_segment", _FRAME_SEG_OFF, _FRAME_SEG_WORDS),
                ("bitmap", _BITMAP_OFF, _BITMAP_WORDS),
                ("data", _DATA_OFF, _DATA_WORDS)):
            off = self._get(off_word)
            extent = self._get(words_word) if words_word is not None else 0
            if off < METADATA_WORDS or off + extent > size:
                raise CorruptHeapError(
                    "metadata.layout",
                    f"{name} region [{off}, {off + extent}) outside heap")

    def layout(self) -> HeapLayout:
        return HeapLayout(
            size_words=self._get(_HEAP_SIZE),
            region_words=self._get(_REGION_WORDS),
            name_table_offset=self._get(_NAME_TABLE_OFF),
            name_table_capacity=self._get(_NAME_TABLE_CAPACITY),
            klass_segment_offset=self._get(_KLASS_SEG_OFF),
            klass_segment_words=self._get(_KLASS_SEG_WORDS),
            frame_segment_offset=self._get(_FRAME_SEG_OFF),
            frame_segment_words=self._get(_FRAME_SEG_WORDS),
            bitmap_offset=self._get(_BITMAP_OFF),
            bitmap_words=self._get(_BITMAP_WORDS),
            region_bitmap_offset=self._get(_REGION_BITMAP_OFF),
            region_bitmap_words=self._get(_REGION_BITMAP_WORDS),
            scratch_offset=self._get(_SCRATCH_OFF),
            scratch_words=self._get(_SCRATCH_WORDS),
            root_redo_offset=self._get(_ROOT_REDO_OFF),
            root_redo_words=self._get(_ROOT_REDO_WORDS),
            data_offset=self._get(_DATA_OFF),
            data_words=self._get(_DATA_WORDS),
        )

    # -- hot metadata ---------------------------------------------------------
    @property
    def address_hint(self) -> int:
        return self._get(_ADDRESS_HINT)

    def set_address_hint(self, value: int) -> None:
        self._set(_ADDRESS_HINT, value)

    @property
    def top(self) -> int:
        return self._get(_TOP)

    def set_top(self, value: int) -> None:
        self._set(_TOP, value)

    @property
    def alloc_scan_hint(self) -> int:
        return self._get(_ALLOC_SCAN_HINT)

    def set_alloc_scan_hint(self, value: int) -> None:
        self._set(_ALLOC_SCAN_HINT, value)

    @property
    def global_timestamp(self) -> int:
        return self._get(_GLOBAL_TIMESTAMP)

    def set_global_timestamp(self, value: int, fence: bool = True) -> None:
        self._set(_GLOBAL_TIMESTAMP, value, fence)

    @property
    def gc_in_progress(self) -> bool:
        return bool(self._get(_GC_IN_PROGRESS))

    def set_gc_in_progress(self, value: bool) -> None:
        self._set(_GC_IN_PROGRESS, int(value))

    @property
    def name_table_count(self) -> int:
        return self._get(_NAME_TABLE_COUNT)

    @publish_point("name-table entry count")
    def set_name_table_count(self, value: int) -> None:
        # Publishing store of the name-table insert protocol: bumping the
        # count makes the (already persisted) entry at index count-1
        # recoverable.  ESP501 holds callers to flushing the entry first.
        self._set(_NAME_TABLE_COUNT, value)

    @property
    def klass_segment_top(self) -> int:
        return self._get(_KLASS_SEG_TOP)

    def set_klass_segment_top(self, value: int) -> None:
        self._set(_KLASS_SEG_TOP, value)

    # -- resumable-task block (repro.runtime.resume; DESIGN.md §14) ----------
    @property
    def frame_top(self) -> int:
        return self._get(_FRAME_TOP)

    @publish_point("frame-stack top pointer")
    def set_frame_top(self, value: int) -> None:
        # Publishing store of the frame-push protocol (DESIGN.md §14):
        # advancing the top makes the frame below it part of the
        # recoverable stack, so the frame words must be durable first.
        self._set(_FRAME_TOP, value)

    @property
    def task_status(self) -> int:
        return self._get(_TASK_STATUS)

    def set_task_status(self, value: int) -> None:
        self._set(_TASK_STATUS, value)

    @property
    def task_epoch(self) -> int:
        return self._get(_TASK_EPOCH)

    def set_task_epoch(self, value: int) -> None:
        self._set(_TASK_EPOCH, value)

    def task_result(self):
        return self._get(_TASK_RESULT_KIND), self._get(_TASK_RESULT)

    def set_task_result(self, kind: int, word: int) -> None:
        self.device.write(_TASK_RESULT_KIND, kind)
        self.device.write(_TASK_RESULT, word)
        self._flush_range(_TASK_RESULT_KIND, 2)

    @property
    def task_gc_mark(self) -> int:
        return self._get(_TASK_GC_MARK)

    def set_task_gc_mark(self, value: int) -> None:
        self._set(_TASK_GC_MARK, value)

    # -- per-mutator allocation-buffer table (DESIGN.md §17) -----------------
    def alloc_buffer_entry(self, slot: int):
        """``(data-relative start, extent_words)`` or ``None`` if unclaimed."""
        word = self._get(_ALLOC_BUF_TABLE + slot)
        if word == 0:
            return None
        return (word >> _ALLOC_BUF_EXTENT_BITS,
                word & _ALLOC_BUF_EXTENT_MASK)

    def set_alloc_buffer_entry(self, slot: int, rel_start: int,
                               extent_words: int) -> None:
        if not 0 <= slot < ALLOC_BUF_SLOTS:
            raise IllegalArgumentException(
                f"allocation-buffer slot {slot} out of range")
        if not 0 < extent_words <= ALLOC_BUF_MAX_WORDS:
            raise IllegalArgumentException(
                f"allocation-buffer extent {extent_words} out of range")
        self._set(_ALLOC_BUF_TABLE + slot,
                  (rel_start << _ALLOC_BUF_EXTENT_BITS) | extent_words)

    def clear_alloc_buffer_entry(self, slot: int) -> None:
        self._set(_ALLOC_BUF_TABLE + slot, 0)

    def alloc_buffer_entries(self):
        """Claimed slots as ``[(slot, rel_start, extent_words), ...]``."""
        out = []
        for slot in range(ALLOC_BUF_SLOTS):
            entry = self.alloc_buffer_entry(slot)
            if entry is not None:
                out.append((slot, entry[0], entry[1]))
        return out

    # -- serialized-compaction cursor + move record --------------------------
    def region_cursor(self):
        return self._get(_CURSOR_REGION), self._get(_CURSOR_INDEX)

    def set_region_cursor(self, region: int, index: int) -> None:
        self.device.write(_CURSOR_REGION, region)
        self.device.write(_CURSOR_INDEX, index)
        self._flush_range(_CURSOR_REGION, 2)

    def move_record(self):
        if not self._get(_MOVE_VALID):
            return None
        return (self._get(_MOVE_SRC), self._get(_MOVE_DST),
                self._get(_MOVE_SIZE), self._get(_MOVE_PROGRESS))

    def set_move_record(self, src: int, dst: int, size: int,
                        progress: int) -> None:
        self.device.write(_MOVE_SRC, src)
        self.device.write(_MOVE_DST, dst)
        self.device.write(_MOVE_SIZE, size)
        self.device.write(_MOVE_PROGRESS, progress)
        self.device.write(_MOVE_VALID, 1)
        self._flush_range(_MOVE_VALID, 5)

    def set_move_progress(self, progress: int) -> None:
        self.device.write(_MOVE_PROGRESS, progress)
        self._flush_range(_MOVE_PROGRESS, 1)

    def clear_move_record(self) -> None:
        self.device.write(_MOVE_VALID, 0)
        self._flush_range(_MOVE_VALID, 1)

    def scrub_gc_progress(self) -> None:
        """Reset the GC progress words to their initialize-time values.

        The region cursor, move record and root-redo header are
        breadcrumbs: each collection overwrites them as it goes and only
        invalidates (never rewinds) them at the end, so the exact stale
        values depend on how much copying that collection happened to do.
        The resumable-task finalize scrub calls this so two runs that end
        in the same live heap also end with identical metadata bytes.
        """
        self.device.write(_CURSOR_REGION, -1)
        self.device.write(_CURSOR_INDEX, 0)
        self.device.write(_MOVE_VALID, 0)
        self.device.write(_MOVE_SRC, 0)
        self.device.write(_MOVE_DST, 0)
        self.device.write(_MOVE_SIZE, 0)
        self.device.write(_MOVE_PROGRESS, 0)
        self._flush_range(_CURSOR_REGION, 7)
        self.device.write(_ROOT_REDO_COUNT, 0)
        self.device.write(_ROOT_REDO_VALID, 0)
        self._flush_range(_ROOT_REDO_COUNT, 2)

    # -- root redo ---------------------------------------------------------------
    @property
    def root_redo_count(self) -> int:
        return self._get(_ROOT_REDO_COUNT)

    @property
    def root_redo_valid(self) -> bool:
        return bool(self._get(_ROOT_REDO_VALID))

    def set_root_redo(self, count: int) -> None:
        self.device.write(_ROOT_REDO_COUNT, count)
        self.device.write(_ROOT_REDO_VALID, 1)
        self._flush_range(_ROOT_REDO_COUNT, 2)

    def clear_root_redo(self) -> None:
        self.device.write(_ROOT_REDO_VALID, 0)
        self._flush_range(_ROOT_REDO_VALID, 1)
