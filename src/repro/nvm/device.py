"""Simulated memory devices and the address space that maps them.

The unit of addressing is one 64-bit *word*; a cache line is eight words
(64 bytes), matching the granularity of ``clflush``.  Two device kinds exist:

* :class:`DramDevice` — volatile; contents vanish on :meth:`crash`.
* :class:`NvmDevice` — keeps a *live* array (what the CPU sees through its
  caches) and a *durable* array (what the NVDIMM actually holds).  A store
  only reaches the durable array when its cache line is explicitly flushed
  with :meth:`clflush`.  :meth:`crash` discards every unflushed line — the
  adversarial model the paper's crash-consistency protocols are designed
  against.

Every access charges simulated nanoseconds to a shared
:class:`~repro.nvm.clock.Clock` according to a
:class:`~repro.nvm.latency.LatencyConfig`, so benchmark figures come out
deterministic.

An :class:`AddressSpace` maps devices at chosen base addresses and routes
reads/writes, mirroring ``mmap`` of a PJH instance at its *address hint*
(paper §3.3).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import IllegalArgumentException
from repro.nvm.clock import Clock
from repro.nvm.latency import DEFAULT_LATENCY, LatencyConfig

WORD_BYTES = 8
LINE_WORDS = 8  # one clflush covers 8 words = 64 bytes


class FaultMode:
    """Crash-time fault models for :class:`NvmDevice`.

    * ``ATOMIC`` — the historical behavior: every unflushed line is dropped
      whole; every flushed line survives whole.
    * ``TORN`` — an unflushed (dirty) line may *tear*: a random word-aligned
      subset (often a prefix, matching partial write-back) of its live words
      reaches media, the rest revert to the old durable contents.
    * ``REORDERED`` — a line that was flushed but not yet fenced may fail to
      persist: the flush is undone back to the pre-flush durable snapshot.
      Dirty lines are still dropped whole.  Only a fence makes the set of
      prior flushes final, which is exactly the ordering contract
      crash-consistent code must rely on.

    All randomness comes from a ``random.Random`` seeded via
    :meth:`NvmDevice.set_fault_mode`, so a sweep replays deterministically.
    """

    ATOMIC = "atomic"
    TORN = "torn"
    REORDERED = "reordered"
    ALL = (ATOMIC, TORN, REORDERED)

_U64 = 1 << 64
_U64_MASK = _U64 - 1
_I64_MAX = (1 << 63) - 1


@dataclass
class DeviceStats:
    """Operation counters for one device.

    ``flushes_deduped`` counts flush requests a
    :class:`~repro.nvm.persist.PersistDomain` elided because the line was
    already pending in the open fence epoch; ``epochs`` counts committed
    (non-empty) fence epochs.  ``flushes_elided``/``fences_elided`` count
    operations a certified domain skipped because the line was already
    durably identical (see :mod:`repro.analysis.elision`) — they never
    reach the device, so they appear in no other counter.
    """

    reads: int = 0
    writes: int = 0
    flushes: int = 0
    fences: int = 0
    flushes_deduped: int = 0
    epochs: int = 0
    flushes_elided: int = 0
    fences_elided: int = 0

    def snapshot(self) -> "DeviceStats":
        return DeviceStats(self.reads, self.writes, self.flushes, self.fences,
                           self.flushes_deduped, self.epochs,
                           self.flushes_elided, self.fences_elided)

    def delta(self, since: "DeviceStats") -> "DeviceStats":
        """Counters accumulated since an earlier :meth:`snapshot`."""
        return DeviceStats(
            self.reads - since.reads,
            self.writes - since.writes,
            self.flushes - since.flushes,
            self.fences - since.fences,
            self.flushes_deduped - since.flushes_deduped,
            self.epochs - since.epochs,
            self.flushes_elided - since.flushes_elided,
            self.fences_elided - since.fences_elided,
        )

    def as_dict(self) -> Dict[str, int]:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "flushes": self.flushes,
            "fences": self.fences,
            "flushes_deduped": self.flushes_deduped,
            "epochs": self.epochs,
            "flushes_elided": self.flushes_elided,
            "fences_elided": self.fences_elided,
        }


def snapshot_devices(devices: Dict[str, "MemoryDevice"]
                     ) -> Dict[str, DeviceStats]:
    """Capture a snapshot per device, for a later :func:`device_counters`."""
    return {label: device.stats.snapshot()
            for label, device in devices.items()}


def device_counters(devices: Dict[str, "MemoryDevice"],
                    since: Optional[Dict[str, DeviceStats]] = None
                    ) -> Dict[str, Dict[str, int]]:
    """Per-device counter dicts, optionally as deltas.

    *devices* maps a label (heap or database name) to its device; *since*
    maps the same labels to snapshots taken before the phase of interest.
    """
    out: Dict[str, Dict[str, int]] = {}
    for label, device in sorted(devices.items()):
        stats = device.stats
        if since is not None and label in since:
            stats = stats.delta(since[label])
        out[label] = stats.as_dict()
    return out


class MemoryDevice:
    """Common behaviour for simulated word-addressable memory."""

    volatile = True

    # CPU cache model: this many 64-byte lines of the device can be "hot".
    # Repeated touches of hot lines (headers, chased pointers) cost
    # cache_hit_ns instead of full media latency — without this, interpreted
    # header re-reads would dominate every workload in a way no real CPU
    # exhibits.  LRU, deterministic, cleared on crash.
    CACHE_LINES = 2048

    def __init__(self, size_words: int, clock: Clock,
                 latency: LatencyConfig = DEFAULT_LATENCY,
                 name: str = "mem") -> None:
        if size_words <= 0:
            raise IllegalArgumentException(f"device size must be > 0, got {size_words}")
        self.name = name
        self.size_words = int(size_words)
        self.clock = clock
        self.latency = latency
        self.stats = DeviceStats()
        self._words = np.zeros(self.size_words, dtype=np.int64)
        self._hot: Dict[int, None] = {}  # insertion-ordered LRU of lines
        # Per-word media costs of this device kind, picked once: the
        # latency config is frozen and never rebound after construction.
        self._read_ns, self._write_ns = self._media_costs(latency)
        # Lines with unflushed stores; None on a device that tracks none.
        self._dirty_lines: Optional[Set[int]] = None

    @staticmethod
    def _media_costs(latency: LatencyConfig) -> Tuple[float, float]:
        """(read, write) cost of one word that misses the CPU cache."""
        return latency.dram_read_ns, latency.dram_write_ns

    # -- cache model ------------------------------------------------------
    def _touch(self, line: int) -> bool:
        """Mark *line* hot; True when it already was (a cache hit)."""
        hot = self._hot
        if line in hot:
            del hot[line]  # refresh recency
            hot[line] = None
            return True
        hot[line] = None
        if len(hot) > self.CACHE_LINES:
            del hot[next(iter(hot))]
        return False

    def _charge_read(self, offset: int, count: int) -> None:
        first = offset // LINE_WORDS
        last = (offset + count - 1) // LINE_WORDS
        cost = 0.0
        hit_ns = self.latency.cache_hit_ns
        miss_ns = self._read_ns
        for line in range(first, last + 1):
            cost += hit_ns if self._touch(line) else miss_ns
        self.clock.charge(cost)

    def _charge_write(self, offset: int, count: int) -> None:
        # Stores go through the write-back cache: charged per word (store
        # bandwidth), and the touched lines become hot.
        first = offset // LINE_WORDS
        last = (offset + count - 1) // LINE_WORDS
        for line in range(first, last + 1):
            self._touch(line)
        self.clock.charge(self._write_ns * count)

    # -- word access ----------------------------------------------------
    def _check(self, offset: int, count: int = 1) -> None:
        if offset < 0 or offset + count > self.size_words:
            raise IllegalArgumentException(
                f"{self.name}: access [{offset}, {offset + count}) outside "
                f"[0, {self.size_words})")

    # read/write are the per-word hot path: one frame each plus the one
    # Clock.charge, doing exactly what _check + _charge_read/_charge_write
    # (+ _mark_dirty) do for a block, in the same order (DESIGN.md §7.1).
    def read(self, offset: int) -> int:
        if offset < 0 or offset >= self.size_words:
            self._check(offset)
        self.stats.reads += 1
        hot = self._hot
        line = offset // LINE_WORDS
        if line in hot:
            del hot[line]  # refresh recency
            hot[line] = None
            self.clock.charge(self.latency.cache_hit_ns)
        else:
            hot[line] = None
            if len(hot) > self.CACHE_LINES:
                del hot[next(iter(hot))]
            self.clock.charge(self._read_ns)
        return self._words.item(offset)

    def write(self, offset: int, value: int) -> None:
        if offset < 0 or offset >= self.size_words:
            self._check(offset)
        self.stats.writes += 1
        hot = self._hot
        line = offset // LINE_WORDS
        if line in hot:
            del hot[line]
            hot[line] = None
        else:
            hot[line] = None
            if len(hot) > self.CACHE_LINES:
                del hot[next(iter(hot))]
        self.clock.charge(self._write_ns)
        # Raw bits of an arbitrary int as a signed 64-bit word.
        value &= _U64_MASK
        self._words[offset] = value - _U64 if value > _I64_MAX else value
        dirty = self._dirty_lines
        if dirty is not None:
            if self.event_log is not None:
                self.event_log.record_store(offset, 1)
            dirty.add(line)

    def read_block(self, offset: int, count: int) -> np.ndarray:
        """Read *count* words; charged per word, copied in one step."""
        self._check(offset, count)
        self.stats.reads += count
        self._charge_read(offset, count)
        return self._words[offset:offset + count].copy()

    def write_block(self, offset: int, values: np.ndarray) -> None:
        count = len(values)
        self._check(offset, count)
        self.stats.writes += count
        self._charge_write(offset, count)
        self._words[offset:offset + count] = values

    def fill(self, offset: int, count: int, value: int = 0) -> None:
        self._check(offset, count)
        self.stats.writes += count
        self._charge_write(offset, count)
        self._words[offset:offset + count] = value

    # -- lifecycle -------------------------------------------------------
    def crash(self) -> None:
        """Model a machine crash."""
        self._words[:] = 0
        self._hot.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, {self.size_words} words)"


class DramDevice(MemoryDevice):
    """Volatile DRAM: everything is lost on crash."""

    volatile = True


class NvmDevice(MemoryDevice):
    """Simulated NVDIMM with explicit persistence.

    Stores land in the *live* array (``self._words``) and their cache line
    becomes *dirty*.  ``clflush`` copies a line into the durable array.  On
    ``crash()`` the live array is rebuilt from the durable one, so every
    unflushed store is lost.  ``fence()`` only charges time and counts — in
    this single-threaded simulator store order is already program order, but
    the protocols still issue fences exactly where the paper requires them
    and the §6.4 benchmark prices them.
    """

    volatile = False

    def __init__(self, size_words: int, clock: Clock,
                 latency: LatencyConfig = DEFAULT_LATENCY,
                 name: str = "nvm") -> None:
        super().__init__(size_words, clock, latency, name)
        self._durable = np.zeros(self.size_words, dtype=np.int64)
        self._dirty_lines: Set[int] = set()
        # Optional persist-order event tap (a PersistEventLog): when set,
        # every store/flush/fence is recorded for the static hazard
        # analyzer.  Duck-typed so the device layer has no new imports.
        self.event_log = None
        self.fault_mode = FaultMode.ATOMIC
        self._fault_rng = random.Random(0)
        # Pre-flush durable snapshots of lines flushed since the last fence;
        # only populated in REORDERED mode (a crash may undo these flushes).
        self._unfenced: Dict[int, np.ndarray] = {}
        # Lines flushed since the last fence, tracked in *every* fault
        # mode: a fence is redundant exactly when this is empty (it would
        # order nothing), which is what certified fence elision tests.
        self._unfenced_lines: Set[int] = set()

    # -- fault model -------------------------------------------------------
    def set_fault_mode(self, mode: str, seed: int = 0) -> None:
        """Select the crash fault model (see :class:`FaultMode`)."""
        if mode not in FaultMode.ALL:
            raise IllegalArgumentException(
                f"unknown fault mode {mode!r}; expected one of {FaultMode.ALL}")
        self.fault_mode = mode
        self._fault_rng = random.Random(seed)
        self._unfenced.clear()
        self._unfenced_lines.clear()

    # -- latency ----------------------------------------------------------
    @staticmethod
    def _media_costs(latency: LatencyConfig) -> Tuple[float, float]:
        return latency.nvm_read_ns, latency.nvm_write_ns

    # -- dirtiness tracking ------------------------------------------------
    def _mark_dirty(self, offset: int, count: int) -> None:
        if self.event_log is not None:
            self.event_log.record_store(offset, count)
        self._dirty_lines.update(
            range(offset // LINE_WORDS, (offset + count - 1) // LINE_WORDS + 1))

    def write_block(self, offset: int, values: np.ndarray) -> None:
        super().write_block(offset, values)
        self._mark_dirty(offset, len(values))

    def fill(self, offset: int, count: int, value: int = 0) -> None:
        super().fill(offset, count, value)
        self._mark_dirty(offset, count)

    # -- persistence primitives ---------------------------------------------
    def clflush(self, offset: int, count: int = 1,
                asynchronous: bool = False) -> None:
        """Flush every cache line covering ``[offset, offset+count)``.

        With *asynchronous* (clflushopt semantics) only the issue cost is
        charged — the write-back overlaps with further work and is ordered
        by the next :meth:`fence`.  Durability in the simulator is
        immediate either way; only the accounting differs.
        """
        size = self.size_words
        if offset < 0 or offset + count > size:
            self._check(offset, count)
        cost = (self.latency.clflush_issue_ns if asynchronous
                else self.latency.clflush_ns)
        reordered = self.fault_mode == FaultMode.REORDERED
        stats, charge, log = self.stats, self.clock.charge, self.event_log
        words, durable = self._words, self._durable
        unfenced, unfenced_lines = self._unfenced, self._unfenced_lines
        dirty = self._dirty_lines
        for line in range(offset // LINE_WORDS,
                          (offset + count - 1) // LINE_WORDS + 1):
            stats.flushes += 1
            charge(cost)
            if log is not None:
                log.record_flush(line)
            start = line * LINE_WORDS
            end = min(start + LINE_WORDS, size)
            if reordered and line not in unfenced:
                unfenced[line] = durable[start:end].copy()
            unfenced_lines.add(line)
            durable[start:end] = words[start:end]
            dirty.discard(line)

    def fence(self) -> None:
        """sfence: order prior flushes before later stores."""
        self.stats.fences += 1
        self.clock.charge(self.latency.sfence_ns)
        if self.event_log is not None:
            self.event_log.record_fence()
        self._unfenced.clear()
        self._unfenced_lines.clear()

    def persist_all(self) -> None:
        """Flush every dirty line, then fence (checkpoint-style image
        saves): nothing it flushed may revert in a later crash."""
        for line in sorted(self._dirty_lines):
            self.clflush(line * LINE_WORDS)
        if self._unfenced_lines:
            self.fence()

    @property
    def dirty_line_count(self) -> int:
        return len(self._dirty_lines)

    @property
    def has_unfenced(self) -> bool:
        """True while any flush since the last fence awaits ordering."""
        return bool(self._unfenced_lines)

    def line_durably_equal(self, line: int) -> bool:
        """True when *line*'s live content already equals its durable copy.

        Flushing such a line is the identity operation under every fault
        mode — ATOMIC/REORDERED copy identical bytes, and TORN tearing a
        store that rewrote the durable value cannot produce a third value
        — so a certified domain may skip the ``clflush`` entirely.
        """
        start = line * LINE_WORDS
        end = min(start + LINE_WORDS, self.size_words)
        return bool(
            (self._words[start:end] == self._durable[start:end]).all())

    def mark_line_clean(self, line: int) -> None:
        """Drop *line*'s dirty bit without flushing.

        Only legal when :meth:`line_durably_equal` holds — the caller
        (certified flush elision) is asserting the flush it skipped would
        have been a no-op, so the line must stop counting as dirty just
        as if it had been flushed.
        """
        self._dirty_lines.discard(line)

    # -- crash / restart ------------------------------------------------------
    def _tear_dirty_lines(self) -> None:
        """TORN: a random word-aligned subset of each dirty line persists."""
        rng = self._fault_rng
        for line in sorted(self._dirty_lines):
            start = line * LINE_WORDS
            end = min(start + LINE_WORDS, self.size_words)
            width = end - start
            if rng.random() < 0.5:
                # Partial write-back of a prefix of the line.
                survive = [i < rng.randint(0, width) for i in range(width)]
            else:
                survive = [rng.random() < 0.5 for _ in range(width)]
            for i, keep in enumerate(survive):
                if keep:
                    self._durable[start + i] = self._words[start + i]

    def _reorder_unfenced_lines(self) -> None:
        """REORDERED: each unfenced flush independently may not have landed."""
        rng = self._fault_rng
        for line in sorted(self._unfenced):
            if rng.random() < 0.5:
                snapshot = self._unfenced[line]
                start = line * LINE_WORDS
                self._durable[start:start + len(snapshot)] = snapshot

    def crash(self) -> None:
        """Lose every store that was not explicitly flushed.

        Under :class:`FaultMode` ``TORN`` dirty lines may partially persist;
        under ``REORDERED`` flushed-but-unfenced lines may revert to their
        pre-flush contents.  ``ATOMIC`` keeps the historical whole-line
        semantics.
        """
        if self.fault_mode == FaultMode.TORN:
            self._tear_dirty_lines()
        elif self.fault_mode == FaultMode.REORDERED:
            self._reorder_unfenced_lines()
        self._words = self._durable.copy()
        self._dirty_lines.clear()
        self._unfenced.clear()
        self._unfenced_lines.clear()
        self._hot.clear()

    def durable_image(self) -> np.ndarray:
        """Copy of the durable contents (what survives power loss)."""
        return self._durable.copy()

    def load_image(self, image: np.ndarray) -> None:
        """Restore durable + live contents from a saved image."""
        if len(image) > self.size_words:
            raise IllegalArgumentException(
                f"image of {len(image)} words exceeds device of {self.size_words}")
        self._durable[:len(image)] = image
        self._durable[len(image):] = 0
        self._words = self._durable.copy()
        self._dirty_lines.clear()
        self._unfenced.clear()
        self._unfenced_lines.clear()

    def durable_word(self, offset: int) -> int:
        """Read straight from the durable array (no charge: test helper)."""
        self._check(offset)
        return int(self._durable[offset])


@dataclass(frozen=True)
class Mapping:
    """One device mapped at a base address: words ``[base, end)``."""

    base: int
    device: MemoryDevice
    end: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "end", self.base + self.device.size_words)


class AddressSpace:
    """Routes absolute word addresses to mapped devices.

    Address 0 is reserved as the null reference, so mappings must start at a
    positive base.
    """

    def __init__(self) -> None:
        self._mappings: List[Mapping] = []  # sorted by base
        self._bases: List[int] = []  # their bases, for bisecting
        self._last: Optional[Mapping] = None  # served the previous lookup

    def _reindex(self) -> None:
        self._mappings.sort(key=lambda m: m.base)
        self._bases = [m.base for m in self._mappings]
        self._last = None

    def map(self, base: int, device: MemoryDevice) -> Mapping:
        if base <= 0:
            raise IllegalArgumentException("mapping base must be positive (0 is null)")
        new = Mapping(base, device)
        for existing in self._mappings:
            if new.base < existing.end and existing.base < new.end:
                raise IllegalArgumentException(
                    f"mapping [{new.base}, {new.end}) overlaps "
                    f"[{existing.base}, {existing.end}) of {existing.device.name}")
        self._mappings.append(new)
        self._reindex()
        return new

    def unmap(self, device: MemoryDevice) -> None:
        self._mappings = [m for m in self._mappings if m.device is not device]
        self._reindex()

    def is_free(self, base: int, size_words: int) -> bool:
        end = base + size_words
        return all(base >= m.end or end <= m.base for m in self._mappings)

    def find_free_base(self, size_words: int, alignment: int = LINE_WORDS,
                       start: int = LINE_WORDS) -> int:
        """Lowest aligned base where *size_words* fits."""
        candidate = max(start, alignment)
        for mapping in self._mappings:
            if candidate + size_words <= mapping.base:
                break
            candidate = max(candidate, mapping.end)
            rem = candidate % alignment
            if rem:
                candidate += alignment - rem
        return candidate

    def mapping_at(self, address: int) -> Mapping:
        mapping = self._last
        if mapping is not None and mapping.base <= address < mapping.end:
            return mapping
        index = bisect_right(self._bases, address) - 1
        if index >= 0:
            mapping = self._mappings[index]
            if address < mapping.end:
                self._last = mapping
                return mapping
        raise IllegalArgumentException(f"address {address:#x} is not mapped")

    # -- routed access -------------------------------------------------------
    # read/write inline mapping_at's last-hit test: a word access that
    # stays on the previous access's device costs no routing frame.
    def read(self, address: int) -> int:
        mapping = self._last
        if mapping is None or not mapping.base <= address < mapping.end:
            mapping = self.mapping_at(address)
        return mapping.device.read(address - mapping.base)

    def write(self, address: int, value: int) -> None:
        mapping = self._last
        if mapping is None or not mapping.base <= address < mapping.end:
            mapping = self.mapping_at(address)
        mapping.device.write(address - mapping.base, value)

    def read_block(self, address: int, count: int) -> np.ndarray:
        mapping = self.mapping_at(address)
        return mapping.device.read_block(address - mapping.base, count)

    def write_block(self, address: int, values: np.ndarray) -> None:
        mapping = self.mapping_at(address)
        mapping.device.write_block(address - mapping.base, values)

    def device_of(self, address: int) -> MemoryDevice:
        return self.mapping_at(address).device

