"""Test-only reference model of the per-word memory path.

These are the straightforward bodies ``repro.nvm`` had before the hot
path was flattened (ISSUE 13): one small method per step — ``_check``,
``_touch``, ``_charge_read``, ``_read_cost``, ``current_category``,
generator-based ``scope``/``divert``, a linear ``mapping_at`` over a
``Mapping`` with ``end``/``contains``, a sorting ``_runs`` generator in
the persist domain.  They are slow and obviously right, which is what a
reference is for: ``test_hot_path_identity.py`` drives these and the
production classes with the same op script and demands equal clocks,
counters, LRU order, dirty/unfenced sets, event logs and durable images.

Only passive data (``DeviceStats``, ``FaultMode``, ``ChargeMeter``,
``LatencyConfig``, ``PersistEventLog``) is shared with production; every
line that decides *what to charge, count or record, and in which order*
is duplicated here on purpose.  Do not "simplify" this file by importing
behaviour from ``repro.nvm``.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Set, Tuple

import numpy as np

from repro.errors import IllegalArgumentException
from repro.nvm.clock import DEFAULT_CATEGORY, ChargeMeter
from repro.nvm.device import LINE_WORDS, DeviceStats, FaultMode
from repro.nvm.latency import DEFAULT_LATENCY, LatencyConfig

_U64 = 1 << 64
_I64_MAX = (1 << 63) - 1


def _wrap_i64(value: int) -> int:
    value &= _U64 - 1
    return value - _U64 if value > _I64_MAX else value


class RefClock:
    def __init__(self) -> None:
        self._now_ns: float = 0.0
        self._by_category: Dict[str, float] = {}
        self._stack: List[str] = []
        self._meters: List[ChargeMeter] = []

    def charge(self, ns: float, category: str | None = None) -> None:
        if ns < 0:
            raise ValueError(f"negative charge: {ns}")
        if self._meters:
            self._meters[-1].ns += ns
            return
        self._now_ns += ns
        label = category if category is not None else self.current_category
        self._by_category[label] = self._by_category.get(label, 0.0) + ns

    @contextmanager
    def divert(self, meter: ChargeMeter) -> Iterator[ChargeMeter]:
        self._meters.append(meter)
        try:
            yield meter
        finally:
            self._meters.pop()

    @property
    def diverted(self) -> bool:
        return bool(self._meters)

    @property
    def current_category(self) -> str:
        return self._stack[-1] if self._stack else DEFAULT_CATEGORY

    @contextmanager
    def scope(self, category: str) -> Iterator[None]:
        self._stack.append(category)
        try:
            yield
        finally:
            self._stack.pop()

    @property
    def now_ns(self) -> float:
        return self._now_ns

    def breakdown(self) -> Dict[str, float]:
        return dict(self._by_category)


class RefMemoryDevice:
    volatile = True
    CACHE_LINES = 2048

    def __init__(self, size_words: int, clock: RefClock,
                 latency: LatencyConfig = DEFAULT_LATENCY,
                 name: str = "mem") -> None:
        if size_words <= 0:
            raise IllegalArgumentException(
                f"device size must be > 0, got {size_words}")
        self.name = name
        self.size_words = int(size_words)
        self.clock = clock
        self.latency = latency
        self.stats = DeviceStats()
        self._words = np.zeros(self.size_words, dtype=np.int64)
        self._hot: Dict[int, None] = {}

    def _read_cost(self) -> float:
        return self.latency.dram_read_ns

    def _write_cost(self) -> float:
        return self.latency.dram_write_ns

    def _touch(self, line: int) -> bool:
        hot = self._hot
        if line in hot:
            del hot[line]
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
        miss_ns = self._read_cost()
        for line in range(first, last + 1):
            cost += hit_ns if self._touch(line) else miss_ns
        self.clock.charge(cost)

    def _charge_write(self, offset: int, count: int) -> None:
        first = offset // LINE_WORDS
        last = (offset + count - 1) // LINE_WORDS
        for line in range(first, last + 1):
            self._touch(line)
        self.clock.charge(self._write_cost() * count)

    def _check(self, offset: int, count: int = 1) -> None:
        if offset < 0 or offset + count > self.size_words:
            raise IllegalArgumentException(
                f"{self.name}: access [{offset}, {offset + count}) outside "
                f"[0, {self.size_words})")

    def read(self, offset: int) -> int:
        self._check(offset)
        self.stats.reads += 1
        self._charge_read(offset, 1)
        return int(self._words[offset])

    def write(self, offset: int, value: int) -> None:
        self._check(offset)
        self.stats.writes += 1
        self._charge_write(offset, 1)
        self._words[offset] = _wrap_i64(value)

    def read_block(self, offset: int, count: int) -> np.ndarray:
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

    def crash(self) -> None:
        self._words[:] = 0
        self._hot.clear()


class RefDramDevice(RefMemoryDevice):
    volatile = True


class RefNvmDevice(RefMemoryDevice):
    volatile = False

    def __init__(self, size_words: int, clock: RefClock,
                 latency: LatencyConfig = DEFAULT_LATENCY,
                 name: str = "nvm") -> None:
        super().__init__(size_words, clock, latency, name)
        self._durable = np.zeros(self.size_words, dtype=np.int64)
        self._dirty_lines: Set[int] = set()
        self.event_log = None
        self.fault_mode = FaultMode.ATOMIC
        self._fault_rng = random.Random(0)
        self._unfenced: Dict[int, np.ndarray] = {}
        self._unfenced_lines: Set[int] = set()

    def set_fault_mode(self, mode: str, seed: int = 0) -> None:
        if mode not in FaultMode.ALL:
            raise IllegalArgumentException(
                f"unknown fault mode {mode!r}; expected one of {FaultMode.ALL}")
        self.fault_mode = mode
        self._fault_rng = random.Random(seed)
        self._unfenced.clear()
        self._unfenced_lines.clear()

    def _read_cost(self) -> float:
        return self.latency.nvm_read_ns

    def _write_cost(self) -> float:
        return self.latency.nvm_write_ns

    def _mark_dirty(self, offset: int, count: int = 1) -> None:
        if self.event_log is not None:
            self.event_log.record_store(offset, count)
        first = offset // LINE_WORDS
        last = (offset + count - 1) // LINE_WORDS
        if first == last:
            self._dirty_lines.add(first)
        else:
            self._dirty_lines.update(range(first, last + 1))

    def write(self, offset: int, value: int) -> None:
        super().write(offset, value)
        self._mark_dirty(offset)

    def write_block(self, offset: int, values: np.ndarray) -> None:
        super().write_block(offset, values)
        self._mark_dirty(offset, len(values))

    def fill(self, offset: int, count: int, value: int = 0) -> None:
        super().fill(offset, count, value)
        self._mark_dirty(offset, count)

    def clflush(self, offset: int, count: int = 1,
                asynchronous: bool = False) -> None:
        self._check(offset, count)
        first = offset // LINE_WORDS
        last = (offset + count - 1) // LINE_WORDS
        cost = (self.latency.clflush_issue_ns if asynchronous
                else self.latency.clflush_ns)
        reordered = self.fault_mode == FaultMode.REORDERED
        for line in range(first, last + 1):
            self.stats.flushes += 1
            self.clock.charge(cost)
            if self.event_log is not None:
                self.event_log.record_flush(line)
            start = line * LINE_WORDS
            end = min(start + LINE_WORDS, self.size_words)
            if reordered and line not in self._unfenced:
                self._unfenced[line] = self._durable[start:end].copy()
            self._unfenced_lines.add(line)
            self._durable[start:end] = self._words[start:end]
            self._dirty_lines.discard(line)

    def fence(self) -> None:
        self.stats.fences += 1
        self.clock.charge(self.latency.sfence_ns)
        if self.event_log is not None:
            self.event_log.record_fence()
        self._unfenced.clear()
        self._unfenced_lines.clear()

    @property
    def has_unfenced(self) -> bool:
        return bool(self._unfenced_lines)

    def line_durably_equal(self, line: int) -> bool:
        start = line * LINE_WORDS
        end = min(start + LINE_WORDS, self.size_words)
        return bool(
            (self._words[start:end] == self._durable[start:end]).all())

    def mark_line_clean(self, line: int) -> None:
        self._dirty_lines.discard(line)

    def _tear_dirty_lines(self) -> None:
        rng = self._fault_rng
        for line in sorted(self._dirty_lines):
            start = line * LINE_WORDS
            end = min(start + LINE_WORDS, self.size_words)
            width = end - start
            if rng.random() < 0.5:
                survive = [i < rng.randint(0, width) for i in range(width)]
            else:
                survive = [rng.random() < 0.5 for _ in range(width)]
            for i, keep in enumerate(survive):
                if keep:
                    self._durable[start + i] = self._words[start + i]

    def _reorder_unfenced_lines(self) -> None:
        rng = self._fault_rng
        for line in sorted(self._unfenced):
            if rng.random() < 0.5:
                snapshot = self._unfenced[line]
                start = line * LINE_WORDS
                self._durable[start:start + len(snapshot)] = snapshot

    def crash(self) -> None:
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
        return self._durable.copy()


@dataclass(frozen=True)
class RefMapping:
    base: int
    device: RefMemoryDevice

    @property
    def end(self) -> int:
        return self.base + self.device.size_words

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end


class RefAddressSpace:
    def __init__(self) -> None:
        self._mappings: List[RefMapping] = []

    def map(self, base: int, device: RefMemoryDevice) -> RefMapping:
        if base <= 0:
            raise IllegalArgumentException(
                "mapping base must be positive (0 is null)")
        new = RefMapping(base, device)
        for existing in self._mappings:
            if new.base < existing.end and existing.base < new.end:
                raise IllegalArgumentException(
                    f"mapping [{new.base}, {new.end}) overlaps "
                    f"[{existing.base}, {existing.end}) of "
                    f"{existing.device.name}")
        self._mappings.append(new)
        return new

    def unmap(self, device: RefMemoryDevice) -> None:
        self._mappings = [m for m in self._mappings if m.device is not device]

    def mapping_at(self, address: int) -> RefMapping:
        for mapping in self._mappings:
            if mapping.contains(address):
                return mapping
        raise IllegalArgumentException(f"address {address:#x} is not mapped")

    def read(self, address: int) -> int:
        mapping = self.mapping_at(address)
        return mapping.device.read(address - mapping.base)

    def write(self, address: int, value: int) -> None:
        mapping = self.mapping_at(address)
        mapping.device.write(address - mapping.base, value)

    def read_block(self, address: int, count: int) -> np.ndarray:
        mapping = self.mapping_at(address)
        return mapping.device.read_block(address - mapping.base, count)

    def write_block(self, address: int, values: np.ndarray) -> None:
        mapping = self.mapping_at(address)
        mapping.device.write_block(address - mapping.base, values)


class RefPersistDomain:
    def __init__(self, device: RefNvmDevice, name: str = "persist",
                 enabled: bool = True) -> None:
        self.device = device
        self.name = name
        self.enabled = enabled
        self._pending: Set[int] = set()
        self.elision = None

    def _lines(self, offset: int, count: int) -> Tuple[int, int]:
        if count < 1:
            count = 1
        return offset // LINE_WORDS, (offset + count - 1) // LINE_WORDS

    def flush(self, offset: int, count: int = 1) -> int:
        if not self.enabled:
            return 0
        first, last = self._lines(offset, count)
        pending = self._pending
        added = 0
        for line in range(first, last + 1):
            if line in pending:
                self.device.stats.flushes_deduped += 1
            else:
                pending.add(line)
                added += 1
        return added

    def _runs(self) -> Iterator[Tuple[int, int]]:
        lines: List[int] = sorted(self._pending)
        start = prev = lines[0]
        for line in lines[1:]:
            if line != prev + 1:
                yield start, prev - start + 1
                start = line
            prev = line
        yield start, prev - start + 1

    def commit_epoch(self) -> int:
        if not self._pending:
            return 0
        drained = len(self._pending)
        cert = self.elision
        if (cert is not None and cert.active
                and cert.covers_domain(self.name)
                and self.device.event_log is None):
            redundant = [line for line in self._pending
                         if self.device.line_durably_equal(line)]
            for line in redundant:
                self.device.mark_line_clean(line)
                self._pending.discard(line)
            self.device.stats.flushes_elided += len(redundant)
            cert.note_elided(flushes=len(redundant))
            if not self._pending:
                if self.device.has_unfenced:
                    self.device.fence()
                else:
                    self.device.stats.fences_elided += 1
                    cert.note_elided(fences=1)
                self.device.stats.epochs += 1
                return drained
        size = self.device.size_words
        for first_line, n_lines in self._runs():
            start = first_line * LINE_WORDS
            count = min(n_lines * LINE_WORDS, size - start)
            self.device.clflush(start, count, asynchronous=True)
        self._pending.clear()
        self.device.fence()
        self.device.stats.epochs += 1
        return drained

    def fence(self) -> None:
        if not self.enabled:
            return
        if self._pending:
            self.commit_epoch()
        else:
            self.device.fence()

    def persist(self, offset: int, count: int = 1) -> None:
        self.flush(offset, count)
        self.commit_epoch()
