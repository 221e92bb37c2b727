"""The Parallel-Scavenge-style DRAM heap: young + old generations.

Layout (paper Figure 7, minus the persistent space that
:mod:`repro.core` adds): a young generation split into eden and two
survivor halves, and an old generation collected by the region-based
compactor in :mod:`repro.runtime.old_gc`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.nvm.clock import Clock
from repro.nvm.device import AddressSpace, DramDevice
from repro.nvm.latency import DEFAULT_LATENCY, LatencyConfig
from repro.runtime.metaspace import KlassRegistry
from repro.runtime.objects import HeapAccess, RootSlot
from repro.runtime.old_gc import CompactionEngine, CompactStats, VolatileGCHooks
from repro.runtime.spaces import Space
from repro.runtime.young_gc import PROMOTE_AGE, ScavengeStats, YoungCollector

DEFAULT_DRAM_BASE = 0x1000_0000


@dataclass(frozen=True)
class HeapConfig:
    """Sizing knobs for the DRAM heap (all in words)."""

    eden_words: int = 1 << 16          # 512 KiB
    survivor_words: int = 1 << 14      # 128 KiB each
    old_words: int = 1 << 18           # 2 MiB
    region_words: int = 1 << 10        # old-GC region granularity
    base: int = DEFAULT_DRAM_BASE

    @property
    def total_words(self) -> int:
        return self.eden_words + 2 * self.survivor_words + self.old_words


@dataclass
class GCLog:
    """Counts of collections performed (exposed for tests/benchmarks)."""

    young_collections: int = 0
    full_collections: int = 0
    last_scavenge: Optional[ScavengeStats] = None
    last_compact: Optional[CompactStats] = None


class ParallelScavengeHeap:
    """Owns the DRAM device, the generation spaces and both collectors."""

    def __init__(self, memory: AddressSpace, registry: KlassRegistry,
                 clock: Clock, latency: LatencyConfig = DEFAULT_LATENCY,
                 config: HeapConfig = HeapConfig()) -> None:
        self.config = config
        self.device = DramDevice(config.total_words, clock, latency, "dram-heap")
        memory.map(config.base, self.device)
        base = config.base
        self.eden = Space("eden", base, config.eden_words)
        base += config.eden_words
        self._survivor_a = Space("survivor-a", base, config.survivor_words)
        base += config.survivor_words
        self._survivor_b = Space("survivor-b", base, config.survivor_words)
        base += config.survivor_words
        self.old = Space("old", base, config.old_words)
        self.from_space = self._survivor_a
        self.to_space = self._survivor_b
        self.access = HeapAccess(memory, registry)
        self.log = GCLog()

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def in_young(self, address: int) -> bool:
        return (self.eden.contains(address)
                or self._survivor_a.contains(address)
                or self._survivor_b.contains(address))

    def in_heap(self, address: int) -> bool:
        return self.in_young(address) or self.old.contains(address)

    # ------------------------------------------------------------------
    # Allocation (slow path with GC lives in the VM)
    # ------------------------------------------------------------------
    def allocate_young(self, size_words: int) -> Optional[int]:
        if size_words > self.config.eden_words:
            return None  # humongous: goes straight to old space
        return self.eden.allocate(size_words)

    def allocate_old(self, size_words: int) -> Optional[int]:
        return self.old.allocate(size_words)

    # ------------------------------------------------------------------
    # Collections
    # ------------------------------------------------------------------
    def young_collect(self, roots: Sequence[RootSlot],
                      promote_all: bool = False) -> ScavengeStats:
        collector = YoungCollector(
            self.access, self.eden, self.from_space, self.to_space, self.old,
            promote_age=0 if promote_all else PROMOTE_AGE)
        stats = collector.collect(roots)
        self.from_space, self.to_space = self.to_space, self.from_space
        self.log.young_collections += 1
        self.log.last_scavenge = stats
        return stats

    def full_collect(self, roots: Sequence[RootSlot],
                     pool=None) -> CompactStats:
        """Old-space compaction followed by whole-young evacuation.

        *pool* is an optional :class:`~repro.runtime.workers.WorkerPool`;
        the VM passes one when ``gc_workers > 1``.
        """
        engine = CompactionEngine(
            self.access, self.old, self.config.region_words,
            hooks=VolatileGCHooks(), traversable=self.in_young, pool=pool)
        stats = engine.collect(roots)
        # Evacuate every young survivor into the (now compacted) old space.
        self.young_collect(roots, promote_all=True)
        self.log.full_collections += 1
        self.log.last_compact = stats
        return stats

    # ------------------------------------------------------------------
    # Walking (post-compaction the old space is a dense prefix)
    # ------------------------------------------------------------------
    def walk_old(self) -> Iterable[int]:
        """Yield addresses of objects in the old space, in address order.

        Only valid when the old space is densely packed (right after a full
        collection), which is when remembered-set rebuilds use it.
        """
        cursor = self.old.base
        while cursor < self.old.top:
            yield cursor
            cursor += self.access.object_words(cursor)
