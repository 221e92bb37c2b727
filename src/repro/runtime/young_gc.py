"""Copying young-generation collector (the Parallel Scavenge "young GC").

Paper §3.1: "Objects will be initially created at the Young Space and later
promoted to the Old Space if they have survived several collections.  Young
GC only collects the garbage within the Young Space, which happens
frequently and finishes soon."

The collector evacuates live young objects into the to-survivor space (or
promotes them to old space once their header age reaches the threshold),
leaving a forwarding pointer in the vacated mark word.  Roots are handles,
remembered-set slots (old->young and PJH->young pointers recorded by the
write barrier) and anything else the VM registers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from repro.errors import OutOfMemoryError
from repro.runtime import layout
from repro.runtime.objects import HeapAccess, RootSlot
from repro.runtime.spaces import Space


@dataclass
class ScavengeStats:
    survivors: int = 0
    promoted: int = 0
    copied_words: int = 0


#: Scavenges an object survives in the survivor spaces before promotion.
PROMOTE_AGE = 2


class YoungCollector:
    """One scavenge over (eden + from-survivor) into (to-survivor, old)."""

    def __init__(self, access: HeapAccess, eden: Space, from_space: Space,
                 to_space: Space, old_space: Space,
                 promote_age: int = PROMOTE_AGE) -> None:
        self.access = access
        self.eden = eden
        self.from_space = from_space
        self.to_space = to_space
        self.old_space = old_space
        self.promote_age = promote_age

    def _in_young(self, address: int) -> bool:
        return (self.eden.contains(address)
                or self.from_space.contains(address))

    def _forward(self, address: int, scan_list: List[int],
                 stats: ScavengeStats) -> int:
        """Copy one young object out (or return its existing forwardee)."""
        mark = self.access.mark_of(address)
        if layout.mark_is_forwarded(mark):
            return layout.mark_forwardee(mark)
        size = self.access.object_words(address)
        age = layout.mark_age(mark) + 1
        destination = None
        promoted = False
        if age < self.promote_age:
            destination = self.to_space.allocate(size)
        if destination is None:
            destination = self.old_space.allocate(size)
            promoted = True
        if destination is None:
            # Promotion failure: the real JVM has a fallback; we surface it.
            raise OutOfMemoryError(
                f"promotion failure: {size} words do not fit in old space")
        self.access.copy_object(address, destination, size)
        self.access.set_mark(destination, layout.mark_with_age(
            layout.mark_encode(), 0 if promoted else age))
        self.access.set_mark(address, layout.mark_forwarding(destination))
        scan_list.append(destination)
        stats.copied_words += size
        if promoted:
            stats.promoted += 1
        else:
            stats.survivors += 1
        return destination

    def collect(self, roots: Iterable[RootSlot]) -> ScavengeStats:
        stats = ScavengeStats()
        scan_list: List[int] = []
        memory = self.access.memory

        for root in roots:
            value = root.get()
            if value != layout.NULL and self._in_young(value):
                root.set(self._forward(value, scan_list, stats))

        cursor = 0
        while cursor < len(scan_list):
            current = scan_list[cursor]
            cursor += 1
            for slot in self.access.ref_slot_addresses(current):
                value = memory.read(slot)
                if value != layout.NULL and self._in_young(value):
                    memory.write(slot, self._forward(value, scan_list, stats))

        # Recycle: eden empties, the survivor halves swap roles.
        self.eden.reset()
        self.from_space.reset()
        return stats
