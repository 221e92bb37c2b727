"""Heap management APIs: createHeap / loadHeap / existsHeap (paper Table 1).

The manager owns the external name manager (name -> durable image), mounts
PJH devices into the VM's address space at their *address hint*, and drives
the load pipeline of §3.3/§4.3:

    map (or remap) -> class reinitialisation in place -> recovery (if the
    heap is flagged mid-GC) -> truncation of a torn trailing allocation ->
    zeroing scan (if the heap uses zeroing safety) -> attach to the VM.

Remapping — the paper's "thorough scan ... to update pointers" when the
address hint is occupied — is implemented for clean heaps; a heap that is
both mid-collection *and* displaced cannot be remapped (load it in a fresh
VM where its hint is free), which mirrors the paper's observation that
remap "may rarely happen thanks to the large virtual address space".
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    CorruptHeapError,
    HeapCorruptionError,
    HeapExistsError,
    HeapNotFoundError,
    IllegalStateException,
)
from repro.nvm.device import NvmDevice
from repro.nvm.namespace import NameManager
from repro.nvm.publish import publish_point
from repro.runtime import layout as obj_layout
from repro.runtime.objects import ObjectHandle
from repro.runtime.vm import EspressoVM

from repro.core.metadata import MetadataArea, plan_layout
from repro.core.persistent_heap import PersistentHeap
from repro.core.recovery import (
    FrameRecoveryReport,
    RecoveryReport,
    recover,
    recover_frames,
)
from repro.core.safety import SafetyLevel, policy_for

# PJH instances are mapped high, far above the DRAM heap, so that the
# address hint is almost always free on reload (the 64-bit-OS argument).
PJH_BASE_START = 0x2000_0000

WORD_BYTES = 8


@dataclass
class LoadReport:
    """What happened during loadHeap (feeds Figure 18 and the tests)."""

    heap_name: str = ""
    remapped: bool = False
    klasses_reinitialized: int = 0
    recovery: RecoveryReport = dc_field(default_factory=RecoveryReport)
    frame_recovery: FrameRecoveryReport = dc_field(
        default_factory=FrameRecoveryReport)
    truncated_words: int = 0
    nullified_pointers: int = 0
    load_ns: float = 0.0
    # Integrity accounting (checksummed-load path).
    regions_verified: List[str] = dc_field(default_factory=list)
    discarded_entries: List[Tuple[int, str]] = dc_field(default_factory=list)
    salvaged_roots: int = 0


class HeapManager:
    """createHeap/loadHeap/existsHeap/setRoot/getRoot for one VM."""

    def __init__(self, vm: EspressoVM, heap_dir) -> None:
        self.vm = vm
        self.names = NameManager(heap_dir)
        self._mounted: Dict[str, PersistentHeap] = {}
        # Device of the most recent load attempt that failed mid-phase
        # (e.g. a SimulatedCrash inside recovery); its durable image is
        # what a real machine would reboot from.
        self._last_load_device: Optional[NvmDevice] = None

    def _type_registry(self):
        """The owning session's @persistent_type registry (may be None)."""
        return getattr(self.vm, "persistent_types", None)

    # ------------------------------------------------------------------
    # Table 1 APIs
    # ------------------------------------------------------------------
    def exists_heap(self, name: str) -> bool:
        return self.names.exists(name) or name in self._mounted

    def create_heap(self, name: str, size_bytes: int,
                    safety: SafetyLevel = SafetyLevel.USER_GUARANTEED,
                    region_words: int = 1024) -> PersistentHeap:
        if self.exists_heap(name):
            raise HeapExistsError(f"heap {name!r} already exists")
        size_words = size_bytes // WORD_BYTES
        with self.vm.obs.span("heap.create", heap=name,
                              size_words=size_words):
            heap_layout = plan_layout(size_words, region_words)
            base = self.vm.memory.find_free_base(size_words,
                                                 start=PJH_BASE_START)
            device = NvmDevice(size_words, self.vm.clock, self.vm.latency,
                               name=f"pjh:{name}")
            self.vm.memory.map(base, device)
            self.names.register(name, size_words, base)
            heap = PersistentHeap(
                name, self.vm, device, base,
                safety=policy_for(safety, self._type_registry()))
            heap.initialize_fresh(heap_layout)
            self.vm.attach_persistent_space(heap)
            self._mounted[name] = heap
        self.vm.obs.register_device(f"pjh:{name}", device)
        return heap

    def load_heap(self, name: str,
                  safety: SafetyLevel = SafetyLevel.USER_GUARANTEED,
                  salvage: bool = False) -> PersistentHeap:
        heap, _report = self.load_heap_with_report(name, safety, salvage)
        return heap

    def load_heap_with_report(self, name: str,
                              safety: SafetyLevel = SafetyLevel.USER_GUARANTEED,
                              salvage: bool = False):
        """Mount a durable image, verifying integrity phase by phase.

        Each load phase runs under a named region (and a matching
        ``heap.load.<region>`` tracing span); an unexpected decode
        error surfaces as :class:`CorruptHeapError` naming that region
        instead of an arbitrary exception.  Name-table entries with bad
        checksums are fatal by default; with ``salvage=True`` they are
        discarded and reported in the :class:`LoadReport` and the clean
        entries (roots included) stay usable.
        """
        obs = self.vm.obs
        with obs.span("heap.load", heap=name, salvage=salvage):
            heap, report = self._load_with_report(name, safety, salvage)
        obs.register_device(f"pjh:{name}", heap.device)
        if report.discarded_entries:
            obs.inc("heap.load.discarded_entries",
                    len(report.discarded_entries))
        obs.observe("heap.load_ns", report.load_ns)
        return heap, report

    def _load_with_report(self, name: str, safety: SafetyLevel,
                          salvage: bool):
        if name in self._mounted:
            raise IllegalStateException(f"heap {name!r} is already loaded")
        if not self.names.exists(name):
            raise HeapNotFoundError(f"no heap named {name!r}")
        report = LoadReport(heap_name=name)
        start_ns = self.vm.clock.now_ns

        size_words = self.names.attributes(name)["size_words"]
        device = NvmDevice(size_words, self.vm.clock, self.vm.latency,
                           name=f"pjh:{name}")
        device.load_image(self.names.load_image(name))
        with self.vm.obs.span("heap.load.metadata"):
            probe = MetadataArea(device)
            probe.validate()
        report.regions_verified.append("metadata")
        hint = probe.address_hint

        if self.vm.memory.is_free(hint, size_words):
            base = hint
        else:
            base = self.vm.memory.find_free_base(size_words,
                                                 start=PJH_BASE_START)
            report.remapped = True
        self.vm.memory.map(base, device)
        heap = PersistentHeap(
            name, self.vm, device, base,
            safety=policy_for(safety, self._type_registry()))

        # Exceptions that carry meaning of their own and must not be
        # re-labelled as corruption.
        from repro.errors import SimulatedCrash
        passthrough = (HeapCorruptionError, SimulatedCrash,
                       IllegalStateException, HeapNotFoundError,
                       HeapExistsError, KeyboardInterrupt)

        def phase(region, fn):
            with self.vm.obs.span(f"heap.load.{region}"):
                try:
                    result = fn()
                except passthrough:
                    raise
                except Exception as exc:
                    raise CorruptHeapError(
                        region, f"{type(exc).__name__}: {exc}") from exc
            report.regions_verified.append(region)
            return result

        try:
            if report.remapped:
                if probe.gc_in_progress:
                    raise IllegalStateException(
                        f"heap {name!r} needs recovery but its address hint "
                        f"{hint:#x} is occupied; load it in a fresh VM")
                phase("remap", lambda: _remap_pointers(
                    heap, old_base=hint, new_base=base))

            phase("name-table", heap.mount_existing)
            corrupt = heap.name_table.corrupt_entries
            if corrupt:
                if not salvage:
                    index, reason = corrupt[0]
                    raise CorruptHeapError(
                        f"name_table.entry[{index}]", reason)
                report.discarded_entries = list(corrupt)
            from repro.core.name_table import ENTRY_TYPE_ROOT
            report.salvaged_roots = sum(
                1 for _ in heap.name_table.entries(ENTRY_TYPE_ROOT))

            report.klasses_reinitialized = phase(
                "klass-segment",
                lambda: heap.klass_segment.reinitialize_all(self.vm.metaspace))
            report.recovery = phase("gc-recovery", lambda: recover(heap))
            report.frame_recovery = phase(
                "frame-recovery", lambda: recover_frames(heap))
            report.truncated_words = phase(
                "data-heap", heap.validate_and_truncate)
            if heap.safety.scan_on_load():
                # The fig18 path: the scan fans out over the session's
                # gc_workers gang (a no-op gang of one by default).
                report.nullified_pointers = phase(
                    "zeroing-scan",
                    lambda: heap.zeroing_scan(workers=self.vm.gc_workers))
        except BaseException:
            # Keep a handle to the partially-recovered device: a crash
            # *during recovery* must be resumable, so the caller can save
            # this device's durable image and load again (the
            # crash-during-recovery sweeps exercise exactly this).
            self._last_load_device = device
            self.vm.memory.unmap(device)
            raise
        if report.remapped:
            self.names.update_address_hint(name, base)

        self.vm.attach_persistent_space(heap)
        self._mounted[name] = heap
        report.load_ns = self.vm.clock.now_ns - start_ns
        return heap, report

    @publish_point("fleet-routed root binding")
    def set_root(self, root_name: str, value: Optional[ObjectHandle],
                 heap: Optional[str] = None) -> None:
        """Mark an object as a named entry point (paper Table 1 setRoot)."""
        address = obj_layout.NULL if value is None else value.address
        target = self._route(address, heap)
        target.set_root(root_name, address)

    def get_root(self, root_name: str,
                 heap: Optional[str] = None) -> Optional[ObjectHandle]:
        """Fetch a root object; the caller is responsible for type casting
        (the return is an untyped handle, like the paper's ``Object``)."""
        if heap is not None:
            heaps = [self._heap(heap)]
        else:
            heaps = list(self._mounted.values())
        for candidate in heaps:
            value = candidate.get_root(root_name)
            if value is not None:
                return self.vm.handle(value)
        return None

    # ------------------------------------------------------------------
    # Lifecycle beyond the paper's API (save / crash / unload)
    # ------------------------------------------------------------------
    def heap(self, name: str) -> PersistentHeap:
        return self._heap(name)

    def _heap(self, name: str) -> PersistentHeap:
        try:
            return self._mounted[name]
        except KeyError:
            raise HeapNotFoundError(f"heap {name!r} is not loaded") from None

    def _route(self, address: int, heap: Optional[str]) -> PersistentHeap:
        if heap is not None:
            return self._heap(heap)
        if address != obj_layout.NULL:
            for candidate in self._mounted.values():
                if candidate.in_heap_range(address):
                    return candidate
        service = self.vm.current_persistent_space()
        if isinstance(service, PersistentHeap):
            return service
        raise IllegalStateException("no PJH instance to route the root to")

    def save_heap(self, name: str) -> None:
        """Graceful persist: flush all dirty lines, then store the image."""
        heap = self._heap(name)
        # Retire live allocation buffers first so the saved image is
        # canonical: the topmost tail truncates back, interior tails
        # become int[] fillers, and the buffer table empties.
        heap._retire_all_buffers()
        heap.device.persist_all()
        self.names.save_image(name, heap.device.durable_image())

    def crash_heap(self, name: str) -> None:
        """Power-loss simulation: unflushed lines vanish, image is saved."""
        heap = self._heap(name)
        heap.device.crash()
        self.names.save_image(name, heap.device.durable_image())

    def unload_heap(self, name: str, crash: bool = False) -> None:
        heap = self._heap(name)
        with self.vm.obs.span("heap.unload", heap=name, crash=crash):
            if crash:
                self.crash_heap(name)
            else:
                self.save_heap(name)
            self.vm.detach_persistent_space(heap)
            self.vm.memory.unmap(heap.device)
            del self._mounted[name]

    def remove_heap(self, name: str) -> None:
        if name in self._mounted:
            heap = self._mounted.pop(name)
            self.vm.detach_persistent_space(heap)
            self.vm.memory.unmap(heap.device)
        if self.names.exists(name):
            self.names.remove(name)

    def mounted_names(self):
        return sorted(self._mounted)


# ----------------------------------------------------------------------
# Remap: rewrite every internal pointer by the relocation delta (§3.3)
# ----------------------------------------------------------------------
def _remap_pointers(heap: PersistentHeap, old_base: int, new_base: int) -> None:
    """Rewrite all pointers of a *clean* heap after relocation: name-table
    values, then Klass records (so the Klasses register at their new
    addresses), then every object the heap parses, then top and hints."""
    from repro.core.klass_segment import KlassSegment
    from repro.core.name_table import NameTable

    metadata, vm = heap.metadata, heap.vm
    layout = metadata.layout()
    delta = new_base - old_base

    def old(value: int) -> bool:
        return old_base <= value < old_base + layout.size_words

    def shift(address: int) -> None:
        value = vm.memory.read(address)
        if old(value):
            vm.memory.write(address, value + delta)

    names = NameTable(heap.device, metadata, layout.name_table_offset,
                      layout.name_table_capacity, new_base, vm.memory)
    for _name, _value, index in names.entries():
        shift(names.value_slot_address(index))
    klasses = KlassSegment(heap.device, metadata, names, new_base,
                           vm.registry)
    klasses.relocate(shift)
    klasses.reinitialize_all(vm.metaspace)

    # Crashed allocation-buffer claims (data-relative table entries).
    data = new_base + layout.data_offset
    windows = [(data + start, data + start + extent)
               for _slot, start, extent in metadata.alloc_buffer_entries()]
    start, top = data, metadata.top + delta
    while start < top:
        for address, klass, _size in heap.parse(
                start, top, lambda word: vm.registry.find(word + delta)
                if old(word) else None):
            if klass is None:
                break
            vm.access.set_klass(address, klass)
            for slot in vm.access.ref_slot_addresses(address):
                shift(slot)
        else:
            break  # parsed to top
        word = vm.access.klass_pointer(address)
        if word:
            raise CorruptHeapError("remap", f"object @{address:#x} (klass "
                                            f"word {word:#x}) does not parse")
        # A zero header inside a claim window starts the window's unused
        # tail; anywhere else nothing durable lies above it.
        start = next((end for begin, end in windows
                      if begin <= address < end), top)

    metadata.set_top(top)
    metadata.set_alloc_scan_hint(metadata.alloc_scan_hint + delta)
    metadata.set_address_hint(new_base)
    heap.device.persist_all()
