"""The Espresso VM facade.

This is the programmer-visible surface of the managed runtime: class
definition, ``new``/``pnew`` allocation, field and array access with write
barriers, type checks with alias-Klass awareness, strings, and GC entry
points.  The persistent side (PJH) plugs in through the
:class:`PersistentSpaceService` protocol so that :mod:`repro.runtime` never
imports :mod:`repro.core`.

The ``pnew`` language keyword of the paper (§3.2) surfaces here as the
``pnew*`` methods: the paper's javac change is syntax only; the semantics —
allocate in the persistent space, resolve the class symbol to the *NVM*
Klass in the constant pool — are implemented faithfully.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Union

from repro.errors import (
    IllegalArgumentException,
    IllegalStateException,
    NullPointerException,
    OutOfMemoryError,
)
from repro.nvm.clock import Clock
from repro.nvm.device import AddressSpace
from repro.nvm.failpoints import FailpointRegistry
from repro.nvm.latency import DEFAULT_LATENCY, LatencyConfig
from repro.obs import NULL_OBS, Observatory
from repro.runtime import layout, typecheck
from repro.runtime.constant_pool import ConstantPool
from repro.runtime.dram_heap import HeapConfig, ParallelScavengeHeap
from repro.runtime.klass import (
    CHAR_ARRAY_KLASS_NAME,
    FieldDescriptor,
    FieldKind,
    Klass,
    OBJECT_KLASS_NAME,
    Residence,
    STRING_KLASS_NAME,
    array_klass_name,
    field,
    java_string_hash,
)
from repro.runtime.metaspace import KlassRegistry, Metaspace
from repro.runtime.objects import (
    HandleRoot,
    HandleTable,
    HeapAccess,
    MemoryRoot,
    ObjectHandle,
    RootSlot,
    bits_to_float,
    float_to_bits,
)
from repro.runtime.workers import WorkerPool

_INT64_MASK = (1 << 64) - 1


def _to_int64(value: int) -> int:
    """Wrap an arbitrary Python int into signed 64-bit range."""
    value &= _INT64_MASK
    return value - (1 << 64) if value >= (1 << 63) else value


FieldValue = Union[None, int, float, ObjectHandle]


class PersistentSpaceService:
    """What a persistent heap (PJH instance) exposes to the VM.

    Implemented by :class:`repro.core.heap_manager.PjhInstance`; defined here
    as a protocol-style base so the runtime stays independent of the core
    package.
    """

    name: str

    def contains(self, address: int) -> bool:
        raise NotImplementedError

    def data_space(self):
        raise NotImplementedError

    def allocate_instance(self, klass: Klass) -> int:
        raise NotImplementedError

    def allocate_array(self, klass: Klass, length: int) -> int:
        raise NotImplementedError

    def persistent_klass_for(self, volatile_klass: Klass) -> Klass:
        raise NotImplementedError

    def root_slots(self) -> Sequence[RootSlot]:
        raise NotImplementedError

    def on_ref_store(self, slot_address: int, value_address: int,
                     value_is_volatile: bool) -> None:
        """Safety-level enforcement hook for NVM->DRAM pointer stores."""

    def on_class_defined(self, klass: Klass) -> None:
        """Alias-link a freshly defined DRAM class with its NVM twin."""

    def on_ref_publish(self, slot_address: int, value_address: int) -> None:
        """Event-log tap: a PJH slot was just made to point at *value*."""


class EspressoVM:
    """A single "JVM" instance over simulated DRAM (plus attached PJH)."""

    def __init__(self, clock: Optional[Clock] = None,
                 latency: LatencyConfig = DEFAULT_LATENCY,
                 heap_config: HeapConfig = HeapConfig(),
                 alias_aware: bool = True,
                 obs: Observatory = NULL_OBS,
                 gc_workers: int = 1) -> None:
        self.clock = clock if clock is not None else Clock()
        self.obs = obs
        self.obs.bind_clock(self.clock)
        self.latency = latency
        # Simulated GC gang width: old GC (DRAM and PJH), recovery and
        # the zeroing load scan all fan out over this many workers.
        self.gc_workers = max(1, int(gc_workers))
        # Which mutator is executing right now: index into the PJH
        # allocation-buffer table.  The MutatorGang sets/restores it
        # around every interleave step; single-threaded sessions stay 0.
        self.current_mutator = 0
        # Per-mutator allocation-buffer size in words (EspressoConfig
        # knob; 0 disables buffering and restores per-object top flushes).
        self.alloc_buffer_words = 256
        # Analyzer-issued flush-elision certificate (repro.analysis):
        # installed onto every heap's persist domains at create/load time.
        self.elision_certificate = None
        self.failpoints = FailpointRegistry()
        self.memory = AddressSpace()
        self.registry = KlassRegistry()
        self.metaspace = Metaspace(self.registry)
        self.constant_pool = ConstantPool()
        self.heap = ParallelScavengeHeap(
            self.memory, self.registry, self.clock, latency, heap_config)
        self.access = HeapAccess(self.memory, self.registry)
        self.handles = HandleTable()
        self.alias_aware = alias_aware

        # Remembered sets maintained by the write barrier (slot addresses).
        self._remset_into_young: Set[int] = set()
        self._remset_dram_to_pjh: Set[int] = set()
        self._remset_pjh_to_dram: Set[int] = set()

        self._services: Dict[str, PersistentSpaceService] = {}
        self._current_service: Optional[PersistentSpaceService] = None

        self.barrier_checks = 0
        # Always 0; kept because the perf ledger (bench-ledger/metrics.py
        # VM_COUNTERS) reads it in every workload.
        self.barrier_elided = 0
        # While >0, a heap's event log needs publish events, so the
        # ref-store barrier reports PJH-to-PJH stores to on_ref_publish.
        self._publish_taps = 0

        # Bootstrap klasses.
        self.object_klass = self.define_class(OBJECT_KLASS_NAME)
        self.string_klass = self.define_class(
            STRING_KLASS_NAME,
            [field("value", FieldKind.REF,
                   declared=CHAR_ARRAY_KLASS_NAME),
             field("hash", FieldKind.INT)])
        self.char_array_klass = self.array_klass(FieldKind.INT)

    # ==================================================================
    # Class definition and resolution
    # ==================================================================
    def define_class(self, name: str,
                     fields: Sequence[FieldDescriptor] = (),
                     super_klass: Optional[Klass] = None) -> Klass:
        """Define a (DRAM) class; its NVM alias is created lazily by pnew."""
        if super_klass is None and name != OBJECT_KLASS_NAME:
            super_klass = self.metaspace.lookup(OBJECT_KLASS_NAME)
        klass = Klass(name, fields, super_klass, Residence.DRAM)
        self.metaspace.add(klass)
        for service in self._services.values():
            service.on_class_defined(klass)
        return klass

    def array_klass(self, element: Union[Klass, FieldKind]) -> Klass:
        """The DRAM array klass for the given element type (cached)."""
        name = array_klass_name(element)
        existing = self.metaspace.lookup(name)
        if existing is not None:
            return existing
        if isinstance(element, Klass):
            klass = Klass(name, super_klass=self.metaspace.lookup(OBJECT_KLASS_NAME),
                          is_array=True, element_kind=FieldKind.REF,
                          element_klass=element)
        else:
            klass = Klass(name, super_klass=self.metaspace.lookup(OBJECT_KLASS_NAME),
                          is_array=True, element_kind=element)
        self.metaspace.add(klass)
        for service in self._services.values():
            service.on_class_defined(klass)
        return klass

    def lookup_class(self, name: str) -> Klass:
        klass = self.metaspace.lookup(name)
        if klass is None:
            raise IllegalArgumentException(f"unknown class {name!r}")
        return klass

    # ==================================================================
    # Persistent space attachment
    # ==================================================================
    def attach_persistent_space(self, service: PersistentSpaceService) -> None:
        self._services[service.name] = service
        self._current_service = service

    def detach_persistent_space(self, service: PersistentSpaceService) -> None:
        self._services.pop(service.name, None)
        if self._current_service is service:
            self._current_service = next(iter(self._services.values()), None)

    def current_persistent_space(self) -> PersistentSpaceService:
        if self._current_service is None:
            raise IllegalStateException(
                "no persistent heap attached; call createHeap/loadHeap first")
        return self._current_service

    def in_pjh(self, address: int) -> bool:
        return any(s.contains(address) for s in self._services.values())

    def service_of(self, address: int) -> Optional[PersistentSpaceService]:
        for service in self._services.values():
            if service.contains(address):
                return service
        return None

    # ==================================================================
    # Allocation
    # ==================================================================
    def _allocate_dram(self, size_words: int) -> int:
        address = self.heap.allocate_young(size_words)
        if address is not None:
            return address
        self.young_gc()
        address = self.heap.allocate_young(size_words)
        if address is not None:
            return address
        address = self.heap.allocate_old(size_words)
        if address is not None:
            return address
        self.full_gc()
        address = self.heap.allocate_old(size_words)
        if address is None:
            address = self.heap.allocate_young(size_words)
        if address is None:
            raise OutOfMemoryError(
                f"DRAM heap cannot satisfy {size_words}-word allocation")
        return address

    def handle(self, address: int) -> ObjectHandle:
        """Wrap a raw address in a GC-safe handle."""
        return ObjectHandle(self.handles, address)

    def new(self, klass: Union[Klass, str]) -> ObjectHandle:
        """``new``: allocate an instance in the normal Java heap."""
        if isinstance(klass, str):
            klass = self.lookup_class(klass)
        self.constant_pool.resolve(klass.name, klass)
        address = self._allocate_dram(klass.instance_words)
        self.access.init_instance(address, klass)
        self.clock.charge(self.latency.cpu_op_ns * 2)
        return self.handle(address)

    def new_array(self, element: Union[Klass, FieldKind],
                  length: int) -> ObjectHandle:
        klass = self.array_klass(element)
        address = self._allocate_dram(klass.array_words(length))
        self.access.init_array(address, klass, length)
        return self.handle(address)

    def new_string(self, text: str) -> ObjectHandle:
        chars = self.new_array(FieldKind.INT, len(text))
        for i, ch in enumerate(text):
            self.array_set(chars, i, ord(ch))
        string = self.new(self.string_klass)
        self.set_field(string, "value", chars)
        self.set_field(string, "hash", java_string_hash(text))
        return string

    # -- pnew --------------------------------------------------------------
    def pnew(self, klass: Union[Klass, str],
             heap: Optional[str] = None) -> ObjectHandle:
        """``pnew``: allocate an instance in the persistent Java heap."""
        if isinstance(klass, str):
            klass = self.lookup_class(klass)
        service = self._service_for(heap)
        pklass = service.persistent_klass_for(klass)
        # The constant-pool slot now holds the NVM Klass — the behaviour
        # that makes alias checking necessary (paper Figure 10).
        self.constant_pool.resolve(pklass.name, pklass)
        address = service.allocate_instance(pklass)
        return self.handle(address)

    def pnew_array(self, element: Union[Klass, FieldKind], length: int,
                   heap: Optional[str] = None) -> ObjectHandle:
        service = self._service_for(heap)
        volatile_klass = self.array_klass(element)
        pklass = service.persistent_klass_for(volatile_klass)
        self.constant_pool.resolve(pklass.name, pklass)
        address = service.allocate_array(pklass, length)
        return self.handle(address)

    def new_multi_array(self, element: Union[Klass, FieldKind],
                        dims: Sequence[int]) -> ObjectHandle:
        """multianewarray: nested arrays, outermost dimension first."""
        return self._multi_array(element, list(dims), persistent=False)

    def pnew_multi_array(self, element: Union[Klass, FieldKind],
                         dims: Sequence[int],
                         heap: Optional[str] = None) -> ObjectHandle:
        """pmultianewarray (paper §3.2): the persistent counterpart."""
        return self._multi_array(element, list(dims), persistent=True,
                                 heap=heap)

    def _multi_array(self, element: Union[Klass, FieldKind],
                     dims, persistent: bool,
                     heap: Optional[str] = None) -> ObjectHandle:
        if not dims:
            raise IllegalArgumentException("multianewarray needs dimensions")
        if len(dims) == 1:
            if persistent:
                return self.pnew_array(element, dims[0], heap)
            return self.new_array(element, dims[0])
        # Outer dimensions are arrays of arrays (Object[] slots).
        outer = (self.pnew_array(self.object_klass, dims[0], heap)
                 if persistent else self.new_array(self.object_klass,
                                                   dims[0]))
        for i in range(dims[0]):
            inner = self._multi_array(element, dims[1:], persistent, heap)
            self.array_set(outer, i, inner)
        return outer

    def pnew_string(self, text: str, heap: Optional[str] = None) -> ObjectHandle:
        chars = self.pnew_array(FieldKind.INT, len(text), heap)
        for i, ch in enumerate(text):
            self.array_set(chars, i, ord(ch))
        service = self._service_for(heap)
        pklass = service.persistent_klass_for(self.string_klass)
        self.constant_pool.resolve(pklass.name, pklass)
        address = service.allocate_instance(pklass)
        string = self.handle(address)
        self.set_field(string, "value", chars)
        self.set_field(string, "hash", java_string_hash(text))
        return string

    def _service_for(self, heap: Optional[str]) -> PersistentSpaceService:
        if heap is None:
            return self.current_persistent_space()
        try:
            return self._services[heap]
        except KeyError:
            raise IllegalStateException(f"heap {heap!r} is not loaded") from None

    # ==================================================================
    # Field and array access (with write barrier)
    # ==================================================================
    @staticmethod
    def _require(handle: Optional[ObjectHandle]) -> ObjectHandle:
        if handle is None:
            raise NullPointerException("null dereference")
        return handle

    def klass_of(self, handle: ObjectHandle) -> Klass:
        return self.access.klass_of(self._require(handle).address)

    def _word_for(self, kind: FieldKind, value: FieldValue) -> int:
        if kind is FieldKind.REF:
            if value is None:
                return layout.NULL
            if isinstance(value, ObjectHandle):
                return value.address
            raise IllegalArgumentException(
                f"reference field expects a handle or None, got {value!r}")
        if kind is FieldKind.INT:
            if isinstance(value, bool) or not isinstance(value, int):
                raise IllegalArgumentException(
                    f"int field expects an int, got {value!r}")
            return _to_int64(value)
        if kind is FieldKind.FLOAT:
            if not isinstance(value, (int, float)):
                raise IllegalArgumentException(
                    f"float field expects a number, got {value!r}")
            return float_to_bits(float(value))
        raise IllegalArgumentException(f"unsupported kind {kind}")

    def _value_for(self, kind: FieldKind, word: int) -> FieldValue:
        if kind is FieldKind.REF:
            return None if word == layout.NULL else self.handle(word)
        if kind is FieldKind.FLOAT:
            return bits_to_float(word)
        return word

    def _ref_store_barrier(self, slot_address: int, holder_address: int,
                           value_address: int) -> None:
        """Classify the store and maintain remsets + safety policy."""
        if value_address == layout.NULL:
            return
        holder_in_young = self.heap.in_young(holder_address)
        holder_in_dram = holder_in_young or self.heap.in_heap(holder_address)
        value_in_young = self.heap.in_young(value_address)
        value_in_dram = value_in_young or self.heap.in_heap(value_address)
        if value_in_young and not holder_in_young:
            self._remset_into_young.add(slot_address)
        if not value_in_dram and holder_in_dram and self.in_pjh(value_address):
            self._remset_dram_to_pjh.add(slot_address)
        if value_in_dram and not holder_in_dram:
            service = self.service_of(holder_address)
            if service is not None:
                service.on_ref_store(slot_address, value_address, True)
                self._remset_pjh_to_dram.add(slot_address)
        if self._publish_taps and not value_in_dram and not holder_in_dram:
            service = self.service_of(holder_address)
            if service is not None:
                service.on_ref_publish(slot_address, value_address)

    def set_field(self, handle: ObjectHandle, name: str,
                  value: FieldValue) -> None:
        address = self._require(handle).address
        klass = self.access.klass_of(address)
        descriptor = klass.field_descriptor(name)
        offset = klass.field_offset(name)
        word = self._word_for(descriptor.kind, value)
        self.access.set_field_word(address, offset, word)
        if descriptor.kind is FieldKind.REF:
            self.barrier_checks += 1
            self._ref_store_barrier(address + offset, address, word)

    def get_field(self, handle: ObjectHandle, name: str) -> FieldValue:
        address = self._require(handle).address
        klass = self.access.klass_of(address)
        descriptor = klass.field_descriptor(name)
        word = self.access.field_word(address, klass.field_offset(name))
        return self._value_for(descriptor.kind, word)

    def array_length(self, handle: ObjectHandle) -> int:
        return self.access.array_length(self._require(handle).address)

    def array_set(self, handle: ObjectHandle, index: int,
                  value: FieldValue) -> None:
        address = self._require(handle).address
        klass = self.access.klass_of(address)
        if not klass.is_array:
            raise IllegalArgumentException(f"{klass.name} is not an array")
        slot = self.access.element_slot(address, index)
        word = self._word_for(klass.element_kind, value)
        self.memory.write(slot, word)
        if klass.element_kind is FieldKind.REF:
            self.barrier_checks += 1
            self._ref_store_barrier(slot, address, word)

    def array_get(self, handle: ObjectHandle, index: int) -> FieldValue:
        address = self._require(handle).address
        klass = self.access.klass_of(address)
        if not klass.is_array:
            raise IllegalArgumentException(f"{klass.name} is not an array")
        slot = self.access.element_slot(address, index)
        return self._value_for(klass.element_kind, self.memory.read(slot))

    def array_copy(self, src: ObjectHandle, src_pos: int,
                   dst: ObjectHandle, dst_pos: int, length: int) -> None:
        """System.arraycopy: bulk element copy with barrier maintenance.

        Same-array overlapping copies behave like memmove (the block read
        snapshots the source before any write).
        """
        src_address = self._require(src).address
        dst_address = self._require(dst).address
        src_klass = self.access.klass_of(src_address)
        dst_klass = self.access.klass_of(dst_address)
        if not src_klass.is_array or not dst_klass.is_array:
            raise IllegalArgumentException("array_copy needs arrays")
        if src_klass.element_kind is not dst_klass.element_kind:
            raise IllegalArgumentException(
                f"element kind mismatch: {src_klass.name} -> {dst_klass.name}")
        if length < 0:
            raise IllegalArgumentException(f"negative length {length}")
        if length == 0:
            return
        # Bounds via element_slot on the first and last elements.
        self.access.element_slot(src_address, src_pos)
        self.access.element_slot(src_address, src_pos + length - 1)
        first_dst = self.access.element_slot(dst_address, dst_pos)
        self.access.element_slot(dst_address, dst_pos + length - 1)
        words = self.memory.read_block(
            src_address + layout.ARRAY_HEADER_WORDS + src_pos, length)
        self.memory.write_block(first_dst, words)
        if dst_klass.element_kind is FieldKind.REF:
            self.barrier_checks += length
            for i in range(length):
                self._ref_store_barrier(first_dst + i, dst_address,
                                        int(words[i]))

    def read_string(self, handle: ObjectHandle) -> str:
        value = self.get_field(self._require(handle), "value")
        if value is None:
            raise NullPointerException("string with null value array")
        length = self.array_length(value)
        return "".join(chr(self.array_get(value, i)) for i in range(length))

    # ==================================================================
    # Type checks
    # ==================================================================
    def instance_of(self, handle: ObjectHandle,
                    target: Union[Klass, str]) -> bool:
        target_klass = self._resolve_target(target)
        return typecheck.is_instance_of(
            self.klass_of(handle), target_klass, self.alias_aware)

    def checkcast(self, handle: ObjectHandle,
                  target: Union[Klass, str]) -> ObjectHandle:
        target_klass = self._resolve_target(target)
        typecheck.checkcast(self.klass_of(handle), target_klass,
                            self.alias_aware)
        return handle

    def _resolve_target(self, target: Union[Klass, str]) -> Klass:
        if isinstance(target, Klass):
            return target
        resolved = self.constant_pool.resolved_slot(target)
        if resolved is not None:
            return resolved
        return self.constant_pool.resolve(target, self.lookup_class(target))

    # ==================================================================
    # Garbage collection
    # ==================================================================
    def _handle_roots(self) -> List[RootSlot]:
        return [HandleRoot(self.handles, i)
                for i in self.handles.live_indices()]

    def _pjh_root_slots(self) -> List[RootSlot]:
        slots: List[RootSlot] = []
        for service in self._services.values():
            slots.extend(service.root_slots())
        return slots

    def _memory_roots(self, slot_addresses: Set[int]) -> List[RootSlot]:
        return [MemoryRoot(self.memory, s) for s in sorted(slot_addresses)]

    def young_gc(self) -> None:
        with self.obs.span("gc.young"):
            roots = (self._handle_roots() + self._pjh_root_slots()
                     + self._memory_roots(self._remset_into_young))
            old_top_before = self.heap.old.top
            self.heap.young_collect(roots)
            self._rebuild_remsets_after_young_gc(old_top_before)
        self.obs.inc("gc.young.collections")

    def full_gc(self) -> None:
        with self.obs.span("gc.full"):
            roots = (self._handle_roots() + self._pjh_root_slots()
                     + self._memory_roots(self._remset_pjh_to_dram))
            self.heap.full_collect(roots, pool=self.gang("gc"))
            self._rebuild_remsets_after_full_gc()
        self.obs.inc("gc.full.collections")

    def gang(self, label: str,
             workers: Optional[int] = None) -> Optional[WorkerPool]:
        """A fresh :class:`~repro.runtime.workers.WorkerPool` of *workers*
        simulated threads (default ``gc_workers``) on this VM's clock and
        observatory — or ``None`` at width 1, where every caller keeps
        its exact serial path.
        """
        width = self.gc_workers if workers is None else workers
        if width <= 1:
            return None
        return WorkerPool(self.clock, width, obs=self.obs, label=label)

    def _scan_object_for_remsets(self, address: int) -> None:
        for slot in self.access.ref_slot_addresses(address):
            value = self.memory.read(slot)
            if value == layout.NULL:
                continue
            if self.heap.in_young(value):
                self._remset_into_young.add(slot)
            elif not self.heap.in_heap(value) and self.in_pjh(value):
                self._remset_dram_to_pjh.add(slot)

    def _rebuild_remsets_after_young_gc(self, old_top_before: int) -> None:
        in_young = self.heap.in_young
        in_heap = self.heap.in_heap

        def slot_survives(slot: int) -> bool:
            return not in_young(slot) and in_heap(slot) or self.in_pjh(slot)

        self._remset_into_young = {
            s for s in self._remset_into_young
            if slot_survives(s) and in_young(self.memory.read(s))}
        self._remset_dram_to_pjh = {
            s for s in self._remset_dram_to_pjh if not in_young(s)}
        # Survivors moved into from_space (post-swap) and the promoted range:
        # re-scan them for young/PJH targets.
        survivor = self.heap.from_space
        cursor = survivor.base
        while cursor < survivor.top:
            self._scan_object_for_remsets(cursor)
            cursor += self.access.object_words(cursor)
        cursor = old_top_before
        while cursor < self.heap.old.top:
            self._scan_object_for_remsets(cursor)
            cursor += self.access.object_words(cursor)

    def _rebuild_remsets_after_full_gc(self) -> None:
        self._remset_into_young = set()
        self._remset_dram_to_pjh = set()
        for address in self.heap.walk_old():
            self._scan_object_for_remsets(address)

    def rebuild_pjh_to_dram_remset(self, walk_addresses, pool=None) -> None:
        """Called by the persistent GC after it moves PJH objects.

        Read-only, so with a :class:`~repro.runtime.workers.WorkerPool`
        the scan partitions over the gang; the resulting slot set is
        order-independent.
        """
        self._remset_pjh_to_dram = set()

        def scan(address: int) -> None:
            for slot in self.access.ref_slot_addresses(address):
                value = self.memory.read(slot)
                if value != layout.NULL and self.heap.in_heap(value):
                    self._remset_pjh_to_dram.add(slot)

        if pool is not None and pool.parallel:
            pool.run_partitioned(list(walk_addresses), scan, phase="remset")
        else:
            for address in walk_addresses:
                scan(address)

    def dram_remset_roots(self) -> List[RootSlot]:
        """Roots into PJH held by DRAM objects (for the persistent GC)."""
        return self._memory_roots(self._remset_dram_to_pjh)

    def gc_roots_for_persistent(self) -> List[RootSlot]:
        return self._handle_roots() + self.dram_remset_roots()
