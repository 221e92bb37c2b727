"""Field-level persistence APIs (paper §3.5, Figure 12).

``pnew`` only allocates; making application *data* durable is explicit.
The paper adds three APIs, all reproduced here:

* ``Field.flush(obj)`` -> :func:`flush_field` — persist one field
  (work set capped at 8 bytes = one word, preserving atomicity), with an
  sfence to preserve ordering;
* ``Array.flush(arr, i)`` -> :func:`flush_array_element` — same for one
  array element;
* ``Object.flush()`` -> :func:`flush_object` — flush every data field with
  a single sfence at the end, for when intra-object ordering is irrelevant.

:func:`flush_reachable` is the "advanced feature" the paper notes "can be
easily implemented with those basic methods": transitively persist
everything reachable from an object within the same PJH.
"""

from __future__ import annotations

from typing import NamedTuple, Set

from repro.errors import IllegalStateException
from repro.runtime import layout as obj_layout
from repro.runtime.objects import ObjectHandle
from repro.runtime.vm import EspressoVM


class FlushReport(NamedTuple):
    """What a reachability flush actually did.

    ``lines`` counts distinct cache lines enqueued — adjacent small objects
    share lines, so it is usually smaller than objects x words-per-object.
    """

    objects: int
    lines: int


def _heap_of(vm: EspressoVM, handle: ObjectHandle):
    service = vm.service_of(handle.address)
    if service is None:
        raise IllegalStateException(
            f"object @{handle.address:#x} is not in a persistent heap")
    return service


def flush_field(vm: EspressoVM, handle: ObjectHandle, field_name: str) -> None:
    """Persist one field of a persistent object (8-byte work set + sfence)."""
    heap = _heap_of(vm, handle)
    klass = vm.access.klass_of(handle.address)
    offset = klass.field_offset(field_name)
    heap.flush_words(handle.address + offset, 1, fence=True)


def flush_array_element(vm: EspressoVM, handle: ObjectHandle,
                        index: int) -> None:
    """Persist one element of a persistent array (8 bytes + sfence)."""
    heap = _heap_of(vm, handle)
    slot = vm.access.element_slot(handle.address, index)
    heap.flush_words(slot, 1, fence=True)


def flush_object(vm: EspressoVM, handle: ObjectHandle) -> None:
    """Persist every data field of the object; one sfence at the end."""
    heap = _heap_of(vm, handle)
    size = vm.access.object_words(handle.address)
    heap.flush_words(handle.address, size, fence=True)


class ReflectedField:
    """The paper's Figure 12 reflection object: ``Field f = x.getClass()
    .getDeclaredField("id"); f.flush(x)``.  Holds a (klass, field) pair and
    flushes that field of any instance — an 8-byte work set + sfence."""

    def __init__(self, vm: EspressoVM, klass, field_name: str) -> None:
        self.vm = vm
        self.klass = klass
        self.name = field_name
        self.offset = klass.field_offset(field_name)  # raises if absent

    def flush(self, handle: ObjectHandle) -> None:
        heap = _heap_of(self.vm, handle)
        heap.flush_words(handle.address + self.offset, 1, fence=True)

    def get(self, handle: ObjectHandle):
        return self.vm.get_field(handle, self.name)

    def set(self, handle: ObjectHandle, value) -> None:
        self.vm.set_field(handle, self.name, value)


def get_declared_field(vm: EspressoVM, handle: ObjectHandle,
                       field_name: str) -> ReflectedField:
    """``x.getClass().getDeclaredField(name)`` for the Figure 12 pattern."""
    return ReflectedField(vm, vm.klass_of(handle), field_name)


def flush_reachable(vm: EspressoVM, handle: ObjectHandle) -> FlushReport:
    """Transitively flush everything reachable within the same PJH.

    The whole traversal is one fence epoch: each cache line is flushed at
    most once even when adjacent small objects share lines, and a single
    fence at the end makes the closure durable.  Returns a
    :class:`FlushReport` with both object and line counts.
    """
    heap = _heap_of(vm, handle)
    seen: Set[int] = set()
    lines = 0
    stack = [handle.address]
    while stack:
        address = stack.pop()
        if address in seen or not heap.contains(address):
            continue
        seen.add(address)
        lines += heap.flush_words(
            address, vm.access.object_words(address), fence=False)
        for slot in vm.access.ref_slot_addresses(address):
            value = vm.memory.read(slot)
            if value != obj_layout.NULL:
                stack.append(value)
    heap.fence()
    return FlushReport(objects=len(seen), lines=lines)
