"""Lock-free durable sets and maps on PJH (Zuriel et al. / NVTraverse).

:class:`~repro.pjhlib.collections.PjhHashmap` serialises every mutation
through an undo-log transaction — correct, but a single mutator's view.
The types here are built for the :class:`~repro.runtime.mutators.
MutatorGang`: operations are generators whose ``yield`` points are the
places another mutator may legally run, and crash consistency comes from
the *lock-free durable set* recipe instead of a log:

* **Persist at the destination, not along the traversal** (NVTraverse):
  a traversal flushes nothing; only the final CAS target — the new node
  and the single pointer slot that links it — is persisted.  An insert
  costs three fence points (payload, node, link) against the
  transactional map's log-record/commit dance (~3x the fences plus undo
  records).
* **CAS-based link-and-persist**: the linking store is a CAS (read,
  compare, write inside one interleave step — atomic with respect to the
  gang); the linearization point is the successful CAS, the durability
  point is the flush+fence of the CAS'd slot that follows it.
* **Per-node valid/flushed bits**: ``valid`` is the durable logical-
  deletion mark (Zuriel's validity scheme — a delete linearizes at the
  ``valid=0`` store and becomes durable at its flush+fence, *before* any
  physical unlink).  ``flushed`` is volatile-semantics: set once the
  node's payload fence completed, read by concurrent helpers to skip
  redundant flushes, reset (trivially true) for every surviving node on
  recovery — it is deliberately never flushed itself.
* **No durable size**: a durable counter would serialise every op on one
  contended line.  Size is volatile and recomputed by :meth:`reattach`,
  which is also where **recovery-time completion** happens: in-flight
  deletes (``valid=0`` durable, unlink not) are finished by unlinking;
  in-flight inserts whose link never became durable simply never
  happened.

Ops come in two flavours: ``*_op`` generators for gang scheduling, and
plain blocking wrappers (``put``/``get``/``remove``/``contains``) that
drain the generator for single-threaded callers.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.errors import IllegalArgumentException
from repro.nvm.publish import publish_point
from repro.runtime.klass import FieldKind, field
from repro.runtime.objects import ObjectHandle

from repro.pjhlib.collections import (_ensure, _equal_handles, _hash_handle,
                                      _LONG, PjhSubstrate)

_CMAP = "pjh.ConcurrentMap"
_CNODE = "pjh.ConcurrentNode"

__all__ = ["PjhConcurrentMap", "PjhConcurrentSet"]


def _same(a: Optional[ObjectHandle], b: Optional[ObjectHandle]) -> bool:
    """Identity compare for possibly-null handles (handles are values:
    two reads of one slot return distinct handle objects)."""
    if a is None or b is None:
        return a is None and b is None
    return a.address == b.address


def _drain(gen):
    """Run a gang op generator to completion outside the gang."""
    while True:
        try:
            next(gen)
        except StopIteration as stop:
            return stop.value


class PjhConcurrentMap:
    """Durably-linearizable chained hash map, lock-free under the gang.

    The bucket count is fixed at construction (no rehash: a concurrent
    resize is a different paper); chains absorb overload gracefully.
    """

    DEFAULT_BUCKETS = 64

    def __init__(self, jvm, buckets: int = DEFAULT_BUCKETS,
                 handle: Optional[ObjectHandle] = None) -> None:
        self.jvm = jvm
        klass = _ensure(jvm, _CMAP, [field("buckets", FieldKind.REF)])
        self._node_klass = _ensure(
            jvm, _CNODE, [field("hash", FieldKind.INT),
                          field("key", FieldKind.REF),
                          field("value", FieldKind.REF),
                          field("next", FieldKind.REF),
                          field("valid", FieldKind.INT),
                          field("flushed", FieldKind.INT)])
        if handle is None:
            if buckets < 1:
                raise IllegalArgumentException("bucket count must be >= 1")
            handle = jvm.pnew(klass)
            array = jvm.pnew_array(jvm.vm.object_klass, buckets)
            jvm.set_field(handle, "buckets", array)
            jvm.flush_object(handle)
            jvm.flush_object(array)
        self.h = handle
        self._size = 0  # volatile: recomputed on reattach, never flushed

    # ------------------------------------------------------------------
    # Reattach + recovery-time completion
    # ------------------------------------------------------------------
    @classmethod
    def reattach(cls, jvm, handle: ObjectHandle) -> "PjhConcurrentMap":
        """Adopt a recovered map and complete in-flight operations.

        Walks every chain once: ``valid=0`` nodes (durably deleted, not
        yet unlinked when the crash hit) are physically unlinked now,
        and the volatile size is recomputed from the survivors.
        """
        self = cls(jvm, handle=handle)
        size = 0
        array = self._buckets()
        for index in range(jvm.array_length(array)):
            prev = None
            cursor = jvm.array_get(array, index)
            while cursor is not None:
                nxt = jvm.get_field(cursor, "next")
                if jvm.get_field(cursor, "valid") == 0:
                    self._unlink(array, index, prev, cursor, nxt)
                else:
                    # Survivors are durable by definition of recovery.
                    jvm.set_field(cursor, "flushed", 1)
                    size += 1
                    prev = cursor
                cursor = nxt
        self._size = size
        return self

    # ------------------------------------------------------------------
    # Small helpers
    # ------------------------------------------------------------------
    def size(self) -> int:
        return self._size

    def _buckets(self) -> ObjectHandle:
        return self.jvm.get_field(self.h, "buckets")

    def _service(self):
        return self.jvm.vm.service_of(self.h.address)

    def _flush_slot(self, address: int) -> None:
        self._service().flush_words(address, 1, fence=True)

    def _box_key(self, key):
        jvm = self.jvm
        if isinstance(key, PjhSubstrate):
            return key.h
        if isinstance(key, ObjectHandle):
            return key
        if isinstance(key, bool) or not isinstance(key, (int, str)):
            raise IllegalArgumentException(
                f"key must be a handle, int or str, got {key!r}")
        if isinstance(key, int):
            from repro.pjhlib.collections import _long_klass
            boxed = jvm.pnew(_long_klass(jvm))
            jvm.set_field(boxed, "value", key)
            return boxed
        return jvm.pnew_string(key)

    def _box_value(self, value):
        if value is None:
            return None
        return self._box_key(value)

    def _node_matches(self, node: ObjectHandle, key_h: ObjectHandle,
                      key_hash: int) -> bool:
        jvm = self.jvm
        return (jvm.get_field(node, "hash") == key_hash
                and _equal_handles(jvm, jvm.get_field(node, "key"), key_h))

    def _help_flush(self, node: ObjectHandle) -> None:
        """Zuriel-style helping: persist a node another mutator linked
        but (per its volatile flush bit) has not yet fenced."""
        jvm = self.jvm
        if jvm.get_field(node, "flushed") == 0:
            jvm.flush_object(node)
            jvm.set_field(node, "flushed", 1)

    @publish_point("concurrent-map CAS link")
    def _link_bucket(self, array: ObjectHandle, index: int,
                     node: ObjectHandle) -> None:
        # Publishing store of the insert protocol: linking *node* into
        # the bucket makes it (and everything it references) reachable
        # from the recovered map.  ESP501 holds callers to the fence-2
        # discipline — the node, including its next pointer, must be
        # durable before this store.
        self.jvm.array_set(array, index, node)

    # ------------------------------------------------------------------
    # Gang ops (generators; every yield is an interleave point)
    # ------------------------------------------------------------------
    def put_op(self, key, value) -> Iterator:
        """Insert-or-update.  Markers: ("linearized", "put", key) at the
        successful CAS / value store, ("durable", "put", key) after the
        slot's flush+fence."""
        jvm, vm = self.jvm, self.jvm.vm
        key_h = self._box_key(key)
        value_h = self._box_value(value)
        # Fence 1: payload durable strictly before anything points at it.
        jvm.flush_reachable(key_h)
        if value_h is not None:
            jvm.flush_reachable(value_h)
        key_hash = _hash_handle(jvm, key_h)
        yield
        array = self._buckets()
        index = key_hash % jvm.array_length(array)
        slot = vm.access.element_slot(array.address, index)
        node = None
        while True:
            # Traversal: flush-free (NVTraverse), skipping dead nodes.
            head = jvm.array_get(array, index)
            cursor, found = head, None
            while cursor is not None:
                if (jvm.get_field(cursor, "valid") == 1
                        and self._node_matches(cursor, key_h, key_hash)):
                    found = cursor
                    break
                cursor = jvm.get_field(cursor, "next")
            yield
            if found is not None:
                # Update path: the 8-byte value store is the CAS target.
                self._help_flush(found)
                value_slot = (found.address
                              + vm.klass_of(found).field_offset("value"))
                jvm.set_field(found, "value", value_h)
                yield ("linearized", "put", key)
                self._flush_slot(value_slot)
                yield ("durable", "put", key)
                return False
            if node is None:
                node = jvm.pnew(self._node_klass)
                jvm.set_field(node, "hash", key_hash)
                jvm.set_field(node, "key", key_h)
                jvm.set_field(node, "value", value_h)
                jvm.set_field(node, "valid", 1)
            # (Re)point at the head we saw; fence 2 makes the node —
            # including its next pointer — durable before the link.
            jvm.set_field(node, "next", head)
            jvm.set_field(node, "flushed", 0)
            jvm.flush_object(node)
            jvm.set_field(node, "flushed", 1)
            yield
            # CAS: re-read, compare, link — one interleave step.
            if not _same(jvm.array_get(array, index), head):
                continue  # lost the race; retraverse and retry
            self._link_bucket(array, index, node)
            self._size += 1
            yield ("linearized", "put", key)
            # Fence 3: link durable — the op's durability point.
            self._flush_slot(slot)
            yield ("durable", "put", key)
            return True

    def remove_op(self, key) -> Iterator:
        """Logical delete then physical unlink.  Linearizes at the
        ``valid=0`` store; durable at its flush+fence — both strictly
        before the unlink, so recovery can always finish the job."""
        jvm, vm = self.jvm, self.jvm.vm
        key_h = self._box_key(key)
        key_hash = _hash_handle(jvm, key_h)
        yield
        array = self._buckets()
        index = key_hash % jvm.array_length(array)
        while True:
            head = jvm.array_get(array, index)
            prev, cursor, found = None, head, None
            while cursor is not None:
                if (jvm.get_field(cursor, "valid") == 1
                        and self._node_matches(cursor, key_h, key_hash)):
                    found = cursor
                    break
                prev = cursor
                cursor = jvm.get_field(cursor, "next")
            if found is None:
                yield ("linearized", "remove", key)
                return False
            yield
            # CAS on the valid word: claim the delete or lose the race.
            if jvm.get_field(found, "valid") != 1:
                continue
            self._help_flush(found)
            jvm.set_field(found, "valid", 0)
            self._size -= 1
            yield ("linearized", "remove", key)
            valid_slot = (found.address
                          + vm.klass_of(found).field_offset("valid"))
            self._flush_slot(valid_slot)
            yield ("durable", "remove", key)
            # Physical unlink is cleanup: safe to skip on conflict (a
            # later traversal or recovery completes it).
            nxt = jvm.get_field(found, "next")
            if prev is None:
                if not _same(jvm.array_get(array, index), found):
                    return True
            else:
                if not _same(jvm.get_field(prev, "next"), found):
                    return True
            self._unlink(array, index, prev, found, nxt)
            return True

    def get_op(self, key) -> Iterator:
        """Flush-free wait-free lookup (one interleave point up front)."""
        jvm = self.jvm
        key_h = self._box_key(key)
        key_hash = _hash_handle(jvm, key_h)
        yield
        array = self._buckets()
        cursor = jvm.array_get(array, key_hash % jvm.array_length(array))
        while cursor is not None:
            if (jvm.get_field(cursor, "valid") == 1
                    and self._node_matches(cursor, key_h, key_hash)):
                result = jvm.get_field(cursor, "value")
                yield ("linearized", "get", key)
                return result
            cursor = jvm.get_field(cursor, "next")
        yield ("linearized", "get", key)
        return None

    def contains_op(self, key) -> Iterator:
        result = yield from self.get_op(key)
        return result is not None

    # ------------------------------------------------------------------
    # Blocking wrappers (single-threaded convenience)
    # ------------------------------------------------------------------
    def put(self, key, value) -> bool:
        return _drain(self.put_op(key, value))

    def get(self, key) -> Optional[ObjectHandle]:
        return _drain(self.get_op(key))

    def remove(self, key) -> bool:
        return _drain(self.remove_op(key))

    def contains(self, key) -> bool:
        return _drain(self.contains_op(key))

    def get_raw(self, key):
        """Lookup returning a plain int/str when the value is boxed."""
        handle = self.get(key)
        return None if handle is None else self._unbox(handle)

    def _unbox(self, handle: ObjectHandle):
        jvm = self.jvm
        klass = jvm.vm.klass_of(handle)
        if klass.name == _LONG:
            return jvm.get_field(handle, "value")
        if klass.name == "java.lang.String":
            return jvm.read_string(handle)
        return handle

    def items(self) -> Iterator[Tuple[ObjectHandle, ObjectHandle]]:
        """Yield (key handle, value handle) for every live entry."""
        jvm = self.jvm
        array = self._buckets()
        for index in range(jvm.array_length(array)):
            cursor = jvm.array_get(array, index)
            while cursor is not None:
                if jvm.get_field(cursor, "valid") == 1:
                    yield (jvm.get_field(cursor, "key"),
                           jvm.get_field(cursor, "value"))
                cursor = jvm.get_field(cursor, "next")

    def snapshot_raw(self) -> dict:
        """Unboxed {key: value} of the live entries (checker helper)."""
        return {self._unbox(k): (None if v is None else self._unbox(v))
                for k, v in self.items()}

    # ------------------------------------------------------------------
    # Invariant audit (crash-sweep checker hook)
    # ------------------------------------------------------------------
    def audit(self) -> List[str]:
        """Protocol-invariant violations, empty when healthy."""
        jvm = self.jvm
        problems: List[str] = []
        array = self._buckets()
        n = jvm.array_length(array)
        seen = set()
        live_keys = {}
        for index in range(n):
            cursor = jvm.array_get(array, index)
            hops = 0
            while cursor is not None:
                if cursor.address in seen:
                    problems.append(
                        f"bucket {index}: node @{cursor.address:#x} "
                        f"reachable twice (cycle or cross-link)")
                    break
                seen.add(cursor.address)
                valid = jvm.get_field(cursor, "valid")
                if valid not in (0, 1):
                    problems.append(
                        f"bucket {index}: node @{cursor.address:#x} has "
                        f"valid={valid}")
                node_hash = jvm.get_field(cursor, "hash")
                if node_hash % n != index:
                    problems.append(
                        f"bucket {index}: node @{cursor.address:#x} hash "
                        f"{node_hash} belongs in bucket {node_hash % n}")
                key_h = jvm.get_field(cursor, "key")
                if key_h is None:
                    problems.append(
                        f"bucket {index}: node @{cursor.address:#x} has a "
                        f"null key")
                elif valid == 1:
                    raw = self._unbox(key_h)
                    if raw in live_keys:
                        problems.append(
                            f"bucket {index}: duplicate live key {raw!r}")
                    live_keys[raw] = cursor
                cursor = jvm.get_field(cursor, "next")
                hops += 1
                if hops > 100_000:  # pragma: no cover - corruption guard
                    problems.append(f"bucket {index}: chain does not end")
                    break
        return problems

    @publish_point("concurrent-map unlink")
    def _unlink(self, array: ObjectHandle, index: int,
                prev: Optional[ObjectHandle], node: ObjectHandle,
                nxt: Optional[ObjectHandle]) -> None:
        # Publishing store of the delete protocol's cleanup half: the
        # bucket (or predecessor) pointer now reaches *nxt* directly.
        # nxt is already durable — its own link fenced when it was
        # inserted — so the obligation on callers is the valid=0 fence
        # (remove_op) or recovery context (reattach).
        jvm, vm = self.jvm, self.jvm.vm
        if prev is None:
            jvm.array_set(array, index, nxt)
            self._flush_slot(vm.access.element_slot(array.address, index))
        else:
            jvm.set_field(prev, "next", nxt)
            self._flush_slot(
                prev.address + vm.klass_of(prev).field_offset("next"))


class PjhConcurrentSet:
    """Lock-free durable set: a concurrent map with key-as-value."""

    def __init__(self, jvm, buckets: int = PjhConcurrentMap.DEFAULT_BUCKETS,
                 handle: Optional[ObjectHandle] = None) -> None:
        self._map = PjhConcurrentMap(jvm, buckets=buckets, handle=handle)

    @classmethod
    def reattach(cls, jvm, handle: ObjectHandle) -> "PjhConcurrentSet":
        self = cls.__new__(cls)
        self._map = PjhConcurrentMap.reattach(jvm, handle)
        return self

    @property
    def h(self) -> ObjectHandle:
        return self._map.h

    def add_op(self, key) -> Iterator:
        added = yield from self._map.put_op(key, key)
        return added

    def remove_op(self, key) -> Iterator:
        removed = yield from self._map.remove_op(key)
        return removed

    def contains_op(self, key) -> Iterator:
        present = yield from self._map.contains_op(key)
        return present

    def add(self, key) -> bool:
        return _drain(self.add_op(key))

    def remove(self, key) -> bool:
        return _drain(self.remove_op(key))

    def contains(self, key) -> bool:
        return _drain(self.contains_op(key))

    def members_raw(self) -> set:
        return set(self._map.snapshot_raw())

    def audit(self) -> List[str]:
        return self._map.audit()
