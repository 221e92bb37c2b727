"""PersistentObject: the root of PCJ's separate type system (paper §2.2).

"PCJ implements a new type system based on a persistent type called
PersistentObject, and only objects whose type is a subtype of
PersistentObject can be stored in NVM."

Every field/element access goes through the pool with ACID semantics (a
transaction, undo logging, synchronisation) and reference-counting upkeep —
the off-heap design whose costs Figure 6 breaks down.  The clock scopes in
:meth:`PersistentObject.__init__` mirror that figure's categories exactly:
``transaction`` / ``gc`` / ``metadata`` / ``allocation`` / ``data``.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import IllegalArgumentException
from repro.pcj.nvml import (
    DIRECTORY_LOOKUP_NS,
    HDR_REFCOUNT,
    HDR_TYPE,
    HDR_VERSION,
    NATIVE_CALL_NS,
    MemoryPool,
)


class PersistentObject:
    """Base of all PCJ types: a handle to an off-heap allocation."""

    TYPE_NAME = "PersistentObject"

    def __init__(self, pool: MemoryPool, payload_words: int,
                 _existing_offset: Optional[int] = None) -> None:
        self.pool = pool
        if _existing_offset is not None:
            self.offset = _existing_offset
            return
        clock = pool.clock
        with clock.scope("transaction"):
            pool.tx_begin()
        try:
            with clock.scope("metadata"):
                # Register the new proxy in the object directory and intern
                # its type descriptor ("type information memorization").
                clock.charge(NATIVE_CALL_NS + DIRECTORY_LOOKUP_NS)
                type_id = pool.intern_type(self.TYPE_NAME)
            with clock.scope("allocation"):
                self.offset = pool.pmalloc(payload_words, type_id)
            with clock.scope("metadata"):
                # Type information memorization: the descriptor id and a
                # version stamp are (re)written and persisted per object,
                # and the object is registered in the directory.
                pool.set_header_word(self.offset, HDR_TYPE, type_id)
                pool.set_header_word(self.offset, HDR_VERSION, 1)
                pool.directory_register(self.offset)
            with clock.scope("gc"):
                pool.set_header_word(self.offset, HDR_REFCOUNT, 1)
                pool.gc_register(self.offset)
            pool.type_classes.setdefault(
                pool.header_word(self.offset, HDR_TYPE), type(self))
            # Subclasses write their payload, then the transaction commits.
            with clock.scope("data"):
                self._init_payload()
        except BaseException:
            with clock.scope("transaction"):
                pool.tx_abort()
            raise
        else:
            with clock.scope("transaction"):
                pool.tx_commit()

    def _init_payload(self) -> None:
        """Subclass hook: write initial payload (runs inside the create tx)."""

    # ------------------------------------------------------------------
    # Identity / reattachment
    # ------------------------------------------------------------------
    @classmethod
    def from_offset(cls, pool: MemoryPool, offset: int) -> "PersistentObject":
        obj = cls.__new__(cls)
        PersistentObject.__init__(obj, pool, 0, _existing_offset=offset)
        return obj

    # ------------------------------------------------------------------
    # Reference counting (PCJ's GC)
    # ------------------------------------------------------------------
    @property
    def refcount(self) -> int:
        return self.pool.header_word(self.offset, HDR_REFCOUNT)

    def inc_ref(self) -> None:
        with self.pool.clock.scope("gc"):
            self.pool.set_header_word(
                self.offset, HDR_REFCOUNT, self.refcount + 1,
                logged=self.pool.in_transaction)

    def dec_ref(self) -> None:
        with self.pool.clock.scope("gc"):
            count = self.refcount - 1
            self.pool.set_header_word(self.offset, HDR_REFCOUNT, count,
                                      logged=self.pool.in_transaction)
            if count <= 0:
                self._release_children()
                self.pool.pfree(self.offset)

    def _release_children(self) -> None:
        """Subclass hook: dec_ref every referenced child before freeing."""

    @staticmethod
    def _dec_offset(pool: MemoryPool, offset: int) -> None:
        """Decrement the refcount of a raw payload offset (free at zero).

        The object's Python class is recovered through the pool's volatile
        type-class map so that typed ``_release_children`` hooks run and
        reference counting stays transitive.
        """
        if not offset:
            return
        type_id = pool.header_word(offset, HDR_TYPE)
        cls = pool.type_classes.get(type_id, PersistentObject)
        cls.from_offset(pool, offset).dec_ref()

    # ------------------------------------------------------------------
    # Guarded word access (the per-operation ACID envelope)
    # ------------------------------------------------------------------
    def _word(self, index: int) -> int:
        pool, offset = self.pool, self.offset
        size = pool.payload_size(offset)
        if index < 0 or index >= size:
            raise IllegalArgumentException(
                f"payload index {index} outside [0, {size})")
        return pool.device.read(offset + index)

    def _read_word(self, index: int) -> int:
        """ACID read: JNI crossing, directory resolution, descriptor
        validation, then the actual word read."""
        pool, offset = self.pool, self.offset
        clock = pool.clock
        with clock.scope("metadata"):
            clock.charge(NATIVE_CALL_NS + DIRECTORY_LOOKUP_NS)
            pool.header_word(offset, HDR_TYPE)
            pool.header_word(offset, HDR_VERSION)
        with clock.scope("data"):
            return self._word(index)

    def _write_word(self, index: int, value: int,
                    old_is_ref: bool = False, new_is_ref: bool = False) -> None:
        """ACID write: tx + undo log + refcount upkeep + flush."""
        clock = self.pool.clock
        pool = self.pool
        with clock.scope("transaction"):
            pool.tx_begin()
        try:
            with clock.scope("metadata"):
                clock.charge(NATIVE_CALL_NS + DIRECTORY_LOOKUP_NS)
                pool.header_word(self.offset, HDR_TYPE)
                pool.set_header_word(
                    self.offset, HDR_VERSION,
                    pool.header_word(self.offset, HDR_VERSION) + 1,
                    logged=True)
            old = self._word(index)
            with clock.scope("transaction"):
                pool.tx_add_range(self.offset + index, 1)
            with clock.scope("data"):
                pool.device.write(self.offset + index, value)
                # Deferred into the transaction's epoch: tx_commit drains
                # it (repeated writes to the same line dedupe until then).
                pool.persist.flush(self.offset + index)
            if new_is_ref and value:
                PersistentObject.from_offset(pool, value).inc_ref()
            if old_is_ref and old and old != value:
                self._dec_offset(pool, old)
        except BaseException:
            with clock.scope("transaction"):
                pool.tx_abort()
            raise
        else:
            with clock.scope("transaction"):
                pool.tx_commit()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(offset={self.offset:#x})"
