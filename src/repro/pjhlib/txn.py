"""A simple Java-level undo log for ACID operations on PJH objects.

This is the paper's "transaction libraries written in Java" (§2.2): because
persistent objects live *inside* the Java heap, the log is itself a pair of
``pnew``-allocated arrays, and logging a slot costs four word stores plus
one flush+fence — compare :meth:`repro.pcj.nvml.MemoryPool.tx_add_range`,
which must round-trip through a native allocator's log area.
"""

from __future__ import annotations

from repro.errors import IllegalStateException, TransactionAbort
from repro.nvm.checksum import crc32_words
from repro.runtime.klass import FieldKind
from repro.runtime.vm import EspressoVM

#: One undo entry: ``[seq, slot, old, crc32(seq, slot, old)]``, the slot
#: relative to the log's heap base so a remapped load still finds it.
#: Entries start on a 4-word boundary, so none straddles a 64-byte line.
ENTRY_WORDS = 4


class PjhTransaction:
    """Undo-log transaction over raw PJH slots.

    The entries are self-validating (DESIGN.md §19).  ``_meta[0]`` holds
    the last *settled* sequence number; the running transaction's
    sequence is one more and stays volatile, so ``begin`` writes nothing
    durable.  An entry belongs to the running transaction iff its
    sequence matches and its CRC holds, and ``recover`` undoes exactly the
    prefix of such entries, in reverse.  There is no count word to
    publish: a fresh log array is durably zero (§4.1 claims), entries of
    earlier transactions carry smaller sequence numbers, and a torn entry
    fails its CRC — its in-place store never happened, because the
    entry's fence comes first.  ``_meta[1]`` holds the padding that aligns
    entry 0, fixed at creation so a moved array reads back the same way.
    """

    def __init__(self, jvm, capacity: int = 1024,
                 heap: str | None = None) -> None:
        self.jvm = jvm
        self.vm: EspressoVM = jvm.vm
        self.capacity = capacity
        self._entries = jvm.pnew_array(
            FieldKind.INT, capacity * ENTRY_WORDS + ENTRY_WORDS - 1, heap)
        self._meta = jvm.pnew_array(FieldKind.INT, 2, heap)  # [settled, pad]
        self._heap = jvm.vm.service_of(self._entries.address)
        first = self.vm.access.element_slot(self._entries.address, 0)
        self._pad = -first % ENTRY_WORDS
        if self._pad:  # a zero pad is already durable: the body is zero
            self.vm.array_set(self._meta, 1, self._pad)
            self._flush_meta(1)
        self._settled = 0
        self._count = 0
        # Nesting depth (volatile): an outer EntityManager transaction may
        # span several collection operations that each begin/commit; only
        # the outermost level settles the log.
        self._depth = 0

    @classmethod
    def reattach(cls, jvm, entries, meta) -> "PjhTransaction":
        """Rebind a transaction to its persisted log arrays after reload.

        *entries* and *meta* are the handles recovered from the name table
        (they were ``pnew``-allocated by a previous process).  Call
        :meth:`recover` afterwards to roll back a crash-interrupted
        transaction.
        """
        txn = cls.__new__(cls)
        txn.jvm = jvm
        txn.vm = jvm.vm
        txn._entries = entries
        txn._meta = meta
        txn._heap = jvm.vm.service_of(entries.address)
        txn._settled = jvm.vm.array_get(meta, 0)
        txn._pad = jvm.vm.array_get(meta, 1)
        txn.capacity = (jvm.array_length(entries) - txn._pad) // ENTRY_WORDS
        txn._count = 0
        txn._depth = 0
        return txn

    # ------------------------------------------------------------------
    def _flush_meta(self, index: int) -> None:
        slot = self.vm.access.element_slot(self._meta.address, index)
        self._heap.flush_words(slot, 1, fence=True)

    def _entry_slot(self, index: int) -> int:
        return self.vm.access.element_slot(
            self._entries.address, self._pad + index * ENTRY_WORDS)

    def _entry(self, index: int):
        """Entry *index* as ``(slot address, old)`` if it belongs to the
        running transaction (sequence matches, CRC holds), else None."""
        words = self.vm.memory.read_block(self._entry_slot(index),
                                          ENTRY_WORDS).tolist()
        if words[0] != self._settled + 1 or words[3] != crc32_words(words[:3]):
            return None
        return self._heap.base_address + words[1], words[2]

    def begin(self) -> None:
        if self._depth > 0:
            self._depth += 1
            return
        if self._entry(0) is not None:
            raise IllegalStateException("transaction already active")
        self._count = 0
        self._depth = 1
        self.vm.obs.inc("pjhlib.tx.begins")

    def log_slot(self, slot_address: int) -> None:
        """Record the pre-image of one word before overwriting it."""
        if not self._depth:
            raise IllegalStateException("log_slot outside a transaction")
        if self._count >= self.capacity:
            raise TransactionAbort("PJH undo log overflow")
        memory = self.vm.memory
        words = [self._settled + 1, slot_address - self._heap.base_address,
                 memory.read(slot_address)]
        words.append(crc32_words(words))
        entry_slot = self._entry_slot(self._count)
        for offset, word in enumerate(words):
            memory.write(entry_slot + offset, word)
        # The entry is durable before the caller's in-place store: a crash
        # can tear an entry only while its slot still holds the old value.
        self._heap.flush_words(entry_slot, ENTRY_WORDS, fence=True)
        self._count += 1

    def commit(self) -> None:
        if not self._depth:
            raise IllegalStateException("commit outside a transaction")
        if self._depth > 1:
            self._depth -= 1
            return
        with self.vm.obs.span("pjhlib.tx.commit", entries=self._count):
            if self._count:  # a transaction that logged nothing is free
                self.vm.array_set(self._meta, 0, self._settled + 1)
                self._flush_meta(0)
                self._settled += 1
        self._count = 0
        self._depth = 0
        self.vm.obs.inc("pjhlib.tx.commits")

    def abort(self) -> None:
        """Roll back: apply the undo entries in reverse (whole transaction,
        regardless of nesting depth)."""
        if self._count:
            for i in reversed(range(self._count)):
                slot, old = self._entry(i)
                self.vm.memory.write(slot, old)
                self._heap.flush_words(slot, 1, fence=False)
            self._heap.fence()
        self._depth = 1
        self.commit()

    def recover(self) -> bool:
        """Roll back a transaction interrupted by a crash; True if one was.

        Idempotent under a crash at any of its own steps: until the settle
        is durable the same entries stay valid, and undoing them again
        writes the same pre-images.
        """
        count = 0
        while count < self.capacity and self._entry(count) is not None:
            count += 1
        if not count:
            return False
        with self.vm.obs.span("pjhlib.tx.recover"):
            self._count = count
            self.abort()
        self.vm.obs.inc("pjhlib.tx.recoveries")
        return True
