"""An NVML-style native pool: what PCJ manages its off-heap objects with.

Paper §2.2: "PCJ stores persistent data as native off-heap objects and
manage[s] them with the help of NVML, a C library providing ACID semantics
for accessing data in NVM.  Therefore, PCJ has to define a special layout
for native objects and handle synchronization and garbage collection all by
itself."

This module is that substrate, built from scratch: a pool over its own
:class:`~repro.nvm.device.NvmDevice` with

* a first-fit free list + bump allocator with persistent allocation headers,
* word-granularity **undo-log transactions** (old data flushed to a log
  before mutation; recovery applies the undo in reverse),
* a persistent **type table** (class name -> type id) — the "type
  information memorization" that dominates PCJ's metadata cost in Fig. 6,
* a persistent **root directory** (named entry points), and
* a persistent **GC registry** feeding the reference-counting collector.

Every operation charges real device traffic, so the Fig. 6 breakdown is
measured, not staged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import (
    IllegalArgumentException,
    IllegalStateException,
    OutOfMemoryError,
    TransactionAbort,
)
from repro.nvm.clock import Clock
from repro.nvm.device import NvmDevice
from repro.nvm.latency import DEFAULT_LATENCY, LatencyConfig
from repro.nvm.persist import PersistDomain
from repro.nvm.publish import publish_point
from repro.obs import NULL_OBS, Observatory

# Pool metadata word offsets.
_MAGIC = 0
_SIZE = 1
_HEAP_TOP = 2
_FREE_HEAD = 3          # offset of first free chunk, 0 = none
_TX_ACTIVE = 4
_TX_LOG_WORDS = 5       # words used in the undo log
_TYPE_COUNT = 6
_ROOT_COUNT = 7
_GC_REG_COUNT = 8
_TX_LOG_CAP = 9          # persisted so a reopened pool rebuilds its layout

POOL_MAGIC = 0x4E564D4C  # "NVML"
_META_WORDS = 16

# PCJ reaches this pool from Java through JNI: every pool-level operation
# pays a native-call crossing (argument marshalling, handle pinning), and
# every object dereference resolves the Java proxy against the native
# object directory.  These CPU costs are the off-heap tax of §2.2 that the
# on-heap design deletes.
NATIVE_CALL_NS = 400.0
DIRECTORY_LOOKUP_NS = 250.0

_TYPE_ENTRY_WORDS = 10   # name_len + 8 name words + reserved
_TYPE_CAPACITY = 128
_ROOT_ENTRY_WORDS = 2    # name hash, offset
_ROOT_CAPACITY = 128
_GC_REG_CAPACITY = 1024

# Per-allocation header (precedes the payload).
HDR_SIZE = 0             # payload words
HDR_TYPE = 1             # type id (index into the type table)
HDR_REFCOUNT = 2
HDR_VERSION = 3
HEADER_WORDS = 4


def _hash64(text: str) -> int:
    h = 1469598103934665603
    for ch in text.encode("utf-8"):
        h = ((h ^ ch) * 1099511628211) & ((1 << 63) - 1)
    return h


class MemoryPool:
    """One NVML pool: allocator + transactions + directories."""

    def __init__(self, size_words: int, clock: Optional[Clock] = None,
                 latency: LatencyConfig = DEFAULT_LATENCY,
                 tx_log_words: int = 8192, name: str = "pcj-pool",
                 _format: bool = True,
                 obs: Observatory = NULL_OBS) -> None:
        self.clock = clock if clock is not None else Clock()
        self.obs = obs
        self.obs.bind_clock(self.clock)
        self.device = NvmDevice(size_words, self.clock, latency, name=name)
        self.obs.register_device(name, self.device)
        # All pool durability routes through one domain: in-transaction
        # data/header flushes stay enqueued until tx_commit drains them, so
        # repeated stores to the pool's metadata line (tx state, heap top,
        # free head all live in line 0) dedupe within the epoch.
        self.persist = PersistDomain(self.device, name=name)
        if _format:
            d = self.device
            d.write(_SIZE, size_words)
            d.write(_TX_LOG_CAP, tx_log_words)
            d.write(_FREE_HEAD, 0)
            d.write(_TX_ACTIVE, 0)
            d.write(_TX_LOG_WORDS, 0)
            d.write(_TYPE_COUNT, 0)
            d.write(_ROOT_COUNT, 0)
            d.write(_GC_REG_COUNT, 0)
            self._compute_layout(tx_log_words)
            d.write(_HEAP_TOP, self._heap_off)
            d.write(_MAGIC, POOL_MAGIC)
            self.persist.persist(0, _META_WORDS)
        # Volatile acceleration caches (rebuilt on open).
        self._type_cache: Dict[str, int] = {}
        self._root_cache: Dict[int, int] = {}
        # type id -> Python wrapper class, for typed refcount release.
        self.type_classes: Dict[int, type] = {}
        # Blocks freed inside the open transaction (None outside one).
        self._tx_frees: Optional[List[int]] = None

    def _compute_layout(self, tx_log_words: int) -> None:
        self._type_table_off = _META_WORDS
        self._root_table_off = (self._type_table_off
                                + _TYPE_CAPACITY * _TYPE_ENTRY_WORDS)
        self._gc_reg_off = (self._root_table_off
                            + _ROOT_CAPACITY * _ROOT_ENTRY_WORDS)
        self._tx_log_off = self._gc_reg_off + _GC_REG_CAPACITY
        self._heap_off = self._tx_log_off + tx_log_words
        self._tx_log_capacity = tx_log_words
        if self._heap_off >= self.device.size_words:
            raise IllegalArgumentException(
                f"pool of {self.device.size_words} words leaves no heap space")

    # ------------------------------------------------------------------
    # Durability: pools are files in real PCJ (pmemobj pools)
    # ------------------------------------------------------------------
    def close(self):
        """Graceful close: flush everything, return the durable image."""
        self.device.persist_all()
        self.persist.discard()  # persist_all covered anything still pending
        return self.device.durable_image()

    def crash_image(self):
        """Power loss: unflushed lines vanish; return what survived."""
        self.device.crash()
        return self.device.durable_image()

    @classmethod
    def open(cls, image, clock: Optional[Clock] = None,
             latency: LatencyConfig = DEFAULT_LATENCY,
             name: str = "pcj-pool",
             obs: Observatory = NULL_OBS) -> "MemoryPool":
        """Reopen a pool from a saved image, rolling back any transaction
        a crash cut short (NVML's pool-open recovery)."""
        pool = cls(len(image), clock, latency, name=name, _format=False,
                   obs=obs)
        pool.device.load_image(image)
        if pool.device.read(_MAGIC) != POOL_MAGIC:
            raise IllegalArgumentException("image is not a PCJ pool")
        pool._compute_layout(pool.device.read(_TX_LOG_CAP))
        pool.recover()
        return pool

    def bind_class(self, wrapper_class: type) -> None:
        """Re-associate a Python wrapper class after reopen, so typed
        reference-counting release works for reattached objects."""
        type_id = self.intern_type(wrapper_class.TYPE_NAME)
        self.type_classes[type_id] = wrapper_class

    # ------------------------------------------------------------------
    # Transactions (undo logging, NVML-style)
    # ------------------------------------------------------------------
    @property
    def in_transaction(self) -> bool:
        return bool(self.device.read(_TX_ACTIVE))

    def tx_begin(self) -> None:
        if self.in_transaction:
            raise IllegalStateException("nested PCJ transactions unsupported")
        self.clock.charge(NATIVE_CALL_NS)
        d = self.device
        d.write(_TX_LOG_WORDS, 0)
        d.write(_TX_ACTIVE, 1)
        self.persist.persist(_TX_ACTIVE, 2)
        self._tx_frees = []
        # Synchronisation: PCJ locks the object/pool around each operation.
        self.clock.charge(self.device.latency.sfence_ns * 2)
        self.obs.inc("pcj.tx.begins")

    def tx_add_range(self, offset: int, count: int) -> None:
        """Undo-log *count* words at *offset* before they are overwritten."""
        if not self.in_transaction:
            raise IllegalStateException("tx_add_range outside a transaction")
        d = self.device
        used = d.read(_TX_LOG_WORDS)
        if used + count + 2 > self._tx_log_capacity:
            raise TransactionAbort("PCJ undo log overflow")
        entry = self._tx_log_off + used
        d.write(entry, offset)
        d.write(entry + 1, count)
        d.write_block(entry + 2, d.read_block(offset, count))
        # Two epochs, never merged: the entry must be durable before the
        # log length can claim it — a reordered crash that persisted the
        # counter but not the entry would make abort/recovery replay
        # garbage over live data.
        self.persist.persist(entry, count + 2)
        d.write(_TX_LOG_WORDS, used + count + 2)
        self.persist.persist(_TX_LOG_WORDS)

    def tx_commit(self) -> None:
        if not self.in_transaction:
            raise IllegalStateException("commit outside a transaction")
        self.clock.charge(NATIVE_CALL_NS)
        d = self.device
        # Drain the data epoch before discarding the undo log: if the
        # cleared flag persisted while a deferred data line reverted,
        # recovery would skip the rollback and expose a torn transaction.
        with self.obs.span("pcj.tx.commit"):
            self.persist.fence()
            d.write(_TX_ACTIVE, 0)
            d.write(_TX_LOG_WORDS, 0)
            self.persist.persist(_TX_ACTIVE, 2)
        frees, self._tx_frees = self._tx_frees or (), None
        for payload_offset in frees:
            self._free(payload_offset)
        self.obs.inc("pcj.tx.commits")

    def tx_abort(self) -> None:
        """Apply the undo log in reverse and close the transaction."""
        d = self.device
        entries: List[Tuple[int, int, np.ndarray]] = []
        cursor = 0
        used = d.read(_TX_LOG_WORDS)
        while cursor < used:
            off = d.read(self._tx_log_off + cursor)
            count = d.read(self._tx_log_off + cursor + 1)
            data = d.read_block(self._tx_log_off + cursor + 2, count)
            entries.append((off, count, data))
            cursor += count + 2
        for off, count, data in reversed(entries):
            d.write_block(off, data)
            self.persist.flush(off, count)  # drained by tx_commit's fence
        self._tx_frees = None  # rolled back: what they freed is live again
        self.tx_commit()
        self.obs.inc("pcj.tx.aborts")

    def recover(self) -> None:
        """Pool-open recovery: roll back a transaction cut short by a crash."""
        with self.obs.span("pcj.recover",
                           in_transaction=self.in_transaction):
            if self.in_transaction:
                self.tx_abort()
        self.obs.inc("pcj.recoveries")

    def _tx_write(self, offset: int, value: int) -> None:
        """Flushed single-word write, undo-logged inside a transaction.

        Inside a transaction the flush stays enqueued until tx_commit
        drains it (the undo entry above already covers a crash before
        then); outside, the epoch commits immediately.
        """
        if self.in_transaction:
            self.tx_add_range(offset, 1)
            self.device.write(offset, value)
            self.persist.flush(offset)
        else:
            self.device.write(offset, value)
            self.persist.persist(offset)

    # ------------------------------------------------------------------
    # Type table ("type information memorization")
    # ------------------------------------------------------------------
    def intern_type(self, name: str) -> int:
        """Find or persist a type descriptor; returns its type id.

        The walk reads descriptors from NVM (the real PCJ resolves types
        through its ObjectDirectory on each allocation) — this is the
        metadata cost the paper measures at 36.8% of a create.
        """
        self.clock.charge(DIRECTORY_LOOKUP_NS)
        cached = self._type_cache.get(name)
        if cached is not None:
            # Even cached, PCJ validates the descriptor: one header read.
            entry = self._type_table_off + cached * _TYPE_ENTRY_WORDS
            self.device.read(entry)
            return cached
        d = self.device
        count = d.read(_TYPE_COUNT)
        from repro.core.name_table import _pack_name, _unpack_name
        for type_id in range(count):
            entry = self._type_table_off + type_id * _TYPE_ENTRY_WORDS
            length = d.read(entry)
            existing = _unpack_name(d.read_block(entry + 1, 8), length)
            if existing == name:
                self._type_cache[name] = type_id
                return type_id
        if count >= _TYPE_CAPACITY:
            raise OutOfMemoryError("PCJ type table full")
        entry = self._type_table_off + count * _TYPE_ENTRY_WORDS
        words, length = _pack_name(name)
        d.write(entry, length)
        d.write_block(entry + 1, words)
        # Entry epoch before count epoch: the count must never claim an
        # entry that is not yet durable.
        self.persist.persist(entry, _TYPE_ENTRY_WORDS)
        d.write(_TYPE_COUNT, count + 1)
        self.persist.persist(_TYPE_COUNT)
        self._type_cache[name] = count
        return count

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def pmalloc(self, payload_words: int, type_id: int) -> int:
        """Allocate header + payload; returns the *payload* offset."""
        if payload_words < 1:
            payload_words = 1  # room for the free-list link
        self.clock.charge(NATIVE_CALL_NS)
        d = self.device
        total = HEADER_WORDS + payload_words
        # First-fit over the persistent free list.
        prev = 0
        cursor = d.read(_FREE_HEAD)
        while cursor:
            chunk_payload = d.read(cursor + HDR_SIZE)
            if chunk_payload >= payload_words:
                next_free = d.read(cursor + HEADER_WORDS)
                if prev:
                    self._tx_write(prev + HEADER_WORDS, next_free)
                else:
                    self._tx_write(_FREE_HEAD, next_free)
                break
            prev = cursor
            cursor = d.read(cursor + HEADER_WORDS)
        if not cursor:
            top = d.read(_HEAP_TOP)
            if top + total > d.size_words:
                raise OutOfMemoryError("PCJ pool exhausted")
            cursor = top
            self._tx_write(_HEAP_TOP, top + total)
            # Fresh memory beyond the old top needs no undo image.
            d.write(cursor + HDR_SIZE, payload_words)
            self.persist.flush(cursor + HDR_SIZE)
            if not self.in_transaction:
                self.persist.commit_epoch()
        # Header init; the caller persists type/version/refcount fields
        # under the "metadata" and "gc" scopes (same cache line), so no
        # separate flush is issued here.
        d.write(cursor + HDR_TYPE, type_id)
        d.write(cursor + HDR_REFCOUNT, 0)
        d.write(cursor + HDR_VERSION, 0)
        return cursor + HEADER_WORDS

    def pfree(self, payload_offset: int) -> None:
        """Free a block; inside a transaction the free waits for its
        commit and is dropped by its abort (``pmemobj_tx_free``): a
        rolled-back reference must never name a recycled block."""
        if self._tx_frees is not None:
            self._tx_frees.append(payload_offset)
        else:
            self._free(payload_offset)

    def _free(self, payload_offset: int) -> None:
        header = payload_offset - HEADER_WORDS
        d = self.device
        head = d.read(_FREE_HEAD)
        d.write(payload_offset, head)  # free-list link through the payload
        # Two epochs: the link must be durable before the head names the
        # block, or a crash between the two flushes cuts the list off
        # into whatever the payload held.
        self.persist.persist(payload_offset)
        d.write(_FREE_HEAD, header)
        self.persist.persist(_FREE_HEAD)

    # -- header accessors -------------------------------------------------------
    def header_word(self, payload_offset: int, index: int) -> int:
        return self.device.read(payload_offset - HEADER_WORDS + index)

    def set_header_word(self, payload_offset: int, index: int,
                        value: int, logged: bool = False) -> None:
        offset = payload_offset - HEADER_WORDS + index
        if logged:
            self._tx_write(offset, value)
        else:
            self.device.write(offset, value)
            self.persist.flush(offset)
            if not self.in_transaction:
                self.persist.commit_epoch()

    def payload_size(self, payload_offset: int) -> int:
        return self.header_word(payload_offset, HDR_SIZE)

    # ------------------------------------------------------------------
    # Root directory
    # ------------------------------------------------------------------
    @publish_point("PCJ root-directory entry")
    def set_root(self, name: str, payload_offset: int) -> None:
        # Publishing store: the root entry makes *payload_offset*
        # recoverable.  The entry pair is fenced here; durability of the
        # payload object itself is the caller's obligation.
        key = _hash64(name)
        d = self.device
        if key in self._root_cache:
            index = self._root_cache[key]
        else:
            index = d.read(_ROOT_COUNT)
            if index >= _ROOT_CAPACITY:
                raise OutOfMemoryError("PCJ root directory full")
            d.write(_ROOT_COUNT, index + 1)
            self.persist.flush(_ROOT_COUNT)
            self._root_cache[key] = index
        entry = self._root_table_off + index * _ROOT_ENTRY_WORDS
        d.write(entry, key)
        d.write(entry + 1, payload_offset)
        self.persist.flush(entry, _ROOT_ENTRY_WORDS)
        self.persist.commit_epoch()

    def get_root(self, name: str) -> Optional[int]:
        key = _hash64(name)
        d = self.device
        for index in range(d.read(_ROOT_COUNT)):
            entry = self._root_table_off + index * _ROOT_ENTRY_WORDS
            if d.read(entry) == key:
                value = d.read(entry + 1)
                return value or None
        return None

    # ------------------------------------------------------------------
    # Object directory (proxy <-> native object resolution metadata)
    # ------------------------------------------------------------------
    def directory_register(self, payload_offset: int) -> None:
        """Record a new object's descriptor mapping.

        Real PCJ keeps per-object metadata so Java proxies can be
        re-associated with their native objects; this persistent insert is
        part of the "type information memorization" the paper measures at
        36.8% of a create.
        """
        d = self.device
        count = d.read(_GC_REG_COUNT)  # shares the registry region
        slot = self._gc_reg_off + ((count + 499) % _GC_REG_CAPACITY)
        d.write(slot, payload_offset)
        self.persist.persist(slot)

    # ------------------------------------------------------------------
    # GC registry (reference-counting bookkeeping)
    # ------------------------------------------------------------------
    def gc_register(self, payload_offset: int) -> None:
        """Record a newly created object for the reference-counting GC.

        This is the "add garbage collection related information to the newly
        created object" step the paper measures at 14.8% of a create.
        """
        d = self.device
        count = d.read(_GC_REG_COUNT)
        slot = self._gc_reg_off + (count % _GC_REG_CAPACITY)
        d.write(slot, payload_offset)
        self.persist.flush(slot)
        d.write(_GC_REG_COUNT, count + 1)
        self.persist.flush(_GC_REG_COUNT)
        self.persist.commit_epoch()

    # ------------------------------------------------------------------
    # Introspection for tests/benchmarks
    # ------------------------------------------------------------------
    def free_list_length(self) -> int:
        count = 0
        cursor = self.device.read(_FREE_HEAD)
        while cursor:
            count += 1
            cursor = self.device.read(cursor + HEADER_WORDS)
        return count
