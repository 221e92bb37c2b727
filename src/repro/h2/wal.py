"""Write-ahead log for the H2-style engine.

Physical undo/redo logging at word granularity: before a data word range is
mutated, its old and new images are appended to the WAL and flushed; the
data-page write itself may linger in the (volatile) cache.  A transaction
becomes durable when its COMMIT record is flushed.  On open, recovery
replays the log: committed transactions are redone (their page writes may
never have been flushed), the trailing uncommitted transaction is undone.

The region is one header line, then the data area.  Header word 0 is the
durable **generation**; nothing else in the header is used.  Record formats
(word 0 is the type, word 1 the generation it was written in, the last word
a CRC32 of the words before it):
    BEGIN  := [1, gen, tx_id, crc]
    WRITE  := [2, gen, tx_id, device_offset, count, old..., new..., crc]
    COMMIT := [3, gen, tx_id, crc]
    ABORT  := [4, gen, tx_id, crc]

Records validate themselves; there is no durable count of them.  The
append cursor is volatile, and a scan walks from the start of the data
area while a record's structure, CRC and generation all hold:

* a torn or reverted record fails its CRC;
* a record left by an earlier generation fails the generation check, so
  a checkpoint retires the whole log by bumping the generation, without
  zeroing it;
* every record in front of a durable record is itself durable, because
  each append is published with one ``commit_epoch()`` (flush + fence)
  before anything that depends on it happens — a WRITE before its
  in-place page write, a COMMIT before the statement returns.

A transaction that writes nothing logs nothing: its BEGIN is appended
together with its first WRITE, in the same epoch (the two often share a
cache line), and a commit or rollback with no WRITE appends no COMMIT or
ABORT.  WRITE records are never deferred: an undo image must be durable
before the in-place page write it protects, or a torn dirty page line
would have no durable undo record to repair it (``FaultMode.TORN``).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import IllegalStateException, SqlError
from repro.nvm.checksum import crc32_words
from repro.nvm.device import LINE_WORDS, NvmDevice
from repro.nvm.persist import PersistDomain
from repro.obs import NULL_OBS, Observatory

REC_BEGIN = 1
REC_WRITE = 2
REC_COMMIT = 3
REC_ABORT = 4

_GENERATION = 0  # wal-region-relative offset of the durable generation
_HEADER_WORDS = LINE_WORDS
_SHORT_WORDS = 4  # BEGIN / COMMIT / ABORT: type, gen, tx_id, crc
_WRITE_FIXED = 6  # WRITE without its images: type, gen, tx_id, off, count, crc


class WalScan(NamedTuple):
    """Result of a checksummed log scan."""

    records: List[Tuple]
    discarded_records: int  # current-generation records behind the stop
    torn_words: int         # words those discarded records span


class WalRecovery(NamedTuple):
    """Full recovery report; ``(redone, undone)`` is the legacy shape."""

    redone: int
    undone: int
    discarded_records: int
    torn_words: int


class WriteAheadLog:
    """WAL over a fixed region [offset, offset+capacity) of the device."""

    def __init__(self, device: NvmDevice, offset: int, capacity: int,
                 obs: Observatory = NULL_OBS) -> None:
        if offset % LINE_WORDS:
            # The generation must not share a cache line with record
            # payload: a checkpoint publishes it in an epoch of its own.
            raise IllegalStateException(
                f"WAL offset {offset} must be {LINE_WORDS}-word aligned")
        self.device = device
        self.offset = offset
        self.capacity = capacity
        self._data = offset + _HEADER_WORDS
        self._data_words = capacity - _HEADER_WORDS
        self.persist = PersistDomain(device, name="h2-wal")
        self.obs = obs
        self.generation = device.read(offset + _GENERATION)
        #: Volatile append cursor (data-area relative).  Recovery scans the
        #: log and then checkpoints, which puts it back to 0.
        self.tail = 0

    # -- appending ---------------------------------------------------------------
    def _append(self, records: List[List[int]]) -> None:
        """Append *records* (each ``[type, tx_id, ...]``) in one epoch.

        The records are stamped with the generation, checksummed, written
        behind the tail, then flushed and fenced together by one
        ``commit_epoch()``: a scan trusts each by its own generation and
        CRC.
        """
        encoded: List[int] = []
        for words in records:
            words = [words[0], self.generation, *words[1:]]
            encoded += words
            encoded.append(crc32_words(words))
        with self.obs.span("wal.append", rec_type=records[-1][0],
                           words=len(encoded)):
            if self.tail + len(encoded) > self._data_words:
                raise SqlError("WAL full — checkpoint required (log too "
                               "small for this transaction)")
            target = self._data + self.tail
            self.device.write_block(target, np.array(encoded, dtype=np.int64))
            self.persist.flush(target, len(encoded))
            self.persist.commit_epoch()
            self.tail += len(encoded)
        self.obs.inc("wal.records", len(records))

    def log_write(self, tx_id: int, device_offset: int,
                  old: np.ndarray, new: np.ndarray,
                  first: bool = False) -> None:
        """Log one WRITE; *first* prepends the transaction's BEGIN.

        Published before returning: the caller's in-place write follows,
        and its undo image must already be durable in case the overwritten
        line tears at a crash.
        """
        if len(old) != len(new):
            raise IllegalStateException("old/new images differ in length")
        write = ([REC_WRITE, tx_id, device_offset, len(old)]
                 + [int(w) for w in old] + [int(w) for w in new])
        self._append([[REC_BEGIN, tx_id], write] if first else [write])

    def log_commit(self, tx_id: int) -> None:
        with self.obs.span("wal.commit", tx_id=tx_id):
            self._append([[REC_COMMIT, tx_id]])
        self.obs.inc("wal.commits")

    def log_abort(self, tx_id: int) -> None:
        self._append([[REC_ABORT, tx_id]])

    # -- checkpoint -----------------------------------------------------------------
    def checkpoint(self) -> None:
        """Flush every dirty line, then retire the log.

        ``persist_all`` makes every logged page write durable; the
        generation bump (one flush + fence) then invalidates every record
        at once, and appending restarts at the front of the data area.  A
        crash before the bump leaves the old generation valid, and
        recovery redoes the same committed work again — idempotent.
        """
        self.device.persist_all()
        self.persist.discard()  # persist_all covered anything still pending
        self.generation += 1
        self.device.write(self.offset + _GENERATION, self.generation)
        self.persist.persist(self.offset + _GENERATION)
        self.tail = 0

    # -- recovery ---------------------------------------------------------------------
    def _record_extent(self, cursor: int) -> Optional[int]:
        """Length of the current-generation record at *cursor*, or None.

        Checks structure only (type, generation, ``count``), never the
        CRC.  A returned length is positive and ends inside the data area,
        so a walk that steps by it always advances and always stops.
        """
        room = self._data_words - cursor
        if room < _SHORT_WORDS:
            return None
        head = self.device.read_block(self._data + cursor, 2)
        if int(head[1]) != self.generation:
            return None  # never written, or retired by a checkpoint
        rec_type = int(head[0])
        if rec_type in (REC_BEGIN, REC_COMMIT, REC_ABORT):
            return _SHORT_WORDS
        if rec_type != REC_WRITE or room < _WRITE_FIXED:
            return None
        count = self.device.read(self._data + cursor + 4)
        if count <= 0 or 2 * count > room - _WRITE_FIXED:
            return None
        return _WRITE_FIXED + 2 * count

    def scan_with_report(self) -> WalScan:
        """Checksummed parse into (type, tx_id, offset, old, new) tuples.

        Stops at the first record whose structure, generation or CRC is
        bad, then keeps walking structurally (checksums ignored) to count
        how many current-generation records the tear discarded.
        """
        records: List[Tuple] = []
        cursor = 0
        while True:
            total = self._record_extent(cursor)
            if total is None:
                break
            body = self.device.read_block(self._data + cursor, total - 1)
            if self.device.read(self._data + cursor + total - 1) != \
                    crc32_words(body):
                break  # torn or corrupt record: nothing behind it is trusted
            rec_type = int(body[0])
            tx_id = int(body[2])
            if rec_type == REC_WRITE:
                count = int(body[4])
                records.append((REC_WRITE, tx_id, int(body[3]),
                                body[5:5 + count].copy(),
                                body[5 + count:5 + 2 * count].copy()))
            else:
                records.append((rec_type, tx_id, None, None, None))
            cursor += total
        discarded = 0
        probe = cursor
        while True:
            total = self._record_extent(probe)
            if total is None:
                break
            discarded += 1
            probe += total
        return WalScan(records, discarded, probe - cursor)

    def scan(self) -> List[Tuple]:
        """Parse the log into (type, tx_id, offset, old, new) tuples."""
        return self.scan_with_report().records

    def recover(self) -> WalRecovery:
        """Redo committed transactions, undo the unfinished one.

        Aborted transactions need no work here: their undo images were
        applied and flushed before the ABORT record was logged.  Because
        execution is serial, at most the *last* transaction in the log can
        be unfinished, so undoing it after the redo pass is safe.

        Returns a :class:`WalRecovery`; its first two fields are the legacy
        ``(redone_writes, undone_writes)`` pair.
        """
        with self.obs.span("wal.recover") as span:
            generation = self.generation
            records, discarded, torn_words = self.scan_with_report()
            finished: Dict[int, int] = {}
            for rec_type, tx_id, *_ in records:
                if rec_type in (REC_COMMIT, REC_ABORT):
                    finished[tx_id] = rec_type
            redone = undone = 0
            for rec_type, tx_id, offset, old, new in records:
                if rec_type == REC_WRITE and finished.get(tx_id) == REC_COMMIT:
                    self.device.write_block(offset, new)
                    redone += 1
            for rec_type, tx_id, offset, old, new in reversed(records):
                if rec_type == REC_WRITE and tx_id not in finished:
                    self.device.write_block(offset, old)
                    undone += 1
            self.checkpoint()
            if span is not None:
                span.attrs.update(generation=generation, redone=redone,
                                  undone=undone, discarded=discarded,
                                  torn_words=torn_words)
        self.obs.inc("wal.recoveries")
        return WalRecovery(redone, undone, discarded, torn_words)
