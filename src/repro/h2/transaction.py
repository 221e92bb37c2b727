"""Transaction contexts over the WAL.

A :class:`TxContext` is the single mutation door for catalog, pages and
metadata: every write logs old+new images to the WAL (flushed) before the
in-place update, so commit durability and crash recovery come for free.
Rollback replays the context's own writes in reverse, flushes them, and
logs an ABORT record (recovery then ignores the transaction).

The WAL sees a transaction only once it writes: the BEGIN record rides
with the first WRITE, and a transaction that wrote nothing — a read-only
statement or ``BEGIN … COMMIT``, a statement that failed before writing —
ends without a COMMIT or ABORT record, at no flush or fence.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import IllegalStateException
from repro.h2.wal import WriteAheadLog


class TxContext:
    """One open transaction: logged writes + rollback images."""

    def __init__(self, wal: WriteAheadLog, tx_id: int) -> None:
        self.wal = wal
        self.device = wal.device
        self.tx_id = tx_id
        self.open = True
        self._writes: List[Tuple[int, np.ndarray]] = []

    def write(self, offset: int, values: np.ndarray) -> None:
        if not self.open:
            raise IllegalStateException("write on a closed transaction")
        old = self.device.read_block(offset, len(values))
        self.wal.log_write(self.tx_id, offset, old, values,
                           first=not self._writes)
        self.device.write_block(offset, values)
        self._writes.append((offset, old))

    @property
    def logged(self) -> bool:
        """True once this transaction has put a record in the WAL."""
        return bool(self._writes)


class TransactionManager:
    """Serial transaction lifecycle (one open transaction at a time)."""

    def __init__(self, wal: WriteAheadLog) -> None:
        self.wal = wal
        self._next_tx_id = 1
        self.current: TxContext | None = None

    def begin(self) -> TxContext:
        if self.current is not None and self.current.open:
            raise IllegalStateException("a transaction is already open")
        tx = TxContext(self.wal, self._next_tx_id)
        self._next_tx_id += 1
        self.current = tx
        return tx

    def commit(self, tx: TxContext) -> None:
        if not tx.open:
            raise IllegalStateException("commit on a closed transaction")
        if tx.logged:
            self.wal.log_commit(tx.tx_id)
        else:
            self.wal.obs.inc("wal.readonly")
        tx.open = False
        self.current = None

    def rollback(self, tx: TxContext) -> None:
        """Undo this transaction's writes (applied + flushed), log ABORT."""
        if not tx.open:
            raise IllegalStateException("rollback on a closed transaction")
        # Undo images batch into one epoch (overlapping writes to the same
        # lines dedupe) and must be durable before the ABORT publishes —
        # recovery skips aborted transactions entirely.  With nothing
        # logged the epoch is empty and commits for free.
        for offset, old in reversed(tx._writes):
            self.wal.device.write_block(offset, old)
            self.wal.persist.flush(offset, len(old))
        self.wal.persist.commit_epoch()
        if tx.logged:
            self.wal.log_abort(tx.tx_id)
        else:
            self.wal.obs.inc("wal.readonly")
        tx.open = False
        self.current = None
