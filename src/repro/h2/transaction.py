"""Transaction contexts over the WAL.

A :class:`TxContext` is the single mutation door for catalog, pages and
metadata: every write logs old+new images to the WAL (flushed) before the
in-place update, so commit durability and crash recovery come for free.
Rollback replays the context's own writes in reverse, flushes them, and
logs an ABORT record (recovery then ignores the transaction).
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
        self.wal.log_write(self.tx_id, offset, old, values)
        self.device.write_block(offset, values)
        self._writes.append((offset, old))


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
        self.wal.log_begin(tx.tx_id)
        self.current = tx
        return tx

    def commit(self, tx: TxContext) -> None:
        if not tx.open:
            raise IllegalStateException("commit on a closed transaction")
        self.wal.log_commit(tx.tx_id)
        tx.open = False
        self.current = None

    def rollback(self, tx: TxContext) -> None:
        """Undo this transaction's writes (applied + flushed), log ABORT."""
        if not tx.open:
            raise IllegalStateException("rollback on a closed transaction")
        # Undo images batch into one epoch (overlapping writes to the same
        # lines dedupe) and must be durable before the ABORT publishes —
        # recovery skips aborted transactions entirely.
        for offset, old in reversed(tx._writes):
            self.wal.device.write_block(offset, old)
            self.wal.persist.flush(offset, len(old))
        self.wal.persist.commit_epoch()
        self.wal.log_abort(tx.tx_id)
        tx.open = False
        self.current = None
