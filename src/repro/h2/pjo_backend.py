"""The PJO-mode backend of the database (the paper's H2 modification).

Paper §6.1: making H2 support PJO and PJH "takes about 600 LoC ... mainly
for the DBPersistable interface [and] replacing new with pnew.  The data
structures for transaction control (like logging) remain intact."

This module is that delta: instead of receiving SQL text, the
backend receives ``DBPersistable`` objects (which already live in PJH,
Figure 14c) and stores them in ``pnew``-allocated table structures — a
persistent hash map per root table, keyed by primary key.  ACID comes from
the same style of logging H2 uses, here the PJH-level undo log of
:mod:`repro.pjhlib.txn`.  No tokenizer, no parser, no row serialisation.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.errors import IllegalArgumentException, SqlError
from repro.pjhlib.collections import PjhHashmap, PjhLong, PjhString
from repro.pjhlib.txn import PjhTransaction
from repro.runtime.objects import ObjectHandle


class DBPersistableBackend:
    """Object-table storage inside a PJH instance.

    Tables are registered as PJH roots (``pjo_table_<name>``) so that a
    reloaded heap finds them again without any catalog machinery.
    """

    TXN_ENTRIES_ROOT = "pjo_txn_entries"
    TXN_META_ROOT = "pjo_txn_meta"

    def __init__(self, jvm, heap: Optional[str] = None,
                 txn: Optional[PjhTransaction] = None) -> None:
        self.jvm = jvm
        self.heap = heap
        self.txn = txn if txn is not None else self._attach_txn()
        self._tables: Dict[str, PjhHashmap] = {}

    def _attach_txn(self) -> PjhTransaction:
        """Find (or create and root) the backend's persistent undo log.

        The log arrays are registered as PJH roots so a reloaded heap can
        reattach them and roll back a commit that a crash interrupted —
        without this, the fresh log of every process would leak the old one
        and lose the undo images exactly when they are needed.
        """
        entries = self.jvm.get_root(self.TXN_ENTRIES_ROOT, heap=self.heap)
        meta = self.jvm.get_root(self.TXN_META_ROOT, heap=self.heap)
        if entries is not None and meta is not None:
            txn = PjhTransaction.reattach(self.jvm, entries, meta)
            txn.recover()
            return txn
        txn = PjhTransaction(self.jvm, heap=self.heap)
        self.jvm.set_root(self.TXN_ENTRIES_ROOT, txn._entries, heap=self.heap)
        self.jvm.set_root(self.TXN_META_ROOT, txn._meta, heap=self.heap)
        return txn

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------
    def _root_name(self, table: str) -> str:
        return f"pjo_table_{table.lower()}"

    def ensure_table(self, table: str) -> PjhHashmap:
        key = table.lower()
        existing = self._tables.get(key)
        if existing is not None:
            return existing
        root = self.jvm.get_root(self._root_name(table), heap=self.heap)
        if root is not None:
            mapping = PjhHashmap(self.jvm, self.txn, handle=root)
        else:
            mapping = PjhHashmap(self.jvm, self.txn)
            self.jvm.set_root(self._root_name(table), mapping.h,
                             heap=self.heap)
        self._tables[key] = mapping
        return mapping

    def _key(self, pk_value: Any):
        if isinstance(pk_value, bool) or pk_value is None:
            raise IllegalArgumentException(f"bad primary key {pk_value!r}")
        if isinstance(pk_value, int):
            return PjhLong(self.jvm, self.txn, pk_value)
        if isinstance(pk_value, str):
            return PjhString(self.jvm, self.txn, pk_value)
        raise IllegalArgumentException(
            f"unsupported primary-key type {type(pk_value).__name__}")

    # ------------------------------------------------------------------
    # The persistInTable path (Figure 13)
    # ------------------------------------------------------------------
    def persist_in_table(self, table: str, pk_value: Any,
                         dbp: ObjectHandle) -> None:
        """Store a DBPersistable; duplicate keys are rejected (PK unique)."""
        mapping = self.ensure_table(table)
        try:
            mapping.put(self._key(pk_value), dbp, unique=True)
        except SqlError:
            raise SqlError(
                f"duplicate primary key {pk_value!r} in table {table!r}")


    def update_field(self, dbp: ObjectHandle, field_name: str,
                     value: Optional[ObjectHandle]) -> None:
        """Field-level update under the backend's logging (§5 tracking)."""
        vm = self.jvm.vm
        klass = vm.klass_of(dbp)
        slot = dbp.address + klass.field_offset(field_name)
        service = vm.service_of(dbp.address)
        self.txn.begin()
        self.txn.log_slot(slot)
        vm.set_field(dbp, field_name, value)
        service.flush_words(slot, 1, fence=True)
        self.txn.commit()

    def retrieve(self, table: str, pk_value: Any) -> Optional[ObjectHandle]:
        return self.ensure_table(table).get_raw(pk_value)

    def delete(self, table: str, pk_value: Any) -> bool:
        return self.ensure_table(table).remove_raw(pk_value)

    def count(self, table: str) -> int:
        return self.ensure_table(table).size()

    # ------------------------------------------------------------------
    # Transaction control (same shape as the SQL engine's)
    # ------------------------------------------------------------------
    def begin(self) -> None:
        self.txn.begin()

    def commit(self) -> None:
        self.txn.commit()

    def rollback(self) -> None:
        self.txn.abort()
