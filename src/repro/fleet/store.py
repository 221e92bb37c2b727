"""Per-shard KV session store: a PJH hashmap under an ACID undo log.

Each shard session owns exactly one data heap, holding one
:class:`~repro.pjhlib.collections.PjhHashmap` keyed by session-scoped
string keys.  Three name-table roots make the store recoverable:
``table`` (the map), ``txn_entries`` / ``txn_meta`` (the undo log's
persistent arrays).  After a crash, :meth:`ShardStore.reattach` rebinds
the log and rolls back any torn multi-slot operation before the map is
touched — the same protocol the pjhlib crash sweep pins.
"""

from __future__ import annotations

from typing import Optional

from repro.pjhlib import PjhHashmap, PjhString, PjhTransaction

TABLE_ROOT = "table"
TXN_ENTRIES_ROOT = "txn_entries"
TXN_META_ROOT = "txn_meta"


class ShardStore:
    """String-keyed KV store on one shard session's sole mounted heap."""

    def __init__(self, jvm, txn: PjhTransaction, table: PjhHashmap) -> None:
        self.jvm = jvm
        self.txn = txn
        self.table = table

    #: Undo-log capacity: a rehash logs one slot per live entry, so this
    #: bounds the map size a shard can grow to (~4k entries is plenty for
    #: the session-store workloads the fleet is sized for).
    TXN_CAPACITY = 4096

    @classmethod
    def create(cls, jvm) -> "ShardStore":
        """Bootstrap the store on a freshly created shard heap."""
        txn = PjhTransaction(jvm, capacity=cls.TXN_CAPACITY)
        table = PjhHashmap(jvm, txn)
        jvm.set_root(TABLE_ROOT, table.h)
        jvm.set_root(TXN_ENTRIES_ROOT, txn._entries)
        jvm.set_root(TXN_META_ROOT, txn._meta)
        return cls(jvm, txn, table)

    @classmethod
    def reattach(cls, jvm) -> "ShardStore":
        """Rebind after reload; rolls back a crash-interrupted txn."""
        txn = PjhTransaction.reattach(jvm,
                                      jvm.get_root(TXN_ENTRIES_ROOT),
                                      jvm.get_root(TXN_META_ROOT))
        txn.recover()
        table = PjhHashmap(jvm, txn, handle=jvm.get_root(TABLE_ROOT))
        return cls(jvm, txn, table)

    # -- operations -----------------------------------------------------
    def put(self, key: str, value: str) -> None:
        boxed_key = PjhString(self.jvm, self.txn, key)
        boxed_value = PjhString(self.jvm, self.txn, value)
        self.table.put(boxed_key, boxed_value)

    def get(self, key: str) -> Optional[str]:
        handle = self.table.get_raw(key)
        return None if handle is None else self.jvm.read_string(handle)

    def delete(self, key: str) -> bool:
        return self.table.remove_raw(key)
