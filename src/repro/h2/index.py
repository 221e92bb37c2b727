"""Volatile hash indexes, rebuilt on open (MVStore-style acceleration).

The durable truth is the row store; indexes are a rebuildable cache mapping
column values to row ids.  The engine auto-creates a unique index on each
table's primary key (which is what the JPAB ``id = ?`` finds hit) and
supports explicit ``CREATE [UNIQUE] INDEX`` on other columns (the JPA
provider indexes every reference column and every collection table's
``owner_id``).  An index *definition* is catalog state (the column's
INDEXED/UNIQUE flag bits, see :mod:`repro.h2.catalog`); the contents are
rebuilt from the rows on every mount, so a rollback, a failed autocommit
statement or a crash brings back exactly the committed definitions.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set

from repro.errors import SqlError


class HashIndex:
    """value -> set of row ids, optionally unique."""

    def __init__(self, table: str, column: str, unique: bool = False) -> None:
        self.table = table
        self.column = column
        self.unique = unique
        self._map: Dict[Any, Set[int]] = {}

    def add(self, value: Any, row_id: int) -> None:
        if value is None:
            return  # NULLs are not indexed (SQL semantics)
        bucket = self._map.setdefault(value, set())
        if self.unique and bucket and row_id not in bucket:
            raise SqlError(
                f"unique index violation on {self.table}.{self.column}: "
                f"duplicate value {value!r}")
        bucket.add(row_id)

    def remove(self, value: Any, row_id: int) -> None:
        if value is None:
            return
        bucket = self._map.get(value)
        if bucket is not None:
            bucket.discard(row_id)
            if not bucket:
                del self._map[value]

    def lookup(self, value: Any) -> List[int]:
        if value is None:
            return []
        return sorted(self._map.get(value, ()))

    def clear(self) -> None:
        self._map.clear()


class TableIndexes:
    """All indexes of one table, keyed by column index."""

    def __init__(self) -> None:
        self.by_column: Dict[int, HashIndex] = {}

    def add_index(self, column_index: int, index: HashIndex) -> None:
        self.by_column[column_index] = index

    def get(self, column_index: int) -> Optional[HashIndex]:
        return self.by_column.get(column_index)

    def on_insert(self, row_id: int, values: Iterable[Any]) -> None:
        values = list(values)
        for column_index, index in self.by_column.items():
            index.add(values[column_index], row_id)

    def on_delete(self, row_id: int, values: Iterable[Any]) -> None:
        values = list(values)
        for column_index, index in self.by_column.items():
            index.remove(values[column_index], row_id)

    def on_update(self, row_id: int, old_values, new_values) -> None:
        old_values, new_values = list(old_values), list(new_values)
        for column_index, index in self.by_column.items():
            old, new = old_values[column_index], new_values[column_index]
            if old != new:
                index.remove(old, row_id)
                index.add(new, row_id)

    def rebuild(self, storage) -> None:
        for index in self.by_column.values():
            index.clear()
        for row_id, values in storage.scan():
            self.on_insert(row_id, values)
