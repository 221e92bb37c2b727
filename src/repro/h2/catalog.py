"""Persistent catalog: table and column definitions stored in NVM.

Catalog records live in a dedicated region of the database device and are
mutated through the same WAL as everything else, so DDL is crash
consistent.  A record is:

    [flags, name_len, name x8, ncols, first_page, pk_index,
     (type_code, col_flags, name_len, name x8) x ncols]

``flags`` bit 0 marks a dropped table (records are append-only).
``col_flags`` holds PK=1 and NOT_NULL=2 from CREATE TABLE, and INDEXED=4
plus UNIQUE=8 from CREATE [UNIQUE] INDEX: an index definition is catalog
state, written as that one word through the statement's WAL transaction,
so it commits, rolls back and survives a crash with the rest of the DDL.
The index contents are not stored; the engine rebuilds every flagged
column's index from the rows on each mount.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SqlError
from repro.core.name_table import _pack_name, _unpack_name
from repro.h2.ast_nodes import ColumnDef
from repro.h2.values import SqlType

_NAME_WORDS = 8
_COL_WORDS = 3 + _NAME_WORDS
_TABLE_FIXED = 5 + _NAME_WORDS

_TYPE_CODES = {t: i for i, t in enumerate(SqlType)}
_CODE_TYPES = {i: t for t, i in _TYPE_CODES.items()}

_FLAG_DROPPED = 1
_COL_FLAG_PK = 1
_COL_FLAG_NOT_NULL = 2
_COL_FLAG_INDEXED = 4
_COL_FLAG_UNIQUE = 8


def _col_flags(col: ColumnDef) -> int:
    return ((_COL_FLAG_PK if col.primary_key else 0)
            | (_COL_FLAG_NOT_NULL if col.not_null else 0))


@dataclass
class TableDef:
    """One live table: schema + storage anchor."""

    name: str
    columns: Tuple[ColumnDef, ...]
    first_page: int
    record_offset: int  # device offset of the catalog record
    # CREATE INDEX'd columns: column index -> unique.
    indexed: Dict[int, bool] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._index = {c.name.lower(): i for i, c in enumerate(self.columns)}

    def column_index(self, name: str) -> int:
        try:
            return self._index[name.lower()]
        except KeyError:
            raise SqlError(
                f"table {self.name!r} has no column {name!r}") from None

    @property
    def primary_key_index(self) -> Optional[int]:
        for i, c in enumerate(self.columns):
            if c.primary_key:
                return i
        return None

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]


class Catalog:
    """Reads/writes the catalog region; keeps a volatile name index."""

    def __init__(self, device, region_offset: int, region_words: int,
                 meta_count_offset: int) -> None:
        self.device = device
        self.offset = region_offset
        self.capacity = region_words
        self.meta_count_offset = meta_count_offset
        self.tables: Dict[str, TableDef] = {}
        self._used_words = 0

    # -- loading ---------------------------------------------------------------
    def load(self) -> None:
        self.tables.clear()
        self._used_words = 0
        count = self.device.read(self.meta_count_offset)
        cursor = self.offset
        for _ in range(count):
            table, size = self._read_record(cursor)
            if table is not None:
                self.tables[table.name.lower()] = table
            cursor += size
        self._used_words = cursor - self.offset

    def _read_record(self, cursor: int):
        d = self.device
        flags = d.read(cursor)
        name_len = d.read(cursor + 1)
        name = _unpack_name(d.read_block(cursor + 2, _NAME_WORDS), name_len)
        ncols = d.read(cursor + 2 + _NAME_WORDS)
        first_page = d.read(cursor + 3 + _NAME_WORDS)
        columns: List[ColumnDef] = []
        indexed: Dict[int, bool] = {}
        col_cursor = cursor + _TABLE_FIXED
        for i in range(ncols):
            type_code = d.read(col_cursor)
            col_flags = d.read(col_cursor + 1)
            col_name_len = d.read(col_cursor + 2)
            col_name = _unpack_name(
                d.read_block(col_cursor + 3, _NAME_WORDS), col_name_len)
            columns.append(ColumnDef(
                col_name, _CODE_TYPES[type_code],
                primary_key=bool(col_flags & _COL_FLAG_PK),
                not_null=bool(col_flags & _COL_FLAG_NOT_NULL)))
            if col_flags & _COL_FLAG_INDEXED:
                indexed[i] = bool(col_flags & _COL_FLAG_UNIQUE)
            col_cursor += _COL_WORDS
        size = _TABLE_FIXED + ncols * _COL_WORDS
        if flags & _FLAG_DROPPED:
            return None, size
        return TableDef(name, tuple(columns), first_page, cursor,
                        indexed), size

    # -- mutation (through a TxContext) -------------------------------------------
    def append_table(self, tx, name: str, columns: Tuple[ColumnDef, ...],
                     first_page: int) -> TableDef:
        if name.lower() in self.tables:
            raise SqlError(f"table {name!r} already exists")
        size = _TABLE_FIXED + len(columns) * _COL_WORDS
        if self._used_words + size > self.capacity:
            raise SqlError("catalog region full")
        cursor = self.offset + self._used_words
        record = np.zeros(size, dtype=np.int64)
        name_words, name_len = _pack_name(name)
        record[0] = 0
        record[1] = name_len
        record[2:2 + _NAME_WORDS] = name_words
        record[2 + _NAME_WORDS] = len(columns)
        record[3 + _NAME_WORDS] = first_page
        record[4 + _NAME_WORDS] = 0  # reserved
        for i, col in enumerate(columns):
            base = _TABLE_FIXED + i * _COL_WORDS
            col_words, col_len = _pack_name(col.name)
            record[base] = _TYPE_CODES[col.sql_type]
            record[base + 1] = _col_flags(col)
            record[base + 2] = col_len
            record[base + 3:base + 3 + _NAME_WORDS] = col_words
        tx.write(cursor, record)
        count = self.device.read(self.meta_count_offset)
        tx.write(self.meta_count_offset,
                 np.array([count + 1], dtype=np.int64))
        self._used_words += size
        table = TableDef(name, tuple(columns), first_page, cursor)
        self.tables[name.lower()] = table
        return table

    def index_column(self, tx, table: TableDef, column_index: int,
                     unique: bool) -> None:
        """Flag the column INDEXED (and UNIQUE): one logged word."""
        flags = (_col_flags(table.columns[column_index]) | _COL_FLAG_INDEXED
                 | (_COL_FLAG_UNIQUE if unique else 0))
        offset = (table.record_offset + _TABLE_FIXED
                  + column_index * _COL_WORDS + 1)
        tx.write(offset, np.array([flags], dtype=np.int64))
        table.indexed[column_index] = unique

    def drop_table(self, tx, name: str) -> TableDef:
        table = self.get(name)
        tx.write(table.record_offset, np.array([_FLAG_DROPPED],
                                               dtype=np.int64))
        del self.tables[name.lower()]
        return table

    def get(self, name: str) -> TableDef:
        try:
            return self.tables[name.lower()]
        except KeyError:
            raise SqlError(f"no such table {name!r}") from None

    def exists(self, name: str) -> bool:
        return name.lower() in self.tables
