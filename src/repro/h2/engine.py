"""The H2-style database engine: executor over catalog, storage, WAL.

One :class:`Database` instance is one database "file" on a simulated
NVDIMM (its own :class:`~repro.nvm.device.NvmDevice`), exactly the setup
of the paper's baseline where unmodified H2 runs on NVM.  SQL statements
arrive as text (from the JPA provider), are parsed against
simulated CPU cost, and executed with crash-consistent WAL transactions.

Device layout::

    [meta 16][catalog][WAL][pages ...]
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import IllegalStateException, SqlError
from repro.nvm.clock import Clock
from repro.nvm.device import NvmDevice
from repro.nvm.latency import DEFAULT_LATENCY, LatencyConfig
from repro.nvm.persist import PersistDomain
from repro.obs import NULL_OBS, Observatory

from repro.h2.ast_nodes import (
    Aggregate,
    Begin,
    BinaryOp,
    ColumnRef,
    Commit,
    CreateIndex,
    CreateTable,
    Delete,
    DropTable,
    Expr,
    InList,
    Insert,
    IsNull,
    Like,
    Literal,
    Param,
    Rollback,
    Select,
    Statement,
    UnaryOp,
    Update,
)
from repro.h2.catalog import Catalog, TableDef
from repro.h2.eval import ExpressionEvaluator
from repro.h2.index import HashIndex, TableIndexes
from repro.h2.parser import parse
from repro.h2.storage import PageManager, TableStorage
from repro.h2.transaction import TransactionManager, TxContext
from repro.h2.wal import WriteAheadLog

# Meta word offsets.
_MAGIC = 0
_PAGE_WORDS = 1
_NEXT_PAGE = 2
_TABLE_COUNT = 3
_WAL_WORDS = 4
_CATALOG_WORDS = 5
_META_WORDS = 16

DB_MAGIC = 0x48324442  # "H2DB"


@dataclass
class ResultSet:
    """Query result: column names + row tuples (or an affected-row count)."""

    columns: List[str] = field(default_factory=list)
    rows: List[Tuple] = field(default_factory=list)
    rows_affected: int = 0

    def scalar(self) -> Any:
        if not self.rows or not self.rows[0]:
            return None
        return self.rows[0][0]


class Database:
    """One embedded database over one NVM device."""

    def __init__(self, size_words: int = 1 << 21,
                 clock: Optional[Clock] = None,
                 latency: LatencyConfig = DEFAULT_LATENCY,
                 page_words: int = 512,
                 wal_words: int = 1 << 16,
                 catalog_words: int = 8192,
                 device: Optional[NvmDevice] = None,
                 name: str = "h2",
                 obs: Observatory = NULL_OBS) -> None:
        self.clock = clock if clock is not None else Clock()
        self.obs = obs
        self.obs.bind_clock(self.clock)
        fresh = device is None
        self.device = device if device is not None else NvmDevice(
            size_words, self.clock, latency, name=name)
        d = self.device
        self.obs.register_device(name, d)
        self.persist = PersistDomain(d, name="h2-meta")
        if fresh:
            d.write(_PAGE_WORDS, page_words)
            d.write(_WAL_WORDS, wal_words)
            d.write(_CATALOG_WORDS, catalog_words)
            d.write(_NEXT_PAGE, 0)
            d.write(_TABLE_COUNT, 0)
            d.write(_MAGIC, DB_MAGIC)
            self.persist.persist(0, _META_WORDS)
        elif d.read(_MAGIC) != DB_MAGIC:
            raise SqlError("device does not contain a database")
        page_words = d.read(_PAGE_WORDS)  # the layout as created
        wal_words = d.read(_WAL_WORDS)
        catalog_words = d.read(_CATALOG_WORDS)
        catalog_offset = _META_WORDS
        wal_offset = catalog_offset + catalog_words
        pages_offset = wal_offset + wal_words
        self.wal = WriteAheadLog(d, wal_offset, wal_words, obs=self.obs)
        self.catalog = Catalog(d, catalog_offset, catalog_words, _TABLE_COUNT)
        self.pages = PageManager(d, pages_offset, page_words, _NEXT_PAGE)
        self.txman = TransactionManager(self.wal)
        self.storages: Dict[str, TableStorage] = {}
        self.indexes: Dict[str, TableIndexes] = {}
        from repro.h2.wal import WalRecovery
        self.recovery_stats: Tuple[int, int] = (0, 0)
        self.wal_recovery = WalRecovery(0, 0, 0, 0)
        if not fresh:
            self.wal_recovery = self.wal.recover()
            self.recovery_stats = (self.wal_recovery.redone,
                                   self.wal_recovery.undone)
        self._reload_volatile()
        self.cpu_op_ns = latency.cpu_op_ns
        self._evaluator = ExpressionEvaluator(self.clock, self.cpu_op_ns)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _reload_volatile(self) -> None:
        self.catalog.load()
        self.storages.clear()
        self.indexes.clear()
        for key, table in self.catalog.tables.items():
            self._mount_table(table)

    def _mount_table(self, table: TableDef) -> None:
        storage = TableStorage(table, self.pages)
        indexes = TableIndexes()
        pk = table.primary_key_index
        if pk is not None:
            indexes.add_index(pk, HashIndex(table.name,
                                            table.columns[pk].name,
                                            unique=True))
        for column_index, unique in table.indexed.items():
            indexes.add_index(column_index, HashIndex(
                table.name, table.columns[column_index].name, unique))
        indexes.rebuild(storage)
        key = table.name.lower()
        self.storages[key] = storage
        self.indexes[key] = indexes

    def checkpoint(self) -> None:
        """Flush everything and truncate the WAL (graceful shutdown)."""
        if self.txman.current is not None:
            raise IllegalStateException("checkpoint inside a transaction")
        self.wal.checkpoint()

    def crash(self, obs: Optional[Observatory] = None) -> "Database":
        """Power loss: drop unflushed lines, reopen from durable state.

        The successor inherits this database's observatory unless the
        caller supplies a fresh one (e.g. to keep pre- and post-crash
        timelines separate).
        """
        self.device.crash()
        return Database(device=self.device, clock=self.clock,
                        obs=obs if obs is not None else self.obs)

    # ------------------------------------------------------------------
    # Transactions (programmatic + SQL-level)
    # ------------------------------------------------------------------
    def begin(self) -> None:
        self.txman.begin()

    def commit(self) -> None:
        tx = self.txman.current
        if tx is None:
            raise IllegalStateException("COMMIT outside a transaction")
        self.txman.commit(tx)

    def rollback(self) -> None:
        tx = self.txman.current
        if tx is None:
            raise IllegalStateException("ROLLBACK outside a transaction")
        self._rollback(tx)

    def _rollback(self, tx: TxContext) -> None:
        logged = tx.logged
        self.txman.rollback(tx)
        if logged:
            # Volatile structures may reflect rolled-back changes: rebuild.
            # A transaction that logged nothing changed nothing durable,
            # and every statement mutates its volatile state only after
            # its first logged write.
            self._reload_volatile()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        statement = parse(sql, self.clock, self.cpu_op_ns)
        return self.execute_statement(statement, params)

    def execute_statement(self, statement: Statement,
                          params: Sequence[Any] = ()) -> ResultSet:
        if isinstance(statement, Begin):
            self.begin()
            return ResultSet()
        if isinstance(statement, Commit):
            self.commit()
            return ResultSet()
        if isinstance(statement, Rollback):
            self.rollback()
            return ResultSet()

        autocommit = self.txman.current is None
        if autocommit:
            tx = self.txman.begin()
        else:
            tx = self.txman.current
        try:
            result = self._dispatch(statement, params, tx)
        except BaseException:
            if autocommit:
                self._rollback(tx)
            raise
        if autocommit:
            self.txman.commit(tx)
        return result

    def _dispatch(self, statement: Statement, params: Sequence[Any],
                  tx: TxContext) -> ResultSet:
        if isinstance(statement, CreateTable):
            return self._create_table(statement, tx)
        if isinstance(statement, DropTable):
            return self._drop_table(statement, tx)
        if isinstance(statement, CreateIndex):
            return self._create_index(statement, tx)
        if isinstance(statement, Insert):
            return self._insert(statement, params, tx)
        if isinstance(statement, Select):
            return self._select(statement, params)
        if isinstance(statement, Update):
            return self._update(statement, params, tx)
        if isinstance(statement, Delete):
            return self._delete(statement, params, tx)
        raise SqlError(f"unsupported statement {type(statement).__name__}")

    # -- DDL ------------------------------------------------------------------
    def _create_table(self, stmt: CreateTable, tx: TxContext) -> ResultSet:
        if self.catalog.exists(stmt.table):
            if stmt.if_not_exists:
                return ResultSet()
            raise SqlError(f"table {stmt.table!r} already exists")
        pk_count = sum(1 for c in stmt.columns if c.primary_key)
        if pk_count > 1:
            raise SqlError("composite primary keys are not supported")
        first_page = self.pages.allocate(tx)
        table = self.catalog.append_table(tx, stmt.table, stmt.columns,
                                          first_page)
        self._mount_table(table)
        return ResultSet()

    def _drop_table(self, stmt: DropTable, tx: TxContext) -> ResultSet:
        if not self.catalog.exists(stmt.table):
            if stmt.if_exists:
                return ResultSet()
            raise SqlError(f"no such table {stmt.table!r}")
        self.catalog.drop_table(tx, stmt.table)
        self.storages.pop(stmt.table.lower(), None)
        self.indexes.pop(stmt.table.lower(), None)
        return ResultSet()

    def _create_index(self, stmt: CreateIndex, tx: TxContext) -> ResultSet:
        """One index per column, and uniqueness never goes down: a repeat
        (or a plain index over a unique one) is a no-op, and UNIQUE over
        a plain index validates the rows before it upgrades."""
        table = self.catalog.get(stmt.table)
        column_index = table.column_index(stmt.column)
        indexes = self.indexes[stmt.table.lower()]
        current = indexes.get(column_index)
        if current is not None and (current.unique or not stmt.unique):
            return ResultSet()
        index = HashIndex(table.name, table.columns[column_index].name,
                          stmt.unique)
        storage = self.storages[stmt.table.lower()]
        for row_id, values in storage.scan():
            index.add(values[column_index], row_id)
        self.catalog.index_column(tx, table, column_index, stmt.unique)
        indexes.add_index(column_index, index)
        return ResultSet()

    # -- expression evaluation ----------------------------------------------------
    def _eval(self, expr: Expr, table: Optional[TableDef],
              row: Optional[List[Any]], params: Sequence[Any]) -> Any:
        def resolve(name: str) -> Any:
            if table is None or row is None:
                raise SqlError(f"column {name!r} not allowed here")
            return row[table.column_index(name)]

        return self._evaluator.evaluate(expr, resolve, params)

    # -- WHERE planning --------------------------------------------------------------
    def _index_probe(self, table: TableDef, where: Optional[Expr],
                     params: Sequence[Any]) -> Optional[List[int]]:
        """Row ids for an indexed equality WHERE, else None (full scan)."""
        if not isinstance(where, BinaryOp) or where.op != "=":
            return None
        column, value_expr = None, None
        if isinstance(where.left, ColumnRef):
            column, value_expr = where.left, where.right
        elif isinstance(where.right, ColumnRef):
            column, value_expr = where.right, where.left
        if column is None or isinstance(value_expr, ColumnRef):
            return None
        column_index = table.column_index(column.name)
        index = self.indexes[table.name.lower()].get(column_index)
        if index is None:
            return None
        value = self._eval(value_expr, None, None, params)
        return index.lookup(value)

    def _matching_rows(self, table: TableDef, where: Optional[Expr],
                       params: Sequence[Any]):
        storage = self.storages[table.name.lower()]
        probe = self._index_probe(table, where, params)
        if probe is not None:
            for row_id in probe:
                values = storage.read_row(row_id)
                if values is not None:
                    yield row_id, values
            return
        scanned = 0
        for row_id, values in storage.scan():
            scanned += 1
            if where is None \
                    or self._eval(where, table, values, params) is True:
                yield row_id, values
        self.obs.inc("h2.rows_scanned", scanned)

    # -- DML ---------------------------------------------------------------------------
    def _insert(self, stmt: Insert, params: Sequence[Any],
                tx: TxContext) -> ResultSet:
        table = self.catalog.get(stmt.table)
        storage = self.storages[stmt.table.lower()]
        indexes = self.indexes[stmt.table.lower()]
        count = 0
        for row_exprs in stmt.values:
            if stmt.columns:
                if len(row_exprs) != len(stmt.columns):
                    raise SqlError("INSERT arity mismatch")
                values: List[Any] = [None] * len(table.columns)
                for name, expr in zip(stmt.columns, row_exprs):
                    values[table.column_index(name)] = self._eval(
                        expr, None, None, params)
            else:
                if len(row_exprs) != len(table.columns):
                    raise SqlError("INSERT arity mismatch")
                values = [self._eval(e, None, None, params)
                          for e in row_exprs]
            row_id = storage.insert(tx, values)
            try:
                indexes.on_insert(row_id, values)
            except SqlError:
                storage.delete(tx, row_id)
                raise
            count += 1
        return ResultSet(rows_affected=count)

    def _select(self, stmt: Select, params: Sequence[Any]) -> ResultSet:
        table = self.catalog.get(stmt.table)
        matches = list(self._matching_rows(table, stmt.where, params))
        if stmt.order_by:
            # Stable multi-key sort: apply keys right-to-left; NULLs first.
            for order in reversed(stmt.order_by):
                column_index = table.column_index(order.column)

                def key_of(item, _ci=column_index):
                    value = item[1][_ci]
                    return (value is not None, value) if value is not None \
                        else (False, 0)

                matches.sort(key=key_of, reverse=order.descending)
        if stmt.aggregates:
            # Standard SQL: LIMIT/OFFSET apply to the result rows of the
            # aggregation, not to its inputs.
            if stmt.group_by:
                result = self._grouped_result(stmt, table, matches, params)
            else:
                result = self._aggregate_result(stmt.aggregates, table,
                                                matches)
            start = stmt.offset or 0
            end = (start + stmt.limit) if stmt.limit is not None else None
            result.rows = result.rows[start:end]
            return result
        start = stmt.offset or 0
        if stmt.limit is not None:
            matches = matches[start:start + stmt.limit]
        elif start:
            matches = matches[start:]
        if stmt.columns == ("*",):
            names = table.column_names
            rows = [tuple(values) for _id, values in matches]
        else:
            names = list(stmt.columns)
            picks = [table.column_index(c) for c in stmt.columns]
            rows = [tuple(values[i] for i in picks) for _id, values in matches]
        if stmt.distinct:
            seen = set()
            unique = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    unique.append(row)
            rows = unique
        return ResultSet(columns=names, rows=rows)

    def _grouped_result(self, stmt: Select, table: TableDef,
                        matches, params: Sequence[Any] = ()) -> ResultSet:
        """GROUP BY: per-group aggregation.  Output rows carry the selected
        plain columns (all of which are grouping columns, validated by the
        parser) followed by the aggregates, one row per group, ordered by
        the group key unless ORDER BY says otherwise."""
        group_list = list(stmt.group_by)
        group_indices = [table.column_index(c) for c in group_list]
        groups: Dict[Tuple, list] = {}
        for item in matches:
            key = tuple(item[1][i] for i in group_indices)
            groups.setdefault(key, []).append(item)

        def null_safe(value):
            return (value is not None, value if value is not None else 0)

        entries = [(key, self._aggregate_result(
                        stmt.aggregates, table, groups[key]).rows[0])
                   for key in sorted(groups,
                                     key=lambda k: tuple(null_safe(v)
                                                         for v in k))]
        if stmt.having is not None:
            aggregate_names = [f"{a.function}({a.column})"
                               for a in stmt.aggregates]

            def keep(entry):
                key, aggregated = entry

                def resolve(name: str):
                    if name in aggregate_names:
                        return aggregated[aggregate_names.index(name)]
                    if name in group_list:
                        return key[group_list.index(name)]
                    raise SqlError(
                        f"HAVING references {name!r}, which is neither a "
                        f"group column nor a selected aggregate")

                return self._evaluator.evaluate(stmt.having, resolve,
                                                params) is True

            entries = [entry for entry in entries if keep(entry)]
        if stmt.order_by:
            for order in reversed(stmt.order_by):
                if order.column not in group_list:
                    raise SqlError(
                        "ORDER BY with GROUP BY supports group columns only")
                position = group_list.index(order.column)
                entries.sort(key=lambda e, _p=position: null_safe(e[0][_p]),
                             reverse=order.descending)
        selected_positions = [group_list.index(c) for c in stmt.columns]
        names = list(stmt.columns) + [
            f"{a.function}({a.column})" for a in stmt.aggregates]
        rows = [tuple(key[p] for p in selected_positions) + aggregated
                for key, aggregated in entries]
        return ResultSet(columns=names, rows=rows)

    def _aggregate_result(self, aggregates, table: TableDef,
                          matches) -> ResultSet:
        names: List[str] = []
        row: List[Any] = []
        for aggregate in aggregates:
            names.append(f"{aggregate.function}({aggregate.column})")
            self.clock.charge(self.cpu_op_ns * max(1, len(matches)))
            if aggregate.column == "*":
                row.append(len(matches))
                continue
            index = table.column_index(aggregate.column)
            values = [v[index] for _id, v in matches if v[index] is not None]
            if aggregate.function == "COUNT":
                row.append(len(values))
            elif not values:
                row.append(None)  # SQL: aggregates over nothing are NULL
            elif aggregate.function == "SUM":
                row.append(sum(values))
            elif aggregate.function == "AVG":
                row.append(sum(values) / len(values))
            elif aggregate.function == "MIN":
                row.append(min(values))
            else:
                row.append(max(values))
        return ResultSet(columns=names, rows=[tuple(row)])

    def _update(self, stmt: Update, params: Sequence[Any],
                tx: TxContext) -> ResultSet:
        table = self.catalog.get(stmt.table)
        storage = self.storages[stmt.table.lower()]
        indexes = self.indexes[stmt.table.lower()]
        targets = [(i, e) for i, e in
                   ((table.column_index(name), expr)
                    for name, expr in stmt.assignments)]
        count = 0
        for row_id, values in list(self._matching_rows(table, stmt.where,
                                                       params)):
            new_values = list(values)
            for column_index, expr in targets:
                new_values[column_index] = self._eval(
                    expr, table, values, params)
            storage.update(tx, row_id, new_values)
            indexes.on_update(row_id, values, new_values)
            count += 1
        return ResultSet(rows_affected=count)

    def _delete(self, stmt: Delete, params: Sequence[Any],
                tx: TxContext) -> ResultSet:
        table = self.catalog.get(stmt.table)
        storage = self.storages[stmt.table.lower()]
        indexes = self.indexes[stmt.table.lower()]
        count = 0
        for row_id, values in list(self._matching_rows(table, stmt.where,
                                                       params)):
            storage.delete(tx, row_id)
            indexes.on_delete(row_id, values)
            count += 1
        return ResultSet(rows_affected=count)
