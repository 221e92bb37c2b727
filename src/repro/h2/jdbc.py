"""A JDBC-shaped driver facade over the embedded engine.

Paper Figure 1: the JPA provider "communicates with RDBMSes via the Java
Database Connectivity (JDBC) interface" — so the provider in
:mod:`repro.jpa` talks to this module, not to the engine directly.  Only
the surface the provider needs is modelled: connections, statements and
prepared statements with positional parameters.
"""

from __future__ import annotations

from typing import Any, List

from repro.errors import IllegalArgumentException
from repro.h2.engine import Database, ResultSet


class PreparedStatement:
    """A parsed-on-execute statement with ``?`` placeholders."""

    def __init__(self, connection: "Connection", sql: str) -> None:
        self.connection = connection
        self.sql = sql
        self._params: List[Any] = []

    def set_param(self, index: int, value: Any) -> None:
        """1-based, like JDBC's setObject."""
        if index < 1:
            raise IllegalArgumentException("JDBC parameters are 1-based")
        while len(self._params) < index:
            self._params.append(None)
        self._params[index - 1] = value

    def execute(self) -> ResultSet:
        return self.connection.database.execute(self.sql, self._params)

    def execute_query(self) -> ResultSet:
        return self.execute()

    def execute_update(self) -> int:
        return self.execute().rows_affected

    def clear_parameters(self) -> None:
        self._params = []


class Statement:
    def __init__(self, connection: "Connection") -> None:
        self.connection = connection

    def execute(self, sql: str) -> ResultSet:
        return self.connection.database.execute(sql)


class Connection:
    """One JDBC connection (the engine is embedded, so it is a thin shim)."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self._auto_commit = True

    def create_statement(self) -> Statement:
        return Statement(self)

    def prepare_statement(self, sql: str) -> PreparedStatement:
        return PreparedStatement(self, sql)

    # -- transaction control, JDBC style ------------------------------------
    def set_auto_commit(self, value: bool) -> None:
        if not value and not self.database.in_transaction:
            self.database.begin()
        self._auto_commit = value

    def commit(self) -> None:
        if self.database.in_transaction:
            self.database.commit()
        if not self._auto_commit:
            self.database.begin()

    def rollback(self) -> None:
        if self.database.in_transaction:
            self.database.rollback()
        if not self._auto_commit:
            self.database.begin()

    def close(self) -> None:
        if self.database.in_transaction:
            self.database.rollback()


def connect(database: Database) -> Connection:
    return Connection(database)
