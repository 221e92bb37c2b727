"""Index definitions are catalog state.

``CREATE [UNIQUE] INDEX`` sets the column's INDEXED (and UNIQUE) flag bits
in its catalog record through the statement's WAL transaction, and every
mount rebuilds the flagged columns' indexes from the rows.  So a rollback,
a failed autocommit statement or a crash keeps exactly the committed index
definitions, and a crash inside the CREATE leaves the index wholly present
or wholly absent.  One index per column: a repeat is a no-op, uniqueness
never goes down, and UNIQUE over a plain index validates, then upgrades.
"""

import hashlib

import pytest

from repro.errors import SimulatedCrash, SqlError
from repro.h2.engine import Database
from repro.jpa.entity_manager import JpaEntityManager
from repro.jpab.model import CollectionPerson

ROWS = {k: f"v{k}" for k in range(8)}


def _table():
    db = Database(size_words=1 << 18)
    db.execute("CREATE TABLE t (k BIGINT PRIMARY KEY, v VARCHAR)")
    for k, v in ROWS.items():
        db.execute("INSERT INTO t VALUES (?, ?)", (k, v))
    return db


def _unique_holds(db):
    with pytest.raises(SqlError, match="unique index violation"):
        db.execute("INSERT INTO t VALUES (100, 'v1')")
    assert db.execute("SELECT k FROM t WHERE v = 'v3'").rows == [(3,)]


def _unique_table():
    db = _table()
    db.execute("CREATE UNIQUE INDEX ix_v ON t (v)")
    _unique_holds(db)
    return db


# -- the definition survives everything that rebuilds volatile state -------
def test_unique_index_survives_an_unrelated_failed_insert():
    db = _unique_table()
    with pytest.raises(SqlError):
        db.execute("INSERT INTO t VALUES (1, 'other')")  # duplicate PK
    _unique_holds(db)


def test_unique_index_survives_an_explicit_rollback():
    db = _unique_table()
    db.execute("BEGIN")
    db.execute("INSERT INTO t VALUES (50, 'v50')")
    db.execute("ROLLBACK")
    _unique_holds(db)


def test_unique_index_survives_a_crash():
    db = _unique_table().crash()
    _unique_holds(db)


def test_index_created_in_a_rolled_back_transaction_is_gone():
    db = _table()
    db.execute("BEGIN")
    db.execute("CREATE UNIQUE INDEX ix_v ON t (v)")
    db.execute("ROLLBACK")
    assert db.catalog.get("t").indexed == {}
    assert db.indexes["t"].get(1) is None
    db.execute("INSERT INTO t VALUES (100, 'v1')")  # no index to refuse it
    assert db.crash().catalog.get("t").indexed == {}


# -- one index per column ---------------------------------------------------
def test_plain_index_over_the_primary_key_keeps_it_unique():
    db = _table()
    db.execute("CREATE INDEX ix_k ON t (k)")
    for database in (db, db.crash()):
        with pytest.raises(SqlError, match="unique index violation"):
            database.execute("INSERT INTO t VALUES (1, 'again')")


def test_plain_index_over_a_unique_one_keeps_it_unique():
    db = _unique_table()
    db.execute("CREATE INDEX ix_v2 ON t (v)")
    assert db.catalog.get("t").indexed == {1: True}
    _unique_holds(db)
    _unique_holds(db.crash())


def test_unique_over_a_plain_index_upgrades_after_validating():
    db = _table()
    db.execute("CREATE INDEX ix_v ON t (v)")
    db.execute("INSERT INTO t VALUES (100, 'v1')")
    with pytest.raises(SqlError, match="unique index violation"):
        db.execute("CREATE UNIQUE INDEX ix_v2 ON t (v)")
    assert db.catalog.get("t").indexed == {1: False}
    assert db.execute("SELECT k FROM t WHERE v = 'v1'").rows == [(1,), (100,)]
    db.execute("DELETE FROM t WHERE k = 100")
    db.execute("CREATE UNIQUE INDEX ix_v2 ON t (v)")
    assert db.catalog.get("t").indexed == {1: True}
    _unique_holds(db)
    _unique_holds(db.crash())


def test_create_schema_reruns_on_a_reopened_database():
    em = JpaEntityManager(Database(size_words=1 << 20))
    em.create_schema([CollectionPerson])
    tx = em.get_transaction()
    tx.begin()
    em.persist(CollectionPerson(1, "p", ["a", "b"]))
    tx.commit()
    db = em.database.crash()
    em = JpaEntityManager(db)
    em.create_schema([CollectionPerson])
    assert db.catalog.get("CollectionPerson_phones").indexed == {0: False}
    assert em.find(CollectionPerson, 1).phones == ["a", "b"]


# -- crash atomicity of the CREATE ------------------------------------------
def _cut_create(mode, seed, nth):
    """Power cut after the nth clflush of the CREATE, then reopen; None
    once the CREATE completes in fewer flushes."""
    db = _table()
    device = db.device
    device.set_fault_mode(mode, seed=seed)
    original, seen = device.clflush, []

    def guarded(offset, count=1, asynchronous=False):
        original(offset, count, asynchronous)
        seen.append(offset)
        if len(seen) == nth:
            raise SimulatedCrash(f"power cut after CREATE INDEX flush {nth}")

    device.clflush = guarded
    try:
        db.execute("CREATE UNIQUE INDEX ix_v ON t (v)")
    except SimulatedCrash:
        del device.__dict__["clflush"]
        return db.crash()
    return None


@pytest.mark.parametrize("mode", ["atomic", "torn", "reordered"])
@pytest.mark.parametrize("seed", range(3))
def test_a_crash_inside_create_index_is_all_or_nothing(mode, seed):
    outcomes = []
    nth = 1
    while (db := _cut_create(mode, seed, nth)) is not None:
        assert dict(db.execute("SELECT k, v FROM t").rows) == ROWS
        indexed = db.catalog.get("t").indexed
        index = db.indexes["t"].get(1)
        if indexed:
            assert indexed == {1: True}, (mode, seed, nth)
            assert index.unique
            assert sum(len(index.lookup(v)) for v in ROWS.values()) \
                == len(ROWS)
            for k, v in ROWS.items():
                assert db.execute("SELECT k FROM t WHERE v = ?",
                                  (v,)).rows == [(k,)], (mode, seed, nth)
            _unique_holds(db)
        else:
            assert index is None, (mode, seed, nth)
            db.execute("INSERT INTO t VALUES (100, 'v1')")
        outcomes.append(bool(indexed))
        nth += 1
    # The first flush precedes the COMMIT record: absent.  Under ATOMIC
    # the last one is the COMMIT record's own: present.
    assert outcomes[0] is False
    assert outcomes[-1] is True or mode != "atomic"


# -- databases without CREATE INDEX keep their durable format ---------------
def test_an_index_free_database_keeps_its_durable_image():
    db = Database(size_words=1 << 18)
    db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, name VARCHAR NOT NULL, "
               "n INTEGER)")
    db.execute("CREATE TABLE u (owner_id BIGINT NOT NULL, idx INTEGER NOT NULL, "
               "element VARCHAR)")
    for k in range(12):
        db.execute("INSERT INTO t VALUES (?, ?, ?)", (k, f"n{k}", k * 3))
        db.execute("INSERT INTO u VALUES (?, ?, ?)", (k % 4, k, f"e{k}"))
    db.execute("UPDATE t SET n = 7 WHERE id = 3")
    db.execute("DELETE FROM u WHERE owner_id = 2")
    with pytest.raises(SqlError):
        db.execute("INSERT INTO t VALUES (1, 'dup', 0)")
    db.begin()
    db.execute("INSERT INTO t VALUES (99, 'gone', 0)")
    db.rollback()
    db = db.crash()
    db.execute("INSERT INTO u VALUES (5, 0, 'after')")
    digest = hashlib.sha256(db.device.durable_image().tobytes()).hexdigest()
    assert digest == ("be5bdd74291b1ae7e63c5b80756e50ce"
                      "371aada079bedcca513b32a284158397")
