"""Engine tests: CRUD, transactions, durability, crash recovery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SqlError
from repro.h2.engine import Database


@pytest.fixture
def db():
    database = Database(size_words=1 << 19)
    database.execute("CREATE TABLE Person (id BIGINT PRIMARY KEY, "
                     "name VARCHAR(64), age INT)")
    return database


class TestCrud:
    def test_insert_select(self, db):
        db.execute("INSERT INTO Person VALUES (1, 'alice', 30)")
        rs = db.execute("SELECT * FROM Person")
        assert rs.rows == [(1, "alice", 30)]
        assert rs.columns == ["id", "name", "age"]

    def test_insert_with_params(self, db):
        db.execute("INSERT INTO Person (id, name, age) VALUES (?, ?, ?)",
                   (2, "bob", 41))
        rs = db.execute("SELECT name FROM Person WHERE id = ?", (2,))
        assert rs.rows == [("bob",)]

    def test_reexecute_with_new_params(self, db):
        sql = "INSERT INTO Person VALUES (?, 'same', ?)"
        for i in range(3):
            assert db.execute(sql, [i, 10 + i]).rows_affected == 1
        rs = db.execute("SELECT id, age FROM Person WHERE name = ?",
                        ["same"])
        assert sorted(rs.rows) == [(0, 10), (1, 11), (2, 12)]

    def test_update(self, db):
        db.execute("INSERT INTO Person VALUES (1, 'alice', 30)")
        affected = db.execute(
            "UPDATE Person SET age = 31 WHERE id = 1").rows_affected
        assert affected == 1
        assert db.execute("SELECT age FROM Person WHERE id = 1").scalar() == 31

    def test_update_grows_row(self, db):
        db.execute("INSERT INTO Person VALUES (1, 'a', 1)")
        db.execute("UPDATE Person SET name = ? WHERE id = 1",
                   ("a much longer name than before",))
        assert db.execute("SELECT name FROM Person WHERE id = 1").scalar() \
            == "a much longer name than before"

    def test_delete(self, db):
        db.execute("INSERT INTO Person VALUES (1, 'a', 1), (2, 'b', 2)")
        assert db.execute("DELETE FROM Person WHERE id = 1").rows_affected == 1
        assert db.execute("SELECT COUNT(*) FROM Person").scalar() == 1

    def test_count_and_where(self, db):
        for i in range(10):
            db.execute("INSERT INTO Person VALUES (?, ?, ?)",
                       (i, f"p{i}", i * 10))
        rs = db.execute("SELECT COUNT(*) FROM Person WHERE age >= 50")
        assert rs.scalar() == 5

    def test_order_by_and_limit(self, db):
        for i, age in enumerate([30, 10, 20]):
            db.execute("INSERT INTO Person VALUES (?, 'x', ?)", (i, age))
        rs = db.execute("SELECT age FROM Person ORDER BY age DESC LIMIT 2")
        assert rs.rows == [(30,), (20,)]

    def test_null_handling(self, db):
        db.execute("INSERT INTO Person VALUES (1, NULL, NULL)")
        assert db.execute(
            "SELECT COUNT(*) FROM Person WHERE name IS NULL").scalar() == 1
        assert db.execute(
            "SELECT COUNT(*) FROM Person WHERE age = 5").scalar() == 0

    def test_duplicate_pk_rejected(self, db):
        db.execute("INSERT INTO Person VALUES (1, 'a', 1)")
        with pytest.raises(SqlError):
            db.execute("INSERT INTO Person VALUES (1, 'b', 2)")
        # The failed statement must not leave a phantom row behind.
        assert db.execute("SELECT COUNT(*) FROM Person").scalar() == 1

    def test_type_validation(self, db):
        with pytest.raises(SqlError):
            db.execute("INSERT INTO Person VALUES ('not an id', 'a', 1)")

    def test_unknown_table(self, db):
        with pytest.raises(SqlError):
            db.execute("SELECT * FROM Nope")

    def test_unknown_column(self, db):
        with pytest.raises(SqlError):
            db.execute("SELECT wat FROM Person")

    def test_drop_table(self, db):
        db.execute("DROP TABLE Person")
        with pytest.raises(SqlError):
            db.execute("SELECT * FROM Person")
        db.execute("DROP TABLE IF EXISTS Person")  # no error

    def test_many_rows_span_pages(self, db):
        for i in range(300):
            db.execute("INSERT INTO Person VALUES (?, ?, ?)",
                       (i, f"name-{i}", i))
        assert db.execute("SELECT COUNT(*) FROM Person").scalar() == 300
        rs = db.execute("SELECT name FROM Person WHERE id = 299")
        assert rs.scalar() == "name-299"

    def test_secondary_index(self, db):
        db.execute("CREATE INDEX idx_age ON Person (age)")
        for i in range(20):
            db.execute("INSERT INTO Person VALUES (?, 'x', ?)", (i, i % 5))
        rs = db.execute("SELECT COUNT(*) FROM Person WHERE age = 3")
        assert rs.scalar() == 4


class TestTransactions:
    def test_commit_groups_statements(self, db):
        db.execute("BEGIN")
        db.execute("INSERT INTO Person VALUES (1, 'a', 1)")
        db.execute("INSERT INTO Person VALUES (2, 'b', 2)")
        db.execute("COMMIT")
        assert db.execute("SELECT COUNT(*) FROM Person").scalar() == 2

    def test_rollback_discards(self, db):
        db.execute("INSERT INTO Person VALUES (1, 'keep', 1)")
        db.execute("BEGIN")
        db.execute("INSERT INTO Person VALUES (2, 'discard', 2)")
        db.execute("UPDATE Person SET name = 'changed' WHERE id = 1")
        db.execute("ROLLBACK")
        rs = db.execute("SELECT name FROM Person")
        assert rs.rows == [("keep",)]

    def test_programmatic_api(self, db):
        db.begin()
        db.execute("INSERT INTO Person VALUES (1, 'a', 1)")
        db.rollback()
        assert db.execute("SELECT COUNT(*) FROM Person").scalar() == 0


class TestDurability:
    def test_committed_data_survives_crash(self, db):
        db.execute("INSERT INTO Person VALUES (1, 'alice', 30)")
        db2 = db.crash()
        assert db2.execute("SELECT name FROM Person WHERE id = 1").scalar() \
            == "alice"

    def test_uncommitted_tx_rolled_back_on_crash(self, db):
        db.execute("INSERT INTO Person VALUES (1, 'keep', 1)")
        db.execute("BEGIN")
        db.execute("INSERT INTO Person VALUES (2, 'lost', 2)")
        # no COMMIT: crash now
        db2 = db.crash()
        rs = db2.execute("SELECT name FROM Person")
        assert rs.rows == [("keep",)]
        assert db2.recovery_stats[1] > 0  # some writes were undone

    def test_ddl_survives_crash(self, db):
        db.execute("CREATE TABLE Extra (k INT PRIMARY KEY)")
        db.execute("INSERT INTO Extra VALUES (7)")
        db2 = db.crash()
        assert db2.execute("SELECT COUNT(*) FROM Extra").scalar() == 1

    def test_repeated_crashes(self, db):
        database = db
        for round_no in range(3):
            database.execute("INSERT INTO Person VALUES (?, 'r', 0)",
                             (round_no,))
            database = database.crash()
        assert database.execute("SELECT COUNT(*) FROM Person").scalar() == 3

    def test_checkpoint_then_crash(self, db):
        db.execute("INSERT INTO Person VALUES (1, 'a', 1)")
        db.checkpoint()
        db2 = db.crash()
        assert db2.recovery_stats == (0, 0)  # nothing to replay
        assert db2.execute("SELECT COUNT(*) FROM Person").scalar() == 1


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 100),
                          st.booleans()),
                min_size=1, max_size=30))
def test_property_engine_matches_dict(ops):
    """Property: insert/update keyed by pk behaves like a dict."""
    db = Database(size_words=1 << 19)
    db.execute("CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT)")
    model = {}
    for k, v, delete in ops:
        if delete:
            affected = db.execute("DELETE FROM kv WHERE k = ?",
                                  (k,)).rows_affected
            assert affected == (1 if k in model else 0)
            model.pop(k, None)
        elif k in model:
            db.execute("UPDATE kv SET v = ? WHERE k = ?", (v, k))
            model[k] = v
        else:
            db.execute("INSERT INTO kv VALUES (?, ?)", (k, v))
            model[k] = v
    assert db.execute("SELECT COUNT(*) FROM kv").scalar() == len(model)
    for k, v in model.items():
        assert db.execute("SELECT v FROM kv WHERE k = ?", (k,)).scalar() == v
