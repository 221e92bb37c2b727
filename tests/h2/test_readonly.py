"""A transaction that writes nothing logs nothing.

The WAL sees a transaction only at its first WRITE, so a read-only
autocommit statement, a read-only ``BEGIN … COMMIT`` and a statement that
fails before writing cost no flush, no fence and no device write — and
rolling one back re-reads nothing, because nothing durable changed.
"""

import pytest

from repro.errors import SqlError
from repro.h2.engine import Database
from repro.obs import NULL_OBS, Observatory

ROWS = 1000


def _small_db(obs=NULL_OBS):
    db = Database(size_words=1 << 18, obs=obs)
    db.execute("CREATE TABLE t (k BIGINT PRIMARY KEY, v VARCHAR)")
    for k in range(4):
        db.execute("INSERT INTO t VALUES (?, ?)", (k, f"v{k}"))
    return db


@pytest.fixture(scope="module")
def big_db():
    db = Database(size_words=1 << 20)
    db.execute("CREATE TABLE big (k BIGINT PRIMARY KEY, v VARCHAR)")
    for start in range(0, ROWS, 100):
        db.execute("BEGIN")
        for k in range(start, start + 100):
            db.execute("INSERT INTO big VALUES (?, ?)", (k, f"row{k}"))
        db.execute("COMMIT")
        db.checkpoint()  # keep the WAL from filling up
    return db


def _delta(db, statements):
    before = db.device.stats.snapshot()
    for sql in statements:
        db.execute(sql)
    return db.device.stats.delta(before)


@pytest.mark.parametrize("statements", [
    ["SELECT * FROM t"],
    ["SELECT v FROM t WHERE k = 2"],
    ["SELECT COUNT(*) FROM t"],
    ["BEGIN", "SELECT * FROM t", "SELECT v FROM t WHERE k = 1", "COMMIT"],
    ["BEGIN", "SELECT * FROM t", "ROLLBACK"],
    ["BEGIN", "UPDATE t SET v = 'x' WHERE k = 99", "COMMIT"],
], ids=["scan", "probe", "count", "begin-commit", "begin-rollback",
        "update-of-nothing"])
def test_a_read_only_transaction_issues_no_persist(statements):
    db = _small_db()
    delta = _delta(db, statements)
    assert (delta.flushes, delta.fences, delta.writes) == (0, 0, 0)


def test_a_writing_transaction_still_logs():
    db = _small_db()
    delta = _delta(db, ["UPDATE t SET v = 'x' WHERE k = 1"])
    assert delta.fences == 2  # BEGIN + WRITE, then COMMIT
    assert db.execute("SELECT v FROM t WHERE k = 1").scalar() == "x"


def test_a_failed_select_reads_nothing(big_db):
    before = big_db.device.stats.snapshot()
    with pytest.raises(SqlError):
        big_db.execute("SELECT * FROM missing")
    delta = big_db.device.stats.delta(before)
    assert (delta.reads, delta.writes, delta.flushes, delta.fences) \
        == (0, 0, 0, 0)


def test_rolling_back_a_read_only_transaction_reads_nothing(big_db):
    big_db.execute("BEGIN")
    assert big_db.execute("SELECT v FROM big WHERE k = 7").scalar() == "row7"
    before = big_db.device.stats.snapshot()
    big_db.execute("ROLLBACK")
    delta = big_db.device.stats.delta(before)
    assert (delta.reads, delta.writes, delta.flushes, delta.fences) \
        == (0, 0, 0, 0)
    assert big_db.execute("SELECT COUNT(*) FROM big").scalar() == ROWS


def test_a_failed_insert_before_its_first_write_keeps_row_ids():
    """The row id is claimed only with the row's logged write, so a value
    rejected before it leaves nothing to rebuild."""
    db = _small_db()
    with pytest.raises(SqlError):
        db.execute("INSERT INTO t VALUES (?, ?)", (10, 3.5))
    db.execute("INSERT INTO t VALUES (?, ?)", (10, "ten"))
    assert db.storages["t"].next_row_id == 6
    assert db.execute("SELECT v FROM t WHERE k = 10").scalar() == "ten"


def test_the_readonly_counter_costs_no_time():
    obs = Observatory()
    db = _small_db(obs)
    counters = obs.metrics.counters_snapshot
    assert counters().get("wal.readonly", 0) == 0
    db.execute("SELECT * FROM t")
    db.execute("BEGIN")
    db.execute("SELECT * FROM t")
    db.execute("ROLLBACK")
    with pytest.raises(SqlError):
        db.execute("SELECT * FROM missing")
    db.execute("DELETE FROM t WHERE k = 0")       # writes: not read-only
    assert counters()["wal.readonly"] == 3
    tx = db.txman.begin()
    now = db.clock.now_ns
    db.txman.commit(tx)
    assert db.clock.now_ns == now
    assert counters()["wal.readonly"] == 4
