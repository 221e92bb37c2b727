"""Unit tests for the page manager, row store, WAL and catalog."""

import numpy as np
import pytest

from repro.errors import CorruptHeapError, SqlError
from repro.h2.ast_nodes import ColumnDef
from repro.h2.catalog import Catalog, TableDef
from repro.h2.engine import Database
from repro.h2.storage import NO_PAGE, PageManager, TableStorage
from repro.h2.values import SqlType
from repro.h2.wal import REC_COMMIT, REC_WRITE, WriteAheadLog


@pytest.fixture
def db():
    return Database(size_words=1 << 18, page_words=128)


def make_table(db, name="t"):
    db.execute(f"CREATE TABLE {name} (id BIGINT PRIMARY KEY, s VARCHAR)")
    return db.storages[name.lower()], db.catalog.get(name)


class TestPageManager:
    def test_pages_are_disjoint(self, db):
        db.begin()
        tx = db.txman.current
        a = db.pages.allocate(tx)
        b = db.pages.allocate(tx)
        db.commit()
        assert a != b
        assert abs(db.pages.page_offset(a) - db.pages.page_offset(b)) \
            >= db.pages.page_words

    def test_exhaustion(self):
        db = Database(size_words=1 << 15, page_words=512, wal_words=4096,
                      catalog_words=2048)
        db.begin()
        tx = db.txman.current
        with pytest.raises(SqlError):
            for _ in range(1000):
                db.pages.allocate(tx)


class TestRowStore:
    def test_insert_read_roundtrip(self, db):
        storage, _ = make_table(db)
        db.begin()
        rid = storage.insert(db.txman.current, [1, "hello"])
        db.commit()
        assert storage.read_row(rid) == [1, "hello"]

    def test_scan_order(self, db):
        storage, _ = make_table(db)
        db.begin()
        for i in range(5):
            storage.insert(db.txman.current, [i, f"row{i}"])
        db.commit()
        assert [rid for rid, _ in storage.scan()] == [1, 2, 3, 4, 5]

    def test_delete_hides_row(self, db):
        storage, _ = make_table(db)
        db.begin()
        rid = storage.insert(db.txman.current, [1, "x"])
        assert storage.delete(db.txman.current, rid)
        assert not storage.delete(db.txman.current, rid)
        db.commit()
        assert storage.read_row(rid) is None
        assert storage.row_count() == 0

    def test_update_in_place_when_it_fits(self, db):
        storage, _ = make_table(db)
        db.begin()
        rid = storage.insert(db.txman.current, [1, "abcdefgh"])
        locator_before = storage.locators[rid]
        storage.update(db.txman.current, rid, [1, "xy"])
        db.commit()
        assert storage.locators[rid] == locator_before
        assert storage.read_row(rid) == [1, "xy"]

    def test_update_relocates_when_it_grows(self, db):
        storage, _ = make_table(db)
        db.begin()
        rid = storage.insert(db.txman.current, [1, "s"])
        storage.insert(db.txman.current, [2, "blocker"])
        storage.update(db.txman.current, rid, [1, "much longer than before" * 3])
        db.commit()
        assert storage.read_row(rid) == [1, "much longer than before" * 3]
        assert storage.row_count() == 2

    def test_rows_span_pages(self, db):
        storage, _ = make_table(db)
        db.begin()
        for i in range(60):  # page_words=128: a handful of rows per page
            storage.insert(db.txman.current, [i, f"padding-{i:04d}"])
        db.commit()
        assert storage.row_count() == 60
        assert sorted(rid for rid, _ in storage.scan()) == list(range(1, 61))

    def test_refresh_rebuilds_volatile_state(self, db):
        storage, table = make_table(db)
        db.begin()
        for i in range(10):
            storage.insert(db.txman.current, [i, "v"])
        db.commit()
        fresh = TableStorage(table, db.pages)
        assert fresh.row_count() == 10
        assert fresh.next_row_id == storage.next_row_id

    def test_zero_row_header_is_typed_corruption(self, db):
        """A row header that reads 0 would stall the page walk forever:
        both walks report it as corruption naming table, page and cursor."""
        storage, _ = make_table(db)
        for i in range(3):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, f"v{i}"))
        db.checkpoint()
        page, cursor = storage.locators[2]
        image = db.device.durable_image()
        image[db.pages.page_offset(page) + cursor] = 0
        db.device.load_image(image)
        where = rf"h2\.table\[t\]: page {page} cursor {cursor}:"
        with pytest.raises(CorruptHeapError, match=where):
            Database(device=db.device)        # reopen: the _refresh walk
        with pytest.raises(CorruptHeapError, match=where):
            list(storage.scan())

    def test_oversized_row_rejected(self, db):
        storage, _ = make_table(db)
        db.begin()
        with pytest.raises(SqlError):
            storage.insert(db.txman.current, [1, "x" * 5000])
        db.rollback()

    def test_not_null_enforced(self, db):
        db.execute("CREATE TABLE nn (id BIGINT PRIMARY KEY, v INT NOT NULL)")
        with pytest.raises(SqlError):
            db.execute("INSERT INTO nn VALUES (1, NULL)")


class TestWal:
    def test_scan_parses_records(self, db):
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1)")
        records = db.wal.scan()
        types = [r[0] for r in records]
        assert REC_WRITE in types
        assert REC_COMMIT in types

    def test_checkpoint_truncates(self, db):
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY)")
        assert db.wal.used > 0
        db.checkpoint()
        assert db.wal.used == 0
        assert db.wal.scan() == []

    def test_recover_is_idempotent(self, db):
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1)")
        db2 = db.crash()
        db3 = db2.crash()  # recover twice
        assert db3.execute("SELECT COUNT(*) FROM t").scalar() == 1

    def test_wal_overflow_detected(self):
        db = Database(size_words=1 << 17, wal_words=256)
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v VARCHAR)")
        db.checkpoint()
        with pytest.raises(SqlError):
            db.begin()
            for i in range(100):
                db.execute("INSERT INTO t VALUES (?, ?)", (i, "x" * 40))


class TestCatalog:
    def test_persisted_across_reopen(self, db):
        db.execute("CREATE TABLE a (x INT PRIMARY KEY)")
        db.execute("CREATE TABLE b (y VARCHAR)")
        db2 = db.crash()
        assert db2.catalog.exists("a")
        assert db2.catalog.exists("b")
        assert db2.catalog.get("a").columns[0].primary_key

    def test_drop_is_persistent(self, db):
        db.execute("CREATE TABLE a (x INT PRIMARY KEY)")
        db.execute("DROP TABLE a")
        db2 = db.crash()
        assert not db2.catalog.exists("a")

    def test_column_metadata_roundtrip(self, db):
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, "
                   "name VARCHAR NOT NULL, score DOUBLE, ok BOOLEAN)")
        table = db.crash().catalog.get("t")
        kinds = [c.sql_type for c in table.columns]
        assert kinds == [SqlType.BIGINT, SqlType.VARCHAR, SqlType.DOUBLE,
                        SqlType.BOOLEAN]
        assert table.columns[1].not_null
        assert table.primary_key_index == 0
