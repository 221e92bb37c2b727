"""Self-validating WAL records and torn-tail handling.

A torn or bit-flipped record must stop replay at the tear — never feed
garbage into the redo/undo passes — and the scan must report how much of
the log it refused to trust.  With no durable record count, the
generation stamped into every record is what keeps a checkpointed log's
stale records out of replay, and every scan step must advance and stay
inside the log whatever the region holds.
"""

import random

import numpy as np
import pytest

from repro.errors import SimulatedCrash
from repro.h2.engine import Database
from repro.h2.wal import (
    REC_ABORT,
    REC_BEGIN,
    REC_COMMIT,
    REC_WRITE,
    WalRecovery,
    WalScan,
    WriteAheadLog,
)
from repro.nvm.checksum import crc32_words
from repro.nvm.device import LINE_WORDS
from repro.obs import Observatory


def _populated_db():
    db = Database(size_words=1 << 18)
    db.execute("CREATE TABLE t (k BIGINT PRIMARY KEY, v VARCHAR)")
    for i in range(4):
        db.execute("INSERT INTO t VALUES (?, ?)", (i, f"v{i}"))
    return db


def _record_offsets(wal: WriteAheadLog):
    """Device-relative (start, length) of each well-formed record."""
    spans = []
    cursor = 0
    while True:
        total = wal._record_extent(cursor)
        if total is None:
            break
        spans.append((wal._data + cursor, total))
        cursor += total
    return spans


class TestScanReport:
    def test_clean_log_has_no_discards(self):
        db = _populated_db()
        report = db.wal.scan_with_report()
        assert isinstance(report, WalScan)
        assert report.discarded_records == 0
        assert report.torn_words == 0
        assert {r[0] for r in report.records} >= {REC_BEGIN, REC_WRITE,
                                                  REC_COMMIT}

    def test_flipped_crc_stops_the_scan_and_counts_the_rest(self):
        db = _populated_db()
        spans = _record_offsets(db.wal)
        assert len(spans) >= 6
        victim = len(spans) // 2
        start, length = spans[victim]
        db.device.write(start + length - 1,
                        db.device.read(start + length - 1) ^ 0xFF)
        report = db.wal.scan_with_report()
        assert len(report.records) == victim
        assert report.discarded_records == len(spans) - victim
        assert report.torn_words == sum(n for _, n in spans[victim:])

    def test_flipped_payload_word_is_caught_too(self):
        db = _populated_db()
        spans = _record_offsets(db.wal)
        victim = next(i for i, (start, _) in enumerate(spans)
                      if db.device.read(start) == REC_WRITE)
        start, length = spans[victim]
        # The last word of the new image: structure and generation hold,
        # only the CRC can tell.
        db.device.write(start + length - 2,
                        db.device.read(start + length - 2) ^ 0x1)
        report = db.wal.scan_with_report()
        assert len(report.records) == victim
        assert report.discarded_records >= 1

    def test_zeroed_tail_is_torn_words_not_records(self):
        db = _populated_db()
        wal = db.wal
        spans = _record_offsets(wal)
        # The log's last multi-line record keeps its five header words;
        # its images, its CRC and everything behind it reverted to zero
        # (never reached the media).
        victim = max(i for i, (_, n) in enumerate(spans) if n > LINE_WORDS)
        start, length = spans[victim]
        end = spans[-1][0] + spans[-1][1]
        cut = start + 5
        db.device.write_block(cut, np.zeros(end - cut, dtype=np.int64))
        report = wal.scan_with_report()
        assert len(report.records) == victim
        assert report.discarded_records == 1
        assert report.torn_words == length

    def test_a_never_written_record_is_the_end_of_the_log(self):
        db = _populated_db()
        wal = db.wal
        spans = _record_offsets(wal)
        start, length = spans[-1]
        db.device.write_block(start, np.zeros(length, dtype=np.int64))
        report = wal.scan_with_report()
        assert len(report.records) == len(spans) - 1
        assert (report.discarded_records, report.torn_words) == (0, 0)


class TestRecovery:
    def test_recover_reports_discards_and_still_replays_prefix(self):
        db = _populated_db()
        spans = _record_offsets(db.wal)
        start, length = spans[-1]
        db.device.write(start + length - 1,
                        db.device.read(start + length - 1) ^ 0xFF)
        db.device.persist_all()
        result = db.wal.recover()
        assert isinstance(result, WalRecovery)
        assert result.discarded_records == 1
        assert result.redone > 0  # the intact prefix was replayed

    def test_database_exposes_both_shapes(self):
        db = _populated_db()
        db2 = db.crash()
        assert isinstance(db2.recovery_stats, tuple)
        assert len(db2.recovery_stats) == 2  # the legacy shape
        assert db2.recovery_stats == (db2.wal_recovery.redone,
                                      db2.wal_recovery.undone)
        assert db2.wal_recovery.discarded_records == 0

    def test_corrupt_commit_record_undoes_its_transaction(self):
        db = _populated_db()
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (50, 'doomed')")
        db.execute("COMMIT")
        spans = _record_offsets(db.wal)
        start, length = spans[-1]  # the COMMIT of the last transaction
        assert db.device.read(start) == REC_COMMIT
        db.device.write(start + length - 1,
                        db.device.read(start + length - 1) ^ 0xFF)
        db.device.persist_all()
        db2 = db.crash()
        # Without its COMMIT the transaction is unfinished: undone.
        rows = dict(db2.execute("SELECT k, v FROM t").rows)
        assert 50 not in rows
        assert db2.wal_recovery.undone > 0
        assert db2.wal_recovery.discarded_records == 1

    def test_recovery_bumps_the_generation_and_rewinds_the_tail(self):
        db = _populated_db()
        generation = db.wal.generation
        db2 = db.crash()
        assert db2.wal.generation == generation + 1
        assert db2.device.durable_word(db2.wal.offset) == generation + 1
        assert db2.wal.tail == 0
        assert db2.wal.scan() == []

    def test_the_recover_span_names_the_replayed_generation(self):
        obs = Observatory()
        db = Database(size_words=1 << 18, obs=obs)
        db.execute("CREATE TABLE t (k BIGINT PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1)")
        db.crash().crash()
        spans = [s for s in obs.tracer.timeline() if s.name == "wal.recover"]
        assert [s.attrs["generation"] for s in spans] == [0, 1]
        assert spans[0].attrs["redone"] > 0
        assert spans[1].attrs["redone"] == 0


class TestGenerations:
    """The log is never zeroed: a checkpoint retires it by generation."""

    @staticmethod
    def _scratch_word(db):
        return db.pages.page_offset(db.pages.page_capacity - 1)

    @staticmethod
    def _log(db, offset, value, commit=True):
        tx = db.txman.begin()
        tx.write(offset, np.array([value], dtype=np.int64))
        if commit:
            db.txman.commit(tx)

    def test_a_stale_record_is_never_replayed(self):
        db = Database(size_words=1 << 16)
        word = self._scratch_word(db)
        for value in range(1, 41):  # a long log: 40 one-word transactions
            self._log(db, word, value)
        db = db.crash()
        retired = db.wal.generation - 1
        self._log(db, word, 100)                # tx 1, committed
        self._log(db, word, 200, commit=False)  # tx 2, in flight
        db.device.crash()
        # Tx 2's BEGIN + WRITE end exactly where the retired log holds
        # its own tx 2's COMMIT: intact, checksummed, same tx id.  Only
        # the generation tells the two apart.
        stop = db.wal.tail
        stale = db.device.read_block(db.wal._data + stop, 4)
        assert [int(w) for w in stale[:3]] == [REC_COMMIT, retired, 2]
        assert int(stale[3]) == crc32_words(stale[:3])
        assert len(db.wal.scan()) == 5
        db = Database(device=db.device, clock=db.clock)
        assert db.device.read(word) == 100      # tx 2 undone, not redone
        assert db.wal_recovery == WalRecovery(redone=1, undone=1,
                                              discarded_records=0,
                                              torn_words=0)

    def test_a_crash_before_the_generation_publish_redoes_the_log(self):
        db = _populated_db()
        db.execute("UPDATE t SET v = 'new' WHERE k = 1")
        expected = dict(db.execute("SELECT k, v FROM t").rows)
        generation = db.wal.generation
        writes = sum(1 for r in db.wal.scan() if r[0] == REC_WRITE)
        original = db.device.persist_all

        def persist_all_then_cut():
            original()
            raise SimulatedCrash("power cut before the generation publish")

        db.device.persist_all = persist_all_then_cut
        with pytest.raises(SimulatedCrash):
            db.checkpoint()
        del db.device.__dict__["persist_all"]
        db.device.crash()
        assert db.device.durable_word(db.wal.offset) == generation
        db2 = Database(device=db.device, clock=db.clock)
        # The whole old log is still valid and is redone over pages that
        # already hold the same images.
        assert db2.wal_recovery == WalRecovery(writes, 0, 0, 0)
        assert dict(db2.execute("SELECT k, v FROM t").rows) == expected
        assert db2.wal.generation == generation + 1

    def test_a_crash_after_the_generation_publish_redoes_nothing(self):
        db = _populated_db()
        expected = dict(db.execute("SELECT k, v FROM t").rows)
        db.checkpoint()
        db.device.crash()
        db2 = Database(device=db.device, clock=db.clock)
        assert db2.wal_recovery == WalRecovery(0, 0, 0, 0)
        assert dict(db2.execute("SELECT k, v FROM t").rows) == expected


class TestScanTermination:
    """Every scan step advances by a positive length and stays inside
    the data area, whatever the region holds."""

    @pytest.mark.parametrize("count", [0, -1, -(1 << 40), 1 << 40, 1 << 62])
    def test_a_bad_count_stops_the_scan(self, count):
        db = _populated_db()
        wal = db.wal
        clean = len(wal.scan())
        wal.log_write(999, db.pages.page_offset(0),
                      np.zeros(2, dtype=np.int64),
                      np.ones(2, dtype=np.int64))
        start = wal._data + wal.tail - (6 + 4)
        assert db.device.read(start) == REC_WRITE
        db.device.write(start + 4, count)
        assert wal._record_extent(start - wal._data) is None
        report = wal.scan_with_report()
        assert len(report.records) == clean
        assert (report.discarded_records, report.torn_words) == (0, 0)

    def test_a_count_one_past_the_log_end_stops_the_scan(self):
        db = Database(size_words=1 << 16, wal_words=64)
        wal = db.wal
        room = wal._data_words
        # Largest WRITE that fits the data area, then one word too many.
        fits = (room - 6) // 2
        words = [REC_WRITE, wal.generation, 1, 0, fits]
        db.device.write_block(wal._data, np.array(words, dtype=np.int64))
        assert wal._record_extent(0) == 6 + 2 * fits <= room
        db.device.write(wal._data + 4, fits + 1)
        assert wal._record_extent(0) is None

    @pytest.mark.parametrize("seed", range(4))
    def test_random_garbage_always_terminates_inside_the_log(self, seed):
        rng = random.Random(seed)
        db = Database(size_words=1 << 16, wal_words=512)
        wal = db.wal
        # Small words, so types, the generation and counts collide often.
        garbage = [rng.choice([0, 1, 2, 3, 4, wal.generation,
                               rng.randrange(-3, 40)])
                   for _ in range(wal._data_words)]
        db.device.write_block(wal._data, np.array(garbage, dtype=np.int64))
        for cursor in range(wal._data_words):
            total = wal._record_extent(cursor)
            if total is not None:
                assert 0 < total <= wal._data_words - cursor
        report = wal.scan_with_report()
        assert report.torn_words <= wal._data_words


class TestAppendOrdering:
    def test_every_record_carries_a_valid_crc(self):
        db = _populated_db()
        wal = db.wal
        for start, length in _record_offsets(wal):
            body = wal.device.read_block(start, length - 1)
            assert wal.device.read(start + length - 1) == crc32_words(body)
            assert int(body[1]) == wal.generation

    def test_only_a_writing_transaction_logs(self):
        db = _populated_db()
        before = len(db.wal.scan())
        db.execute("SELECT * FROM t")
        db.execute("BEGIN")
        db.execute("SELECT v FROM t WHERE k = 1")
        db.execute("ROLLBACK")
        assert len(db.wal.scan()) == before
        db.execute("BEGIN")
        db.execute("DELETE FROM t WHERE k = 1")
        db.execute("ROLLBACK")
        types = [r[0] for r in db.wal.scan()[before:]]
        assert types == [REC_BEGIN, REC_WRITE, REC_ABORT]
