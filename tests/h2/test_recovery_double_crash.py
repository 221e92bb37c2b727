"""A crash inside WAL recovery, then a second recovery.

The first crash (ATOMIC) leaves committed rows only in the WAL.  Recovery
then runs under REORDERED with a power cut after each of its clflushes
in turn — its checkpoint's ``persist_all`` and the generation publish
that retires the log included — and the device crashes again, dropping
every flushed-but-unfenced line.  A last recovery must still find every
committed row.

Regression: ``persist_all`` flushed every dirty line but never fenced,
and bypassed ``clflush`` (so no cut could land inside it).  The second
crash could then revert the redone pages behind an already retired
WAL: on some seeds table ``t`` vanished, on others its page chain
looped back on itself and the table walk never ended.
"""

import pytest

from repro.errors import SimulatedCrash
from repro.h2.engine import Database

COMMITTED = {0: "v0", 1: "v1", 2: "updated", 3: "v3", 4: "v4", 5: "v5"}


def _crashed_database():
    db = Database(size_words=1 << 18)
    db.execute("CREATE TABLE t (k BIGINT PRIMARY KEY, v VARCHAR)")
    for k in range(6):
        db.execute("INSERT INTO t VALUES (?, ?)", (k, f"v{k}"))
    db.execute("UPDATE t SET v = 'updated' WHERE k = 2")
    db.device.crash()
    return db


def _recovery_flushes(seed):
    db = _crashed_database()
    db.device.set_fault_mode("reordered", seed=seed)
    before = db.device.stats.flushes
    Database(device=db.device, clock=db.clock)
    return db.device.stats.flushes - before


def _cut_recovery(seed, nth):
    """Recover with a power cut after the nth clflush, crash, recover."""
    db = _crashed_database()
    device = db.device
    device.set_fault_mode("reordered", seed=seed)
    original, seen = device.clflush, []

    def guarded(offset, count=1, asynchronous=False):
        original(offset, count, asynchronous)
        seen.append(offset)
        if len(seen) == nth:
            raise SimulatedCrash(f"power cut after recovery flush {nth}")

    device.clflush = guarded
    with pytest.raises(SimulatedCrash):
        Database(device=device, clock=db.clock)
    del device.__dict__["clflush"]
    device.crash()
    device.set_fault_mode("atomic")
    return Database(device=device, clock=db.clock)


@pytest.mark.parametrize("seed", range(8))
def test_every_recovery_flush_survives_a_second_crash(seed):
    flushes = _recovery_flushes(seed)
    assert flushes > 1
    for nth in range(1, flushes + 1):
        db = _cut_recovery(seed, nth)
        rows = dict(db.execute("SELECT k, v FROM t").rows)
        assert rows == COMMITTED, (seed, nth)
