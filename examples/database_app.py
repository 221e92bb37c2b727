#!/usr/bin/env python
"""Coarse-grained persistence: the same app on JPA and on PJO.

One entity class, one workload (Figure 3's begin/persist/commit pattern),
two providers: the classic JPA stack (object -> SQL -> H2-on-NVM)
and Espresso's PJO (DBPersistable objects shipped straight into PJH).
Prints per-phase simulated time so the Figure 17 story — "the SQL
transformation phase is removed" — is visible in a 40-line app.

    python examples/database_app.py
"""

import tempfile
from pathlib import Path

from repro.h2.engine import Database
from repro.h2.values import SqlType
from repro.jpa import Basic, Id, JpaEntityManager, entity
from repro.nvm.clock import Clock
from repro.pjo import PjoEntityManager
from repro.api import Espresso


@entity(table="Account")
class Account:
    id = Id(SqlType.BIGINT)
    owner = Basic(SqlType.VARCHAR)
    balance = Basic(SqlType.BIGINT)

    def __init__(self, id, owner, balance):
        self.id = id
        self.owner = owner
        self.balance = balance


def workload(em, label: str, clock: Clock) -> None:
    start = clock.now_ns
    snapshot = clock.breakdown()

    tx = em.get_transaction()
    tx.begin()
    for i in range(50):
        em.persist(Account(i, f"user{i}", 100 * i))
    tx.commit()

    em.clear()
    tx.begin()
    for i in range(50):
        account = em.find(Account, i)
        account.balance = account.balance + 1
    tx.commit()

    total_ms = (clock.now_ns - start) / 1e6
    delta = clock.breakdown_since(snapshot)
    db_ms = delta.get("database", 0.0) / 1e6
    tr_ms = delta.get("transformation", 0.0) / 1e6
    other_ms = total_ms - db_ms - tr_ms
    print(f"{label:7s} total {total_ms:7.3f} ms | database {db_ms:7.3f} | "
          f"transformation {tr_ms:7.3f} | other {other_ms:7.3f}")


def main() -> None:
    # --- JPA: DataNucleus-style provider over H2 on NVM -----------------
    jpa_clock = Clock()
    database = Database(size_words=1 << 20, clock=jpa_clock)
    jpa_em = JpaEntityManager(database)
    jpa_em.create_schema([Account])
    workload(jpa_em, "H2-JPA", jpa_clock)

    # --- PJO: identical code, DBPersistables into PJH --------------------
    with tempfile.TemporaryDirectory(prefix="espresso-db-") as tmp:
        heap_dir = Path(tmp)
        jvm = Espresso(heap_dir)
        jvm.create_heap("bank", 8 * 1024 * 1024)
        pjo_em = PjoEntityManager(jvm)
        pjo_em.create_schema([Account])
        workload(pjo_em, "H2-PJO", jvm.clock)

        # PJO survives a restart with zero reload work for the entities:
        jvm.shutdown()
        jvm2 = Espresso(heap_dir)
        jvm2.load_heap("bank")
        em2 = PjoEntityManager(jvm2)
        account = em2.find(Account, 7)
        print(f"after restart: account 7 -> owner={account.owner!r}, "
              f"balance={account.balance}")
        assert account.balance == 701


if __name__ == "__main__":
    main()
