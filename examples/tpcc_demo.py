#!/usr/bin/env python
"""TPCC-lite on Espresso: the workload the paper name-drops, end to end.

Populates one warehouse (the nine TPC-C data classes of paper §3.3), runs a
seeded transaction mix on BOTH persistence providers, verifies they agree
on every aggregate, and demonstrates durability: the PJO run reopens its
heap after a restart and keeps serving order-status queries.

    python examples/tpcc_demo.py
"""

import tempfile
from pathlib import Path

from repro.api import Espresso
from repro.pjo.provider import PjoEntityManager
from repro.tpcc import TpccApplication, run_tpcc
from repro.tpcc.model import customer_id, district_id


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="espresso-tpcc-") as tmp:
        root = Path(tmp)

        print("Running 60 seeded transactions on both providers...")
        jpa = run_tpcc("jpa", transactions=60, seed=42, heap_dir=root / "jpa")
        pjo = run_tpcc("pjo", transactions=60, seed=42, heap_dir=root / "pjo")
        assert jpa.snapshot == pjo.snapshot, "providers disagree!"
        print(f"  H2-JPA: {jpa.tx_per_ms:6.2f} tx/ms")
        print(f"  H2-PJO: {pjo.tx_per_ms:6.2f} tx/ms "
              f"({pjo.tx_per_ms / jpa.tx_per_ms:.2f}x)")
        print(f"  business state identical: {jpa.snapshot['orders']} orders, "
              f"{jpa.snapshot['history_rows']} payments, "
              f"warehouse ytd {jpa.snapshot['warehouse_ytd_total']:.2f}")

        print("\nDurability: restarting the PJO 'JVM' and querying again...")
        jvm = Espresso(root / "pjo" / "pjo")
        jvm.load_heap("tpcc")
        em = PjoEntityManager(jvm)
        app = TpccApplication(em)
        status = app.order_status(customer_id(district_id(1, 0), 0))
        print(f"  customer {status['customer']!r}: balance "
              f"{status['balance']:.2f}, last order {status['last_order']}")
        snapshot = app.consistency_snapshot()
        assert snapshot == pjo.snapshot
        print("  post-restart snapshot matches. TPC-C money is conserved: "
              f"district ytd == warehouse ytd == "
              f"{snapshot['district_ytd_total']:.2f}")


if __name__ == "__main__":
    main()
