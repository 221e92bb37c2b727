"""The perf ledger's contract with the product, checked in tier-1.

``bench-ledger/`` imports product modules by name and reads VM and device
counters by attribute name.  Its own tests (``make test-ledger``) run every
workload and sit outside tier-1's ``testpaths``, so a src change that
breaks one of those names would otherwise first show up as failed
benchmark operations.  This imports the ledger's metrics table and every
workload module, without writing bytecode into ``bench-ledger/``, and
resolves every counter the harness reads.
"""

import importlib
import sys
from pathlib import Path

import pytest

from repro.api import Espresso

LEDGER = Path(__file__).resolve().parents[1] / "bench-ledger"
WORKLOADS = sorted(path.stem for path in (LEDGER / "workloads").glob("*.py")
                   if path.stem != "__init__")


@pytest.fixture(scope="module")
def ledger_import():
    """``importlib.import_module`` with ``bench-ledger`` on ``sys.path``."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(LEDGER))
    sys.dont_write_bytecode = True
    try:
        yield importlib.import_module
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag


def test_every_workload_imports(ledger_import):
    assert WORKLOADS
    for name in WORKLOADS:
        ledger_import(f"workloads.{name}")


def test_every_counter_resolves(ledger_import, tmp_path):
    metrics = ledger_import("metrics")
    jvm = Espresso(tmp_path)
    jvm.create_heap("h", 64 * 1024)
    stats = jvm.heaps.heap("h").device.stats
    for name, attr in metrics.VM_COUNTERS:
        assert isinstance(getattr(jvm.vm, attr), int), name
    for name, attr in metrics.DEVICE_COUNTERS:
        assert isinstance(getattr(stats, attr), int), name
