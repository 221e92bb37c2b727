"""Every name the ledger reports, in one place.

``BENCHMARK.json`` at the repo root repeats these names for the driver;
``tests/test_ledger.py`` asserts the two agree.  Later issues cite
end-to-end numbers as ``<workload>/<metric>``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

#: workload -> its legs, in the order the body runs them.  A leg is named
#: after the package under ``src/repro`` whose public call it times.
WORKLOAD_LEGS: Dict[str, Tuple[str, ...]] = {
    "jpab_crud": tuple(f"jpab.{op}.{provider}"
                       for op in ("create", "retrieve", "update", "delete")
                       for provider in ("jpa", "pjo")),
    "pjh_write": ("pjhlib.create", "pjhlib.set", "pcj.create", "pcj.set"),
    "pjh_read": ("pjhlib.get", "pcj.get", "core.walk", "core.load_heap"),
    "gc_recover": ("runtime.gc_w1", "runtime.gc_w4", "core.recovery",
                   "core.load_heap_ug", "core.load_heap_zero", "tools.fsck"),
    "fleet_gang": ("fleet.drain_s1", "fleet.drain_s4", "fleet.failover",
                   "runtime.gang_m1", "runtime.gang_m4"),
    "verify_sweep": ("faults.sweep", "analysis.record", "analysis.hazards",
                     "analysis.elision", "analysis.static_order",
                     "tools.fsck_sweep"),
}
WORKLOADS: Tuple[str, ...] = tuple(WORKLOAD_LEGS)

#: (name, unit) of the five end-to-end metrics every workload reports.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("host_s", "s"),
    ("setup_s", "s"),
    ("host_peak_mb", "MiB"),
    ("sim_ms", "ms"),
    ("nvm_flush_fence", "count"),
)
#: Model-side metrics: deterministic for a seed, compared exactly.
EXACT_METRICS = ("sim_ms", "nvm_flush_fence")

#: Per-layer device/VM counter -> attribute on ``DeviceStats`` / the VM.
DEVICE_COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("nvm.reads", "reads"),
    ("nvm.writes", "writes"),
    ("nvm.clflush", "flushes"),
    ("nvm.sfence", "fences"),
    ("nvm.flushes_deduped", "flushes_deduped"),
    ("nvm.epochs", "epochs"),
    ("nvm.flushes_elided", "flushes_elided"),
    ("nvm.fences_elided", "fences_elided"),
)
VM_COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("runtime.barrier_checks", "barrier_checks"),
    ("runtime.barrier_elided", "barrier_elided"),
)

#: ``Clock.breakdown()`` categories reported as ``sim.<category>``; any
#: other category the product charges (today only "fleet") folds into
#: ``sim.other`` so the eight always sum to ``sim_ms``.
SIM_CATEGORIES: Tuple[str, ...] = (
    "database", "transformation", "transaction", "metadata", "gc", "data",
    "allocation", "other")

#: Host attribution buckets: packages under ``src/repro``; everything else
#: (stdlib, numpy, builtins, the remaining packages, this harness) is
#: ``other``.
HOST_LAYERS: Tuple[str, ...] = (
    "nvm", "core", "runtime", "pjhlib", "pcj", "h2", "jpa", "pjo", "fleet",
    "analysis", "faults", "tools", "obs", "other")


def per_layer_names() -> List[Tuple[str, str]]:
    """(name, unit) of every per-layer metric, in reporting order."""
    out: List[Tuple[str, str]] = []
    for legs in WORKLOAD_LEGS.values():
        for leg in legs:
            out.append((f"{leg}.host_s", "s"))
            out.append((f"{leg}.sim_ms", "ms"))
    out += [(name, "count") for name, _ in DEVICE_COUNTERS + VM_COUNTERS]
    out += [(f"sim.{category}", "ms") for category in SIM_CATEGORIES]
    for layer in HOST_LAYERS:
        out.append((f"{layer}.host_self_s", "s"))
        out.append((f"{layer}.calls", "count"))
    out.append(("py.import_s", "s"))
    out.append(("trace.overhead_x", "x"))
    return out


def load_bounds() -> Dict[str, float]:
    """End-to-end metric -> regression bound, from ``BENCHMARK.json``."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: float(m["bound"]) for m in spec["end_to_end"]}
