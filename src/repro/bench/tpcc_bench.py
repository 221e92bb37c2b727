"""Macro-benchmark: TPCC-lite on H2-JPA vs H2-PJO.

Beyond the paper's JPAB microbenchmarks, this runs the order-processing
workload its §3.3 alludes to ("a typical TPCC workload only requires nine
different data classes") through both providers, verifying that they land
on the identical business state and comparing throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

from repro.obs import Observatory
from repro.tpcc import TpccResult, run_tpcc

from repro.bench.harness import (Experiment, flush_elision_line,
                                 flush_elision_summary, format_table)


@dataclass
class TpccBenchResult:
    jpa: TpccResult
    pjo: TpccResult
    # H2-PJO re-run with a FlushElisionCertificate installed, plus the
    # flush/fence comparison and its safety evidence (both empty unless
    # ``flush_certified=True``).
    pjo_elided: Optional[TpccResult] = None
    flush_elision: Dict[str, object] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        return self.pjo.tx_per_ms / self.jpa.tx_per_ms

    @property
    def states_agree(self) -> bool:
        return self.jpa.snapshot == self.pjo.snapshot


def run(transactions: int, heap_dir: Path, seed: int = 7,
        trace: bool = False,
        flush_certified: bool = False) -> TpccBenchResult:
    """``trace=True`` gives each provider its own Observatory so the
    results carry per-phase (populate / transactions) span and counter
    deltas; the default no-op recorder changes nothing.

    ``flush_certified=True`` records an unmeasured probe run's persist
    trace, certifies its redundant clflush/sfence traffic (the hazard
    pass must be clean) and re-runs the PJO workload with the
    certificate installed; ``result.flush_elision`` carries the totals,
    the reduction, SHA-256s of both saved heap images and fsck verdicts.
    """
    jpa = run_tpcc("jpa", transactions, seed, heap_dir=heap_dir / "jpa",
                   observatory=Observatory() if trace else None)
    pjo = run_tpcc("pjo", transactions, seed, heap_dir=heap_dir / "pjo",
                   observatory=Observatory() if trace else None)
    result = TpccBenchResult(jpa=jpa, pjo=pjo)
    if flush_certified:
        from repro.analysis.elision import PJH_SCOPES, certify_elision
        probe = run_tpcc("pjo", transactions, seed,
                         heap_dir=heap_dir / "pjo-probe",
                         record_trace=True)
        cert = certify_elision(
            None, probe.trace,
            scopes=("pjh:tpcc",) + PJH_SCOPES, install=False)
        result.pjo_elided = run_tpcc(
            "pjo", transactions, seed, heap_dir=heap_dir / "pjo-elided",
            observatory=Observatory() if trace else None,
            elision_certificate=cert)
        # The pre-PR flush protocol: per-object top persists (no TLABs)
        # and no certificate — PR 2's epoch-coalescing-only baseline the
        # pinned reduction is measured against.
        coalesced = run_tpcc("pjo", transactions, seed,
                             heap_dir=heap_dir / "pjo-coalesced",
                             alloc_buffer_words=0)
        result.flush_elision = _flush_elision_summary(
            heap_dir, coalesced, pjo, result.pjo_elided, cert, probe.trace)
    return result


def _workload_totals(result: TpccResult) -> Dict[str, int]:
    """Sum the populate + transactions phase counters of the tpcc device."""
    totals = {"flushes": 0, "fences": 0,
              "flushes_elided": 0, "fences_elided": 0}
    for phase in ("populate", "transactions"):
        counters = result.nvm.get(phase, {}).get("tpcc", {})
        for key in totals:
            totals[key] += counters.get(key, 0)
    return totals


def _flush_elision_summary(root: Path, coalesced: TpccResult,
                           baseline: TpccResult, elided: TpccResult, cert,
                           probe_log) -> Dict[str, object]:
    """All PJO runs shut down gracefully, so the evidence compares the
    *saved* heap images (the durable bytes on disk) and re-mounts each
    image for an fsck pass."""
    from repro.api import Espresso
    from repro.nvm.namespace import NameManager
    from repro.tools.fsck import fsck_heap

    images: Dict[str, object] = {}
    fsck_clean: Dict[str, bool] = {}
    for label, subdir in (("coalesced", "pjo-coalesced"),
                          ("baseline", "pjo"),
                          ("certified", "pjo-elided")):
        heap_dir = root / subdir / "pjo"
        images[label] = NameManager(heap_dir).load_image("tpcc")
        jvm = Espresso(heap_dir)
        jvm.load_heap("tpcc")
        fsck_clean[label] = fsck_heap(jvm.heaps.heap("tpcc")).clean
    return flush_elision_summary(
        {"coalesced": _workload_totals(coalesced),
         "baseline": _workload_totals(baseline),
         "certified": _workload_totals(elided)},
        images, fsck_clean, cert, probe_log)


def table(result: TpccBenchResult) -> str:
    rows = [
        ("H2-JPA", f"{result.jpa.tx_per_ms:.2f}",
         result.jpa.snapshot["orders"], result.jpa.snapshot["history_rows"]),
        ("H2-PJO", f"{result.pjo.tx_per_ms:.2f}",
         result.pjo.snapshot["orders"], result.pjo.snapshot["history_rows"]),
    ]
    lines = [format_table(
        ["Provider", "tx/ms", "Orders", "Payments"],
        rows,
        title=(f"TPCC-lite ({result.jpa.transactions} mixed transactions, "
               f"seeded) — PJO speedup {result.speedup:.2f}x, states agree: "
               f"{result.states_agree}"))]
    if result.flush_elision:
        lines.append(flush_elision_line(result.flush_elision))
    return "\n".join(lines)


def check(result: TpccBenchResult) -> None:
    assert result.states_agree, \
        "TPCC-lite: both providers compute the identical business state"
    assert result.speedup > 1.0, \
        "TPCC-lite: PJO wins the macro-workload too"


def payload(result: TpccBenchResult) -> Dict[str, object]:
    return {
        "transactions": result.jpa.transactions,
        "speedup": result.speedup,
        "states_agree": result.states_agree,
        "nvm": {"jpa": result.jpa.nvm, "pjo": result.pjo.nvm},
        "obs": {"jpa": result.jpa.obs, "pjo": result.pjo.obs},
        "flush_elision": result.flush_elision,
    }


EXPERIMENT = Experiment(
    name="tpcc", title="TPCC-lite macro-benchmark, H2-JPA vs H2-PJO",
    run=run,
    full={"transactions": 60, "trace": True, "flush_certified": True},
    ci={"transactions": 40},
    table=table, check=check, payload=payload)
