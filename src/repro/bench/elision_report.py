"""CI elision report: per-bench clflush/sfence deltas, as JSON.

``make elision-report`` (part of ``make check``) re-runs the
flush-elision legs of the fig17 and TPC-C benches at CI sizes and
enforces the §17 acceptance gates on each:

* the clflush+sfence ``reduction`` against the *coalesced* leg (PR 2's
  epoch-coalescing protocol: ``alloc_buffer_words=0``, no certificate)
  must beat the -16.2% coalescing baseline;
* the certificate must contribute on top of the buffers
  (``0 < elision_reduction < reduction``);
* the buffered-uncertified and certified legs must produce
  SHA-256-identical durable images, every leg must fsck clean, and the
  probe trace must pass the ESP201-205 hazard check with zero errors.

It also replays the *canonical trace* — a tiny fixed workload with
known cross-epoch redundancy — through the ESP401/402 elision pass and
verifies ``analysis-baseline.json`` covers every resulting fingerprint,
so the new pass stays baseline-disciplined like the other three: the
canonical workload is deterministic (fixed heap geometry, fixed
allocation order, simulated clock), hence so are its ``line N``
fingerprints, and any protocol change that shifts them fails CI until
the baseline is deliberately refreshed (``--update-baseline``).

The report lands in ``ELISION_REPORT.json`` (repo root by default).
Exit codes: 0 all gates pass, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path
from typing import Dict, List

_REPO_ROOT = Path(__file__).resolve().parents[3]

#: PR 2's epoch-coalescing win on fig17 clflushes — the bar every
#: bench's combined buffered+certified reduction must beat.
COALESCING_BASELINE = 0.162


# ----------------------------------------------------------------------
# The canonical trace: deterministic ESP401/402 fingerprints
# ----------------------------------------------------------------------
def canonical_trace(root: Path):
    """Record the canonical elision trace into a scratch session.

    Four chained nodes, each flushed as it is linked, then two
    ``flush_reachable`` passes over the *clean* closure (every clflush
    provably redundant — ESP401) and two ``heap.fence()`` calls on an
    empty epoch (each sfence orders nothing — ESP402).  Offsets in the
    log are device-relative, so the findings' fingerprints depend only
    on this workload and the allocation protocol, never on the host.
    """
    from repro.api import Espresso, EspressoConfig
    from repro.runtime.klass import FieldKind, field

    jvm = Espresso(root, config=EspressoConfig(alloc_buffer_words=32))
    node = jvm.define_class("CanonNode", [field("v", FieldKind.INT),
                                          field("next", FieldKind.REF)])
    jvm.create_heap("canon", 256 * 1024, region_words=128)
    heap = jvm.heaps.heap("canon")
    heap.enable_event_log("elision-canonical")
    prev = None
    for i in range(4):
        n = jvm.pnew(node)
        jvm.set_field(n, "v", i)
        if prev is not None:
            jvm.set_field(n, "next", prev)
        prev = n
        jvm.flush_reachable(prev)
    jvm.set_root("keep", prev)
    jvm.flush_reachable(prev)   # clean closure: every flush redundant
    jvm.flush_reachable(prev)
    heap.fence()                # empty epoch: the sfence orders nothing
    heap.fence()
    return heap.disable_event_log()


def canonical_fingerprints() -> List[str]:
    """The elision pass's findings over the canonical trace, as sorted
    baseline fingerprints."""
    from repro.analysis.elision import analyze_elision

    with tempfile.TemporaryDirectory(prefix="repro-elision-canon-") as tmp:
        log = canonical_trace(Path(tmp))
    report = analyze_elision(log)
    return sorted(d.fingerprint for d in report.diagnostics())


def _check_baseline(baseline_path: Path) -> Dict[str, object]:
    """Verify the baseline covers the canonical ESP401/402 fingerprints."""
    from repro.analysis.diagnostics import Baseline

    fingerprints = canonical_fingerprints()
    known = Baseline.load(baseline_path) if baseline_path.exists() \
        else Baseline()
    missing = [fp for fp in fingerprints if fp not in known]
    return {
        "trace": "elision-canonical",
        "fingerprints": fingerprints,
        "baseline": str(baseline_path.name),
        "missing_from_baseline": missing,
        "covered": not missing,
    }


# ----------------------------------------------------------------------
# The per-bench deltas
# ----------------------------------------------------------------------
def _bench_entry(fe: Dict[str, object]) -> Dict[str, object]:
    """Flatten one bench's ``flush_elision`` summary into report shape."""
    legs = {label: {"clflush": fe[label]["flushes"],
                    "sfence": fe[label]["fences"]}
            for label in ("coalesced", "baseline", "certified")}
    delta = {key: legs["certified"][key] - legs["coalesced"][key]
             for key in ("clflush", "sfence")}
    entry = {
        "legs": legs,
        "delta_vs_coalesced": delta,
        "reduction": fe["reduction"],
        "elision_reduction": fe["elision_reduction"],
        "flushes_elided": fe["certified"]["flushes_elided"],
        "fences_elided": fe["certified"]["fences_elided"],
        "hazard_errors": fe["hazards"]["errors"],
        "durable_image_equal": fe["durable_image_equal"],
        "fsck_clean": all(fe["fsck_clean"].values()),
        "certificate_active": fe["certificate"]["active"],
    }
    entry["gates_pass"] = bool(
        entry["reduction"] > COALESCING_BASELINE
        and 0.0 < entry["elision_reduction"] < entry["reduction"]
        and entry["hazard_errors"] == 0
        and entry["durable_image_equal"]
        and entry["fsck_clean"]
        and entry["certificate_active"])
    return entry


def run_benches(count: int, transactions: int) -> Dict[str, object]:
    """Run both elision benches: the slow, baseline-independent half."""
    from repro.bench import fig17_basictest_breakdown, tpcc_bench

    benches: Dict[str, object] = {}
    for name, module, params in (
            ("fig17", fig17_basictest_breakdown, {"count": count}),
            ("tpcc", tpcc_bench, {"transactions": transactions})):
        with tempfile.TemporaryDirectory(
                prefix=f"repro-elision-{name}-") as tmp:
            result = module.run(heap_dir=Path(tmp), flush_certified=True,
                                **params)
        benches[name] = {**_bench_entry(result.flush_elision),
                         "params": params}
    return benches


def assemble_report(benches: Dict[str, object],
                    baseline_path: Path) -> Dict[str, object]:
    """Judge :func:`run_benches`' entries and the canonical trace against
    the fingerprint baseline at *baseline_path*."""
    canonical = _check_baseline(baseline_path)
    return {
        "report": "elision",
        "coalescing_baseline": COALESCING_BASELINE,
        "benches": benches,
        "canonical": canonical,
        "pass": (all(entry["gates_pass"] for entry in benches.values())
                 and canonical["covered"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.elision_report",
        description="Per-bench clflush/sfence deltas for the flush-"
                    "elision certificate, with the §17 gates enforced.")
    parser.add_argument("--count", type=int, default=30,
                        help="fig17 entity count (default 30)")
    parser.add_argument("--transactions", type=int, default=40,
                        help="TPC-C transaction count (default 40)")
    parser.add_argument("--out", type=Path,
                        default=_REPO_ROOT / "ELISION_REPORT.json",
                        help="report path (default ELISION_REPORT.json "
                             "in the repo root)")
    parser.add_argument("--baseline", type=Path,
                        default=_REPO_ROOT / "analysis-baseline.json",
                        help="fingerprint baseline the canonical trace's "
                             "ESP401/402 findings must be covered by")
    args = parser.parse_args(argv)

    report = assemble_report(run_benches(args.count, args.transactions),
                             args.baseline)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    for name, entry in sorted(report["benches"].items()):
        delta = entry["delta_vs_coalesced"]
        verdict = "ok" if entry["gates_pass"] else "FAIL"
        print(f"{name}: clflush {delta['clflush']:+d}, sfence "
              f"{delta['sfence']:+d} vs coalesced "
              f"({entry['reduction']:.1%} reduction, "
              f"{entry['elision_reduction']:.1%} from the certificate) "
              f"[{verdict}]")
    canonical = report["canonical"]
    if canonical["covered"]:
        print(f"canonical trace: {len(canonical['fingerprints'])} "
              f"finding(s), all in {canonical['baseline']}")
    else:
        print(f"canonical trace: {len(canonical['missing_from_baseline'])} "
              f"finding(s) missing from {canonical['baseline']}: "
              f"{', '.join(canonical['missing_from_baseline'])} [FAIL]")
    print(f"wrote {args.out}")
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
