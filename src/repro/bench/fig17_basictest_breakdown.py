"""Figure 17: breakdown analysis for BasicTest (both providers).

Paper: per-operation time split into *Execution* (in the H2 database),
*Transformation* (object<->SQL) and *Other*; "the transformation overhead
is significantly reduced thanks to PJO.  Furthermore, the execution time in
H2 also decreases for most cases, which can be attributed to the interface
change from the JDBC interfaces to our DBPersistable abstractions."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.jpab import BASIC_TEST, OPERATIONS, make_jpa_em, make_pjo_em, \
    run_jpab_test
from repro.obs import Observatory

from repro.bench.harness import (Experiment, flush_elision_line,
                                 flush_elision_summary, format_table,
                                 slash_keys)

PHASES = ["database", "transformation", "other"]


@dataclass
class Fig17Result:
    count: int
    # (provider, op) -> {phase: simulated ms}
    cells: Dict[Tuple[str, str], Dict[str, float]] = field(
        default_factory=dict)
    # (provider, op) -> {device label: flush/fence counter deltas}
    nvm: Dict[Tuple[str, str], Dict[str, Dict[str, int]]] = field(
        default_factory=dict)
    # (provider, op) -> {"spans": ..., "counters": ...} deltas, populated
    # only when the run traced with a live Observatory.
    obs: Dict[Tuple[str, str], Dict[str, object]] = field(
        default_factory=dict)
    # (provider, op) -> ref-store barrier deltas ({"checks"}).
    barrier: Dict[Tuple[str, str], Dict[str, int]] = field(
        default_factory=dict)
    # Flush-elision summary: baseline vs trace-certified PJO runs —
    # clflush/sfence totals, combined reduction, durable-image SHA-256s
    # and fsck verdicts (empty unless ``flush_certified=True``).
    flush_elision: Dict[str, object] = field(default_factory=dict)


def run(count: int, heap_dir: Path,
        trace: bool = False,
        flush_certified: bool = False) -> Fig17Result:
    """Run both providers; ``trace=True`` records per-operation span and
    counter deltas with one Observatory per provider (the default no-op
    recorder leaves timings and flush counts untouched).

    ``flush_certified=True`` adds an unmeasured *probe* run that records
    the H2-PJO persist trace, certifies its redundant clflush/sfence
    traffic (:func:`repro.analysis.elision.certify_elision` — the hazard
    pass must come back clean first), then runs ``H2-PJO-elided`` with
    the :class:`~repro.analysis.elision.FlushElisionCertificate`
    installed and records the flush/fence deltas plus the same
    no-durable-byte-changed proof.
    """
    result = Fig17Result(count=count)
    jpa_obs: Optional[Observatory] = Observatory() if trace else None
    pjo_obs: Optional[Observatory] = Observatory() if trace else None
    ems: Dict[str, object] = {}

    def pjo_factory(label: str, subdir: str, obs, elision_cert=None,
                    **overrides):
        def build(clock):
            em = make_pjo_em(
                clock, BASIC_TEST.entities, heap_dir / subdir,
                **overrides, **({"obs": obs} if obs is not None else {}))
            if elision_cert is not None:
                em.jvm.vm.elision_certificate = elision_cert
                em.jvm.config.elision_certificate = elision_cert
                em.jvm.heaps.heap("jpab").install_elision_certificate(
                    elision_cert)
            ems[label] = em
            return em
        return build

    jpa = run_jpab_test(
        BASIC_TEST,
        lambda clock: make_jpa_em(
            clock, BASIC_TEST.entities,
            **({"obs": jpa_obs} if jpa_obs is not None else {})),
        count, "H2-JPA", observatory=jpa_obs)
    pjo = run_jpab_test(
        BASIC_TEST, pjo_factory("H2-PJO", "fig17", pjo_obs),
        count, "H2-PJO", observatory=pjo_obs)
    runs = [("H2-JPA", jpa), ("H2-PJO", pjo)]
    if flush_certified:
        flush_cert, probe_log = _probe_flush_elision(count, heap_dir)
        elided_obs: Optional[Observatory] = Observatory() if trace else None
        elided = run_jpab_test(
            BASIC_TEST,
            pjo_factory("H2-PJO-elided", "fig17-elided", elided_obs,
                        elision_cert=flush_cert),
            count, "H2-PJO-elided", observatory=elided_obs)
        runs.append(("H2-PJO-elided", elided))
        # The pre-PR flush protocol (per-object top persists, no TLABs,
        # no certificate): PR 2's epoch-coalescing-only baseline the
        # pinned reduction is measured against.  Unmeasured in the
        # breakdown table — only its device totals matter.
        run_jpab_test(
            BASIC_TEST,
            pjo_factory("H2-PJO-coalesced", "fig17-coalesced", None,
                        alloc_buffer_words=0),
            count, "H2-PJO-coalesced")
    for provider, test_result in runs:
        for op in OPERATIONS:
            breakdown = test_result.operations[op].breakdown
            total = sum(breakdown.values())
            known = {phase: breakdown.get(phase, 0.0) / 1e6
                     for phase in ("database", "transformation")}
            known["other"] = (total - sum(breakdown.get(p, 0.0) for p in
                                          ("database", "transformation"))) / 1e6
            result.cells[(provider, op)] = known
            result.nvm[(provider, op)] = test_result.operations[op].nvm
            result.barrier[(provider, op)] = test_result.operations[op].barrier
            if trace:
                result.obs[(provider, op)] = test_result.operations[op].obs
    if flush_certified:
        result.flush_elision = _flush_elision_summary(
            ems["H2-PJO-coalesced"], ems["H2-PJO"], ems["H2-PJO-elided"],
            flush_cert, probe_log)
    return result


def _probe_flush_elision(count: int, root: Path):
    """Trace a twin (unmeasured) H2-PJO run and certify its redundancy.

    The probe gets its own heap so the measured baseline stays untraced —
    an attached event log keeps a publish tap alive and must record the
    uncertified flush sequence (the certificate suspends itself while a
    log is attached), so tracing the baseline itself would both perturb
    it and record nothing elidable.
    """
    from repro.analysis.elision import certify_elision

    probe: Dict[str, object] = {}

    def build(clock):
        em = make_pjo_em(clock, BASIC_TEST.entities, root / "fig17-probe")
        em.jvm.heaps.heap("jpab").enable_event_log("fig17-probe")
        probe["em"] = em
        return em

    run_jpab_test(BASIC_TEST, build, count, "H2-PJO-probe")
    em = probe["em"]
    log = em.jvm.heaps.heap("jpab").disable_event_log()
    # install=False: the certificate is carried to a fresh session; the
    # probe session itself is discarded.  Raises if the trace has any
    # ESP201-205 hazard error.
    return certify_elision(em.jvm, log, install=False), log


def _flush_elision_summary(coalesced_em, baseline_em, elided_em, cert,
                           probe_log) -> Dict[str, object]:
    """Whole-session (schema + CRUD) device counters of the three legs,
    their live durable images and fsck verdicts."""
    from repro.tools.fsck import fsck_heap

    heaps = {label: em.jvm.heaps.heap("jpab")
             for label, em in (("coalesced", coalesced_em),
                               ("baseline", baseline_em),
                               ("certified", elided_em))}
    return flush_elision_summary(
        {label: heap.device.stats.as_dict() for label, heap in heaps.items()},
        {label: heap.device.durable_image() for label, heap in heaps.items()},
        {label: fsck_heap(heap).clean for label, heap in heaps.items()},
        cert, probe_log)


def table(result: Fig17Result) -> str:
    rows = []
    providers = ["H2-JPA", "H2-PJO", "H2-PJO-elided"]
    for op in OPERATIONS:
        for provider in providers:
            if (provider, op) not in result.cells:
                continue
            cell = result.cells[(provider, op)]
            total = sum(cell.values())
            rows.append((op, provider,
                         f"{cell['database']:.3f}",
                         f"{cell['transformation']:.3f}",
                         f"{cell['other']:.3f}",
                         f"{total:.3f}"))
    lines = [format_table(
        ["Operation", "Provider", "Execution (ms)", "Transformation (ms)",
         "Other (ms)", "Total (ms)"],
        rows,
        title=(f"Figure 17 — BasicTest breakdown, simulated ms for "
               f"{result.count} entities (paper: transformation vanishes "
               f"under PJO; execution also drops)"))]
    if result.flush_elision:
        lines.append(flush_elision_line(result.flush_elision))
    return "\n".join(lines)


def check(result: Fig17Result) -> None:
    for op in OPERATIONS:
        jpa = result.cells[("H2-JPA", op)]
        pjo = result.cells[("H2-PJO", op)]
        assert pjo["transformation"] == 0.0 < jpa["transformation"], \
            f"Fig. 17: the transformation phase is removed under PJO ({op})"
        assert sum(pjo.values()) < sum(jpa.values()), \
            f"Fig. 17: total time drops under PJO ({op})"
    faster_execution = sum(
        1 for op in OPERATIONS
        if result.cells[("H2-PJO", op)]["database"]
        < result.cells[("H2-JPA", op)]["database"])
    assert faster_execution >= len(OPERATIONS) // 2, \
        "Fig. 17: the execution time in H2 also decreases for most cases"


def payload(result: Fig17Result) -> Dict[str, object]:
    return {
        "count": result.count,
        "cells": slash_keys(result.cells),
        "nvm": slash_keys(result.nvm),
        "obs": slash_keys(result.obs),
        "barrier": slash_keys(result.barrier),
        "flush_elision": result.flush_elision,
    }


EXPERIMENT = Experiment(
    name="fig17", title="Figure 17 — BasicTest time breakdown",
    run=run,
    full={"count": 100, "trace": True, "flush_certified": True},
    ci={"count": 40},
    table=table, check=check, payload=payload)
