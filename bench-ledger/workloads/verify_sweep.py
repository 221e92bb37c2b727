"""verify_sweep — what ``make check`` costs a developer.

The fast torn-mode crash sweep over all ten layers, then a persist-event
trace of a canonical PJH + PJO run fed to the ESP2xx hazard pass and the
ESP4xx elision pass, the ESP5xx static persist-order verifier over the
tree, and fsck.  ``faults``, ``analysis`` and ``tools`` dominate; the
persistence hot path is incidental.  ROADMAP item 2's ``analyze_trace``
and image-snapshot targets live here and nowhere else.

The sweeps build their own clocks and devices inside ``run_sweep``, out
of the harness's reach: ``faults.sweep`` has host time but no simulated
time, and the workload's ``sim_ms`` / ``nvm_flush_fence`` are those of
the canonical run (recorded once, then repeated under the certificate).

Seed: how the sweeps tear lines, and the canonical run's keys, values and
row ids.
Oracle: every sweep finishes exhausted-or-capped with no failed
invariant or fsck; the trace has no hazard errors; the certificate is
issued, active and elides something; the static verifier reports nothing
beyond ``analysis-assumptions.json``; the canonical map and rows read
back as the model says; fsck is clean.
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro.analysis.elision import certify_elision
from repro.analysis.hazards import analyze_trace
from repro.analysis.static_order import analyze_paths, load_assumptions
from repro.api import Espresso, EspressoConfig
from repro.faults.sweeps import SWEEPS, run_sweep
from repro.jpab import BASIC_TEST
from repro.nvm.clock import Clock
from repro.pjhlib import PjhHashmap, PjhLong, PjhTransaction
from repro.pjo.provider import PjoEntityManager
from repro.tools.fsck import fsck_heap

REPO_ROOT = Path(repro.__file__).resolve().parents[2]
MAP_KEYS = 60           # canonical PJH run: puts, then overwrites
ROWS = 30               # canonical PJO run: persist, update, delete half
PRELOAD_KEYS = 80       # entries already in the map when recording starts
BATCH = 10
HEAP = "canon"


def setup(rep):
    rng = rep.rng
    jvm = Espresso(rep.dir / "canon", config=EspressoConfig(
        clock=Clock(), observatory=rep.observatory()))
    heap = jvm.create_heap(HEAP, 8 << 20)
    # Record from the heap's first store: the hazard pass flags a pointer
    # to any object whose own flush it did not see.
    heap.enable_event_log("ledger-canonical")
    txn = PjhTransaction(jvm, capacity=4096)
    table = PjhHashmap(jvm, txn)
    jvm.set_root("table", table.h)
    em = PjoEntityManager(jvm)
    em.create_schema(BASIC_TEST.entities)
    keys = rng.sample(range(1 << 30), rep.n(PRELOAD_KEYS) + rep.n(MAP_KEYS))
    model = {}
    for key in keys[rep.n(MAP_KEYS):]:
        model[key] = rng.randrange(1 << 40)
        table.put(PjhLong(jvm, txn, key), PjhLong(jvm, txn, model[key]))
    rep.track(jvm=jvm)
    return {
        "jvm": jvm, "txn": txn, "table": table, "em": em, "model": model,
        "keys": keys[:rep.n(MAP_KEYS)],
        "values": [rng.randrange(1 << 40) for _ in range(2 * rep.n(MAP_KEYS))],
        "row_base": rng.randrange(100, 900) * 1000,   # always six digits
        "rows": rep.n(ROWS, floor=2),
        "assumptions": load_assumptions(
            REPO_ROOT / "analysis-assumptions.json"),
        "alive": [],
    }


def _sweeps(rep, state) -> None:
    for name in sorted(SWEEPS)[:rep.n(len(SWEEPS))]:
        try:
            report = run_sweep(name, "torn", exhaustive=False,
                               seed=rep.seed)
        except AssertionError as exc:   # a failed invariant or dirty fsck
            rep.check(False, "sweep invariant failed", name, str(exc)[:200])
            continue
        capped = len(report.iterations) == SWEEPS[name].fast_max_points
        rep.check(report.exhausted or capped,
                  "sweep stopped neither exhausted nor capped", name)
        rep.check(all(it.fsck_clean is not False
                      for it in report.iterations),
                  "sweep point left fsck dirty", name)


def _map_pass(state, values) -> None:
    """Put every canonical key once (insert or overwrite)."""
    jvm, txn, table, model = (state["jvm"], state["txn"], state["table"],
                              state["model"])
    for key, value in zip(state["keys"], values):
        table.put(PjhLong(jvm, txn, key), PjhLong(jvm, txn, value))
        model[key] = value


def _rows_pass(state) -> None:
    """Persist the canonical rows, update them, delete every other one."""
    em, test, alive = state["em"], BASIC_TEST, state["alive"]
    ids = [state["row_base"] + i for i in range(state["rows"])]
    for phase in ("persist", "update", "delete"):
        em.clear()
        for start in range(0, len(ids), BATCH):
            tx = em.get_transaction()
            tx.begin()
            for i in ids[start:start + BATCH]:
                if phase == "persist":
                    entity = test.make(i)
                    alive.append(entity)   # see jpab_crud._persist
                    em.persist(entity)
                elif phase == "update":
                    test.mutate(em.find(test.find_class, i), i)
                elif i % 2:
                    em.remove(em.find(test.find_class, i))
            tx.commit()
    state["row_ids"] = ids


def body(rep, state) -> None:
    jvm = state["jvm"]
    heap = jvm.heaps.heap(HEAP)
    half = len(state["keys"])
    with rep.leg("faults.sweep"):
        _sweeps(rep, state)
    with rep.leg("analysis.record"):
        _map_pass(state, state["values"][:half])
        _rows_pass(state)
        log = heap.disable_event_log()
    with rep.leg("analysis.hazards"):
        hazards = analyze_trace(log)
        errors = [d for d in hazards.diagnostics() if d.severity == "error"]
        rep.check(not errors, "persist-order hazard in the canonical trace",
                  [d.render() for d in errors[:3]])
    with rep.leg("analysis.elision"):
        cert = certify_elision(jvm, log)
        _map_pass(state, state["values"][half:])   # now under the certificate
        rep.check(cert.active, "elision certificate revoked",
                  cert.revocations[:3])
        rep.check(cert.flushes_elided + cert.fences_elided > 0,
                  "the certificate elided nothing")
    with rep.leg("analysis.static_order"):
        result = analyze_paths(assumptions=state["assumptions"])
        rep.check(result.files > 0, "static verifier found no files")
        rep.check(not result.findings, "ESP5xx findings in the tree",
                  [d.render() for d in result.findings[:3]])
    with rep.leg("tools.fsck_sweep"):
        report = fsck_heap(heap)
        rep.check(report.clean, "fsck dirty", report.errors[:3])


def verify(rep, state) -> None:
    jvm, table, em = state["jvm"], state["table"], state["em"]
    for key, value in state["model"].items():
        got = table.get_raw(key)
        rep.check_equal(None if got is None else jvm.get_field(got, "value"),
                        value, "canonical map entry", key)
    em.clear()
    test = BASIC_TEST
    for i in state["row_ids"]:
        entity = em.find(test.find_class, i)
        if i % 2:
            rep.check(entity is None, "deleted row still there", i)
        else:
            want = test.make(i)
            test.mutate(want, i)
            rep.check(entity is not None and entity.phone == want.phone,
                      "updated row", i)
