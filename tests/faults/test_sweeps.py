"""The registered per-layer crash sweeps.

The fast tests run a strided, capped walk of every (sweep, fault-mode)
pair on each ordinary test run.  The exhaustive walks — every injection
point until the workload outruns the bomb — carry ``@pytest.mark.sweep``
and are deselected by default; run them with ``make sweep`` or
``pytest -m sweep``.
"""

import pytest

from repro.faults import SWEEPS, Sweep, run_sweep
from repro.faults.harness import _observatory_of, _timeline_dump
from repro.nvm.device import FaultMode

ALL_PAIRS = [(name, mode) for name in sorted(SWEEPS)
             for mode in FaultMode.ALL]

# The walks, pinned: crash points per layer, identical in all three fault
# modes (the fault mode decides what a crash loses, not where it lands).
# A refactor of the harness or of a layer's scaffold that changes one of
# these numbers changed what the sweep exercises.
FAST_CRASH_POINTS = {
    "concurrent_kv": 4, "fleet_failover": 4, "h2_sql": 2,
    "mixed_domains": 3, "pcj_nvml": 7, "pjh_alloc_buffer": 5,
    "pjh_alloc_gc": 6, "pjhlib": 5, "pjo_commit": 5, "resume_task": 7}
EXHAUSTIVE_CRASH_POINTS = {  # 769 per fault mode, 2307 in all
    "concurrent_kv": 81, "fleet_failover": 74, "h2_sql": 31,
    "mixed_domains": 50, "pcj_nvml": 48, "pjh_alloc_buffer": 47,
    "pjh_alloc_gc": 66, "pjhlib": 134, "pjo_commit": 165,
    "resume_task": 73}
NO_HEAP_TO_FSCK = {"h2_sql", "pcj_nvml"}  # a bare Database / MemoryPool


def _assert_pinned_walk(report, crash_points):
    assert report.exhausted, report.summary()
    assert report.crash_points == crash_points, report.summary()
    summary = report.to_dict()
    assert summary["points"] == crash_points + 1  # the final clean run
    assert summary["fsck_checked"] == (
        0 if report.name in NO_HEAP_TO_FSCK else summary["points"])


def test_registry_covers_all_ten_layers():
    assert sorted(SWEEPS) == ["concurrent_kv", "fleet_failover", "h2_sql",
                              "mixed_domains", "pcj_nvml",
                              "pjh_alloc_buffer", "pjh_alloc_gc",
                              "pjhlib", "pjo_commit", "resume_task"]


@pytest.mark.parametrize("name,mode", ALL_PAIRS)
def test_fast_sweep(name, mode):
    report = run_sweep(name, mode, exhaustive=False)
    assert report.fault_mode == mode
    _assert_pinned_walk(report, FAST_CRASH_POINTS[name])


@pytest.mark.sweep
@pytest.mark.parametrize("name,mode", ALL_PAIRS)
def test_exhaustive_sweep(name, mode):
    report = run_sweep(name, mode)
    _assert_pinned_walk(report, EXHAUSTIVE_CRASH_POINTS[name])


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_every_sweep_context_is_traced(name):
    """Each sweep's contexts carry a live Observatory, so a failing
    iteration dumps its span timeline (see harness._timeline_dump)."""
    sweep = SWEEPS[name]
    ctx = sweep.setup()
    try:
        assert _observatory_of(ctx) is not None
        sweep.workload(ctx)
        rctx = sweep.recover(ctx)
        assert _observatory_of(rctx) is not None
        dump = _timeline_dump(ctx, rctx)
        assert "crashed context timeline" in dump
        assert "recovered context timeline" in dump
    finally:
        if sweep.teardown is not None:
            sweep.teardown(ctx, None)


@pytest.mark.sweep
@pytest.mark.parametrize("mode", FaultMode.ALL)
def test_pjh_alloc_gc_site_sweeps(mode):
    """Per-site sweeps of the GC's most delicate failpoints."""
    for site in ("pgc.flag_raised", "gc.compact.copied",
                 "pgc.redo_persisted"):
        report = SWEEPS["pjh_alloc_gc"].run_site(site, mode)
        assert report.exhausted, report.summary()


def test_sweep_all_json_summary(tmp_path, capsys):
    """``sweep_all --json`` writes per-layer point counts."""
    import json

    from repro.faults.sweep_all import main

    out = tmp_path / "sweeps.json"
    rc = main(["--fast", "--sweep", "concurrent_kv", "--mode", "atomic",
               "--json", str(out)])
    assert rc == 0
    summary = json.loads(out.read_text())
    assert summary["failures"] == 0
    assert summary["fast"] is True
    (layer,) = summary["layers"]
    assert layer["name"] == "concurrent_kv"
    assert layer["failed"] is False
    assert layer["points"] == layer["crash_points"] + 1  # final clean run
    assert layer["fsck_checked"] == layer["points"]
    assert layer["exhausted"] is True
    assert summary["total_points"] == layer["points"]
    assert summary["total_crash_points"] == layer["crash_points"]


def test_sweep_all_records_any_exception_and_keeps_going(tmp_path,
                                                         monkeypatch,
                                                         capsys):
    """A sweep that dies of something other than a failed assertion — a
    raising setup(), the backstop's RuntimeError, a bug in a workload — is
    one failed layer: the remaining pairs still run, the JSON is still
    written, and the exit code is 1."""
    import json

    from repro.faults.sweep_all import main

    def broken_setup():
        raise OSError("no room for the heap")

    toy = SWEEPS["pcj_nvml"]
    broken = Sweep("aaa_broken", bomb="flush", setup=broken_setup,
                   workload=toy.workload, recover=toy.recover,
                   invariant=toy.invariant, devices=toy.devices)
    registry = {"aaa_broken": broken, "pcj_nvml": toy}
    monkeypatch.setattr("repro.faults.sweeps.SWEEPS", registry)
    monkeypatch.setattr("repro.faults.sweep_all.SWEEPS", registry)
    out = tmp_path / "sweeps.json"
    rc = main(["--fast", "--mode", "torn", "--json", str(out)])
    assert rc == 1
    summary = json.loads(out.read_text())
    assert summary["failures"] == 1
    failed, passed = summary["layers"]   # the broken layer ran first
    assert failed["name"] == "aaa_broken" and failed["failed"] is True
    assert failed["error"] == "OSError: no room for the heap"
    assert passed["name"] == "pcj_nvml" and passed["failed"] is False
    assert passed["crash_points"] == FAST_CRASH_POINTS["pcj_nvml"]
    assert "aaa_broken[torn]: FAILED: OSError" in capsys.readouterr().out


def test_surface_the_perf_ledger_consumes():
    """Exactly the calls and attributes ``bench-ledger/workloads/
    verify_sweep.py`` makes (tier-1 never imports the ledger, so a rename
    here would otherwise first show up as failed benchmark operations)."""
    from repro.faults.sweeps import SWEEPS, run_sweep

    name = sorted(SWEEPS)[0]
    report = run_sweep(name, "torn", exhaustive=False, seed=3)
    capped = len(report.iterations) == SWEEPS[name].fast_max_points
    assert report.exhausted or capped
    assert report.crash_points == FAST_CRASH_POINTS[name]
    assert all(it.fsck_clean is not False for it in report.iterations)
