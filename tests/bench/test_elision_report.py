"""The ``make elision-report`` CI tool (DESIGN.md §17).

The canonical trace's ESP401/402 fingerprints must be deterministic —
they are what ``analysis-baseline.json`` pins for the elision pass — and
the report CLI must enforce the per-bench gates and emit the JSON.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.diagnostics import Baseline
from repro.analysis.elision import analyze_elision
from repro.bench.elision_report import (
    COALESCING_BASELINE,
    assemble_report,
    canonical_fingerprints,
    canonical_trace,
    main,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """The one end-to-end ``main()`` call (both benches run once per
    module): its exit code and the report it wrote."""
    out = tmp_path_factory.mktemp("elision") / "report.json"
    rc = main(["--count", "20", "--transactions", "25",
               "--out", str(out),
               "--baseline", str(REPO_ROOT / "analysis-baseline.json")])
    return rc, json.loads(out.read_text())


def test_canonical_trace_is_deterministic(tmp_path):
    """Same workload, different directories: identical fingerprints,
    covering both rules of the pass."""
    logs = [canonical_trace(tmp_path / str(i)) for i in range(2)]
    prints = [sorted(d.fingerprint
                     for d in analyze_elision(log).diagnostics())
              for log in logs]
    assert prints[0] == prints[1]
    assert logs[0].events == logs[1].events
    codes = {fp.split(":")[0] for fp in prints[0]}
    assert codes == {"ESP401", "ESP402"}


def test_repo_baseline_covers_the_canonical_fingerprints():
    """The shipped analysis-baseline.json grandfathers exactly the
    canonical trace's findings in — the new pass is baseline-complete."""
    baseline = Baseline.load(REPO_ROOT / "analysis-baseline.json")
    fingerprints = canonical_fingerprints()
    assert fingerprints, "canonical trace must prove some redundancy"
    for fp in fingerprints:
        assert fp in baseline, f"{fp} missing from analysis-baseline.json"


def test_report_cli_runs_the_gates_and_writes_json(cli_run):
    rc, report = cli_run
    assert rc == 0
    assert report["pass"] is True
    assert report["coalescing_baseline"] == COALESCING_BASELINE
    assert set(report["benches"]) == {"fig17", "tpcc"}
    for entry in report["benches"].values():
        assert entry["gates_pass"] is True
        assert entry["reduction"] > COALESCING_BASELINE
        assert 0.0 < entry["elision_reduction"] < entry["reduction"]
        assert entry["delta_vs_coalesced"]["clflush"] < 0
        assert entry["delta_vs_coalesced"]["sfence"] < 0
        assert entry["durable_image_equal"] and entry["fsck_clean"]
        assert entry["hazard_errors"] == 0
    assert report["canonical"]["covered"] is True


def test_report_cli_fails_on_uncovered_fingerprints(cli_run, tmp_path):
    """An empty baseline no longer covers the pass: the report fails
    (``main`` exits 1 on ``pass: false``), missing fingerprints named —
    assembled from the same bench entries, only the baseline differs."""
    empty = tmp_path / "empty-baseline.json"
    empty.write_text('{"fingerprints": []}\n')
    report = assemble_report(cli_run[1]["benches"], empty)
    assert report["pass"] is False
    assert report["canonical"]["covered"] is False
    assert report["canonical"]["missing_from_baseline"] == \
        canonical_fingerprints()
    # The benches themselves still clear their gates.
    assert all(entry["gates_pass"]
               for entry in report["benches"].values())
