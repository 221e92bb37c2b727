"""Smoke and self-tests of the perf ledger.

Run with ``python -m pytest bench-ledger/tests`` (tier-1 ``testpaths`` is
untouched).  Every workload runs twice at ``--scale 0.1`` in fresh worker
processes, exactly as ``run.py`` runs them.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

import pytest

LEDGER_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = LEDGER_DIR.parent
for path in (LEDGER_DIR, REPO_ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import compare  # noqa: E402
import run  # noqa: E402
from harness import Rep  # noqa: E402
from metrics import (BENCHMARK_JSON, DEVICE_COUNTERS, END_TO_END,  # noqa: E402
                     SIM_CATEGORIES, WORKLOAD_LEGS, WORKLOADS,
                     per_layer_names)

SCALE = 0.1
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def _suite(seed: int, workloads=WORKLOADS) -> dict:
    return run.run_suite(list(workloads), seed, SCALE, traced=False, reps=1,
                         echo=False)["workloads"]


@pytest.fixture(scope="module")
def first():
    return _suite(seed=0)


@pytest.fixture(scope="module")
def second():
    return _suite(seed=0)


def test_benchmark_json_names_what_the_ledger_reports():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == [LEDGER_DIR.name]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == per_layer_names()
    assert len(spec["per_layer"]) <= 128
    for entry in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(entry["name"]), entry["name"]
    for metric in spec["end_to_end"]:
        assert 0 <= metric["bound"] <= 0.25
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_schema_and_invariants(first, workload):
    result = first[workload]
    assert result["ops_failed"] == 0, result["failures"]
    assert result["ops_attempted"] >= 1
    assert list(result["end_to_end"]) == [name for name, _ in END_TO_END]
    for name, value in result["end_to_end"].items():
        assert value > 0, f"{workload}/{name} must never be 0"
    assert list(result["per_layer"]) == [n for n, _ in per_layer_names()]
    per_layer = result["per_layer"]
    # legs: every leg of this workload ran, none of another's
    for other, legs in WORKLOAD_LEGS.items():
        for leg in legs:
            ran = per_layer[f"{leg}.host_s"] > 0
            assert ran == (other == workload), leg
    legs = WORKLOAD_LEGS[workload]
    sim_ms = result["end_to_end"]["sim_ms"]
    assert sum(per_layer[f"{leg}.sim_ms"] for leg in legs) \
        == pytest.approx(sim_ms, rel=1e-9)
    assert sum(per_layer[f"sim.{c}"] for c in SIM_CATEGORIES) \
        == pytest.approx(sim_ms, rel=1e-9)
    body = result["samples"]["host_s"][0]
    assert sum(per_layer[f"{leg}.host_s"] for leg in legs) \
        == pytest.approx(body, rel=0.02)
    assert per_layer["nvm.clflush"] + per_layer["nvm.sfence"] \
        == result["end_to_end"]["nvm_flush_fence"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_model_side_repeats_exactly_across_processes(first, second, workload):
    a, b = first[workload], second[workload]
    for name in ("sim_ms", "nvm_flush_fence"):
        assert a["end_to_end"][name] == b["end_to_end"][name], name
    for name, _attr in DEVICE_COUNTERS:
        assert a["per_layer"][name] == b["per_layer"][name], name


def test_another_seed_gives_other_inputs(first):
    other = _suite(seed=1, workloads=["pjh_write"])["pjh_write"]
    assert other["ops_failed"] == 0
    assert other["end_to_end"]["sim_ms"] \
        != first["pjh_write"]["end_to_end"]["sim_ms"]


def test_driver_line_has_exactly_the_contract_keys(first):
    line = json.loads(run.driver_line(first["jpab_crud"], trace=0))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {name for name, _ in END_TO_END}
    traced = json.loads(run.driver_line(first["jpab_crud"], trace=1))
    assert set(traced["metrics"]) == {name for name, _ in per_layer_names()}


def test_traced_pass_attributes_host_time_to_layers():
    result = run.run_worker("pjh_write", 0, SCALE, 1, reps=1, seconds=None)
    per_layer = result["per_layer"]
    self_s = sum(v for k, v in per_layer.items()
                 if k.endswith(".host_self_s"))
    assert self_s == pytest.approx(result["traced_body_s"], rel=1e-6)
    assert per_layer["nvm.host_self_s"] > 0 and per_layer["nvm.calls"] > 0
    assert per_layer["trace.overhead_x"] > 1
    assert per_layer["py.import_s"] > 0
    assert {s["name"] for s in result["spans"]} \
        >= {"setup", "body", *WORKLOAD_LEGS["pjh_write"]}
    assert result["obs_spans"], "the Observatory recorded no sim-time spans"


def test_a_corrupted_oracle_input_is_counted_as_failed_ops(tmp_path):
    from workloads import pjh_write

    def verify_against_a_wrong_model(rep, sides):
        sides[0].inputs.updated[0] ^= 1   # the model now expects another value
        pjh_write.verify(rep, sides)

    rep = Rep("pjh_write", 0, 0.05, tmp_path)
    rep.run(pjh_write.setup, pjh_write.body, verify_against_a_wrong_model)
    assert rep.attempted > 0
    assert len(rep.failures) >= 1
    assert "slot" in rep.failures[0]


def _fake(host_s, sim_ms, samples):
    return {"seed": 0, "scale": 1.0, "workloads": {"w": {
        "host_s_quartiles": statistics.quantiles(samples, n=4),
        "end_to_end": {"host_s": host_s, "setup_s": 1.0,
                       "host_peak_mb": 50.0, "sim_ms": sim_ms,
                       "nvm_flush_fence": 10},
        "ops_failed": 0}}}


def test_compare_verdicts(capsys):
    bounds = {"host_s": 0.1, "setup_s": 0.1, "host_peak_mb": 0.05,
              "sim_ms": 0.02, "nvm_flush_fence": 0.02}
    steady = [1.0, 1.01, 1.02, 1.0, 1.01]
    noisy = [1.0, 1.3, 1.5, 1.0, 1.4]
    assert compare.compare(_fake(1.0, 5.0, steady),
                           _fake(1.02, 5.0, steady), bounds) == 0
    assert "unchanged" in capsys.readouterr().out
    assert compare.compare(_fake(1.0, 5.0, steady),
                           _fake(1.2, 5.0, steady), bounds) == 1
    assert "w/host_s" in capsys.readouterr().out.split("regressed: ")[-1]
    assert compare.compare(_fake(1.0, 5.0, noisy),
                           _fake(1.02, 5.0, steady), bounds) == 0
    assert "unresolved" in capsys.readouterr().out
    assert compare.compare(_fake(1.0, 5.0, steady),
                           _fake(1.0, 5.001, steady), bounds) == 0
    assert "EXACT-MISMATCH" in capsys.readouterr().out
    other_seed = _fake(1.0, 5.0, steady)
    other_seed["seed"] = 1
    assert compare.compare(_fake(1.0, 5.0, steady), other_seed, bounds) == 2
