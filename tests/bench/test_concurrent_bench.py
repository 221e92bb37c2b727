"""Concurrent gang bench: scaling target, payload schema, determinism."""

import json

from repro.bench.concurrent_bench import EXPERIMENT, run, run_scaling


def test_throughput_scales_with_gang_width(tmp_path):
    """The acceptance bar: 8-mutator throughput >= 3x 1-mutator on the
    identical contended op budget."""
    rows = run_scaling(tmp_path, widths=(1, 8), total_ops=96)
    assert rows[0].speedup == 1.0
    assert rows[1].speedup >= 3.0
    assert rows[1].elapsed_ms < rows[0].elapsed_ms


def test_speedup_monotone_in_gang_width(tmp_path):
    rows = run_scaling(tmp_path, widths=(1, 2, 4), total_ops=48)
    speedups = [row.speedup for row in rows]
    assert speedups == sorted(speedups)


def test_payload_schema(tmp_path):
    result = run(tmp_path, widths=(1, 4), total_ops=48)
    payload = json.loads(json.dumps(EXPERIMENT.payload(result)))
    assert [row["mutators"] for row in payload["scaling"]] == [1, 4]
    for row in payload["scaling"]:
        assert row["ops"] == 48
        assert row["throughput_ops_per_ms"] > 0
        assert len(row["busy_ns"]) == row["mutators"]
    assert payload["max_speedup"] == payload["scaling"][-1]["speedup"]


def test_bench_is_deterministic(tmp_path):
    a = run_scaling(tmp_path / "a", widths=(4,), total_ops=48)
    b = run_scaling(tmp_path / "b", widths=(4,), total_ops=48)
    assert a[0].elapsed_ms == b[0].elapsed_ms
    assert a[0].steps == b[0].steps
    assert a[0].busy_ns == b[0].busy_ns
