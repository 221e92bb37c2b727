"""Fleet bench: scaling target, payload schema, determinism."""

import json

from repro.bench.fleet_bench import EXPERIMENT, run, run_scaling


def test_throughput_scales_with_shard_count(tmp_path):
    """The acceptance bar: 8-shard throughput >= 3x 1-shard."""
    rows = run_scaling(tmp_path, shard_counts=(1, 8), sessions=48, rounds=3)
    assert rows[0].speedup == 1.0
    assert rows[1].speedup >= 3.0
    assert rows[1].p50_ns < rows[0].p50_ns  # less queueing per shard


def test_speedup_monotone_in_shard_count(tmp_path):
    rows = run_scaling(tmp_path, shard_counts=(1, 2, 4), sessions=48,
                       rounds=2)
    speedups = [row.speedup for row in rows]
    assert speedups == sorted(speedups)


def test_payload_schema_and_recovery(tmp_path):
    result = run(tmp_path, shard_counts=(1, 4), sessions=32, rounds=2,
                 recovery_shards=4)
    payload = json.loads(json.dumps(EXPERIMENT.payload(result)))
    assert [row["shards"] for row in payload["scaling"]] == [1, 4]
    for row in payload["scaling"]:
        assert row["p99_ns"] >= row["p50_ns"] > 0
        assert row["throughput_ops_per_ms"] > 0
    rec = payload["recovery"]
    assert rec["recovery_ns"] > 0
    assert rec["victim_state_intact"] is True
    assert rec["served_during_outage"] > 0   # survivors served the outage
    assert rec["dropped"] > 0                # the victim's queue was lost
    assert rec["summary"]["count"] == 1


def test_bench_is_deterministic(tmp_path):
    a = run_scaling(tmp_path / "a", shard_counts=(2,), sessions=24,
                    rounds=2)
    b = run_scaling(tmp_path / "b", shard_counts=(2,), sessions=24,
                    rounds=2)
    assert a[0].elapsed_ms == b[0].elapsed_ms
    assert a[0].p50_ns == b[0].p50_ns
    assert a[0].p99_ns == b[0].p99_ns
