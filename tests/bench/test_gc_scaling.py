"""Parallel old-GC pause scaling: the acceptance bar for gc_workers.

The worker gang must buy real (simulated) pause reduction — at least 2x
at 8 workers on the §6.4 gc_cost workload — while leaving the durable
image untouched at every gang size.  Both halves are pinned here, along
with the JSON payload the CI trend tracking reads.
"""

import json
from dataclasses import replace

from repro.bench import __main__ as bench_main
from repro.bench.fig18_heap_loading import run as run_fig18
from repro.bench.gc_cost import EXPERIMENT, run_scaling


def test_eight_workers_at_least_halve_the_pause(tmp_path):
    rows = run_scaling(object_count=8000, worker_counts=(1, 8),
                       heap_dir=tmp_path)
    one, eight = rows
    assert one.workers == 1 and eight.workers == 8
    assert eight.speedup >= 2.0, \
        f"w=8 pause {eight.pause_ms:.3f}ms vs w=1 {one.pause_ms:.3f}ms " \
        f"({eight.speedup:.2f}x < 2x)"


def test_image_digest_identical_across_gang_sizes(tmp_path):
    rows = run_scaling(object_count=2000, worker_counts=(1, 2, 4, 8),
                       heap_dir=tmp_path)
    digests = {row.image_sha256 for row in rows}
    assert len(digests) == 1, [r.workers for r in rows]
    assert rows[-1].pause_ms < rows[0].pause_ms


def test_gc_cost_main_writes_scaling_json(tmp_path, monkeypatch, capsys):
    small = replace(EXPERIMENT, full={"object_count": 1000})
    monkeypatch.setattr(bench_main, "EXPERIMENTS", {"gc_cost": small})
    assert bench_main.main(["gc_cost", "--json", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "BENCH_gc_cost.json").read_text())
    assert [row["workers"] for row in payload["scaling"]] == [1, 2, 4, 8]
    assert len({row["image_sha256"] for row in payload["scaling"]}) == 1
    assert payload["scaling"][0]["speedup"] == 1.0


def test_fig18_parallel_zeroing_never_slower(tmp_path):
    result = run_fig18(object_counts=[2000, 4000], heap_dir=tmp_path)
    for count, times in result.series.items():
        assert times["ZeroW8"] <= times["Zero"], (count, times)
        assert times["Zero"] > times["UG"]
