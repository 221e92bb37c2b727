"""Tests for the bench harness utilities and result determinism."""

import json
from dataclasses import replace

from repro.bench import __main__ as bench_main
from repro.bench.harness import (
    Experiment,
    breakdown_percentages,
    format_table,
)


class TestFormatTable:
    def test_alignment_and_separator(self):
        text = format_table(["Name", "Value"],
                            [("a", 1.0), ("longer", 123456.0)],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "Name" in lines[1] and "Value" in lines[1]
        assert set(lines[2]) <= {"-", "+"}
        assert "123,456" in text  # thousands separator for big floats

    def test_float_formatting(self):
        text = format_table(["x"], [(0.1234,), (1.5,), (0.0,)])
        assert "0.123" in text
        assert "1.50" in text

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text and "b" in text


class TestBreakdownPercentages:
    def test_normalises_to_100(self):
        shares = breakdown_percentages({"x": 30.0, "y": 50.0, "z": 20.0},
                                       ["x", "y"])
        assert shares["x"] == 30.0
        assert shares["y"] == 50.0
        assert shares["other"] == 20.0
        assert sum(shares.values()) == 100.0

    def test_empty_breakdown(self):
        shares = breakdown_percentages({}, ["x"])
        assert shares == {"x": 0.0, "other": 0.0}


def _front_end(monkeypatch, experiment, tmp_path):
    """Run the front end over a registry holding only *experiment*;
    returns (exit code, the BENCH json it wrote)."""
    monkeypatch.setattr(bench_main, "EXPERIMENTS",
                        {experiment.name: experiment})
    rc = bench_main.main([experiment.name, "--json", str(tmp_path)])
    with open(tmp_path / f"BENCH_{experiment.name}.json") as fh:
        return rc, json.load(fh)


class TestBenchPayload:
    def test_write_bench_json_wraps_envelope(self, tmp_path, monkeypatch,
                                             capsys):
        """``--json`` writes bench + params around the payload, whose
        fields stay top-level."""
        demo = Experiment(
            name="demo", title="Demo", run=lambda heap_dir, n: {"x": n},
            full={"n": 3}, ci={"n": 1}, table=str,
            check=lambda result: None, payload=dict)
        rc, payload = _front_end(monkeypatch, demo, tmp_path)
        assert rc == 0
        assert payload == {"bench": "demo", "params": {"n": 3}, "x": 3}
        assert "== demo: Demo ==" in capsys.readouterr().out

    def test_every_bench_writer_shares_the_envelope(self, tmp_path,
                                                    monkeypatch, capsys):
        """A real experiment (gc_cost, the cheapest writer) through the
        same front end."""
        from repro.bench.gc_cost import EXPERIMENT
        small = replace(EXPERIMENT, full={"object_count": 60})
        _rc, payload = _front_end(monkeypatch, small, tmp_path)
        assert payload["bench"] == "gc_cost"
        assert payload["params"] == {"object_count": 60}
        assert payload["objects"] == 60
        assert payload["scaling"]  # result fields untouched


class TestDeterminism:
    def test_fig06_is_bit_identical_across_runs(self):
        """The simulated clock makes every benchmark deterministic."""
        from repro.bench.fig06_pcj_breakdown import run
        a = run(count=400)
        b = run(count=400)
        assert a.shares == b.shares
        assert a.per_create_ns == b.per_create_ns

    def test_fig04_is_bit_identical_across_runs(self):
        from repro.bench.fig04_jpa_breakdown import run
        a = run(count=30)
        b = run(count=30)
        assert a.shares == b.shares
        assert a.total_ns == b.total_ns

    def test_tpcc_same_seed_same_result(self, tmp_path):
        from repro.tpcc import run_tpcc
        a = run_tpcc("jpa", transactions=20, seed=5, heap_dir=tmp_path / "a")
        b = run_tpcc("jpa", transactions=20, seed=5, heap_dir=tmp_path / "b")
        assert a.snapshot == b.snapshot
        assert a.sim_ns == b.sim_ns
