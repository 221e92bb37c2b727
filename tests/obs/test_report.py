"""The ``python -m repro.obs.report`` CLI over BENCH-shaped JSON files."""

import json

from repro.obs.report import main

BENCH = {
    "cells": {"jpa": 1.0},
    "obs": {
        "jpa": {
            "spans": {"em.commit": {"count": 2, "total_ns": 3000.0}},
            "metrics": {"counters": {"sql.statements": 4},
                        "histograms": {}},
        },
        "phases": {
            "populate": {
                "spans": {"tpcc.populate": {"count": 1, "total_ns": 5e6}},
                "counters": {},
                "devices": {"pjh:tpcc": {"reads": 7, "writes": 3,
                                         "flushes": 2, "fences": 1}},
            },
        },
    },
}


def test_report_prints_every_obs_section(tmp_path, capsys):
    path = tmp_path / "BENCH_demo.json"
    path.write_text(json.dumps(BENCH))
    assert main([str(path)]) == 0
    out = capsys.readouterr().out
    assert f"== {path} ==" in out
    assert "-- obs.jpa --" in out and "-- obs.phases.populate --" in out
    assert "em.commit" in out and "sql.statements" in out
    device_row = next(line for line in out.splitlines()
                      if line.startswith("pjh:tpcc"))
    assert device_row.split() == ["pjh:tpcc", "7", "3", "2", "1", "0", "0"]


def test_report_globs_the_cwd_and_names_missing_files(tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([]) == 1
    assert "no BENCH_*.json files found" in capsys.readouterr().out
    (tmp_path / "BENCH_empty.json").write_text(json.dumps({"cells": {}}))
    assert main([]) == 0
    assert "(no obs sections found)" in capsys.readouterr().out
    assert main(["BENCH_absent.json"]) == 1
    assert "missing files: BENCH_absent.json" in capsys.readouterr().out
