"""The paper's shape claims, gating tier-1.

Every entry of ``EXPERIMENTS`` runs at its CI size and must pass its own
``check``; the registry must be complete (one entry per experiment module,
every DESIGN.md §4 "Regenerated by" command a registry key, and §3's
module inventory the tree); and the front end must run, write and fail
the way the Makefile and docs say it does.
"""

import json
import os
import pkgutil
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro.bench
from repro.bench import __main__ as bench_main
from repro.bench.__main__ import EXPERIMENTS

REPO_ROOT = Path(__file__).resolve().parents[2]


def _python(*args):
    """Run a fresh interpreter over this checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO_ROOT / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, *map(str, args)],
                          capture_output=True, text=True, env=env)


NAMES = ["fig04", "fig06", "fig15", "fig16", "fig17", "fig18", "gc_cost",
         "tpcc", "ablation_pjo", "ablation_latency", "resume", "concurrent",
         "fleet"]

#: Experiments whose payload is pinned equal across two runs.
PINNED = {"fig04", "fig06", "fleet", "concurrent"}


#: Fig. 15 at CI size, cell by cell: a change that moves one declares it
#: by regenerating the file (``python tests/bench/test_experiments.py``).
FIG15_CELLS = Path(__file__).with_name("fig15_cells.json")


def fig15_cells(result) -> dict:
    """Per cell: both substrates' simulated ns per op and their clflush
    and sfence counts."""
    names = ("pjh_clflush", "pjh_sfence", "pcj_clflush", "pcj_sfence")
    return {"count": result.count, "cells": {
        "/".join(key): {"pjh_ns": pjh_ns, "pcj_ns": pcj_ns,
                        **dict(zip(names, result.flushes[key]))}
        for key, (pjh_ns, pcj_ns, _) in result.cells.items()}}


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_claim_holds_at_ci_size(name, tmp_path):
    exp = EXPERIMENTS[name]
    result = exp.run(heap_dir=tmp_path / "a", **exp.ci)
    exp.check(result)
    assert exp.table(result).strip()
    dumped = json.dumps(exp.payload(result), sort_keys=True)
    if name in PINNED:
        again = exp.run(heap_dir=tmp_path / "b", **exp.ci)
        assert json.dumps(exp.payload(again), sort_keys=True) == dumped
    if name == "fig15":
        assert fig15_cells(result) == json.loads(FIG15_CELLS.read_text())


def test_registry_is_complete():
    assert sorted(EXPERIMENTS) == sorted(NAMES)
    assert all(exp.name == name for name, exp in EXPERIMENTS.items())
    modules = {info.name
               for info in pkgutil.iter_modules(repro.bench.__path__)}
    owners = [exp.run.__module__.rsplit(".", 1)[1]
              for exp in EXPERIMENTS.values()]
    # Every experiment module contributes exactly one entry.
    assert sorted(owners) == sorted(
        modules - {"harness", "__main__", "elision_report"})


def test_design_index_names_registry_keys():
    """Every `python -m repro.bench NAME` in DESIGN.md §4 is a registry key,
    and every key has its row."""
    design = (REPO_ROOT / "DESIGN.md").read_text()
    section = design[design.index("## 4. Experiment index"):
                     design.index("## 5. Testing strategy")]
    rows = [line for line in section.splitlines()
            if line.startswith("|") and "repro.bench" in line]
    named = [re.fullmatch(r"`python -m repro\.bench (\w+)`",
                          row.split("|")[-2].strip()) for row in rows]
    assert all(named), rows
    assert sorted(match.group(1) for match in named) == sorted(EXPERIMENTS)


def test_design_module_inventory_matches_the_tree():
    """DESIGN.md §3 lists every module under src/repro/ and examples/
    (``__init__.py`` aside), and nothing that does not exist."""
    design = (REPO_ROOT / "DESIGN.md").read_text()
    section = design[design.index("## 3. Module inventory"):
                     design.index("## 4. Experiment index")]
    listed, dirs = set(), []
    for line in section.split("```")[1].splitlines():
        entry = re.match(r"( *)(\S+?\.py|\S+/)(\s|$)", line)
        if not entry:
            continue
        depth = len(entry.group(1)) // 2
        del dirs[depth:]
        if entry.group(2).endswith("/"):
            dirs.append(entry.group(2))
        else:
            listed.add("".join(dirs) + entry.group(2))
    tree = {path.relative_to(REPO_ROOT).as_posix()
            for top in ("src/repro", "examples")
            for path in (REPO_ROOT / top).rglob("*.py")
            if path.name != "__init__.py"}
    assert sorted(listed - tree) == [], "listed but missing"
    assert sorted(tree - listed) == [], "present but not listed"


def test_harness_import_does_not_load_the_experiments():
    code = ("import sys, repro.bench.harness; "
            "print([m for m in sys.modules if m.startswith('repro.bench.')])")
    assert _python("-c", code).stdout.strip() == "['repro.bench.harness']"


def test_fig15_hashmap_create_outgrows_the_default_undo_log(tmp_path):
    """Regression: the rehash at 1,537 entries undo-logs 1,538 slots in one
    transaction; the bench used to build a default 1024-slot log and abort
    with ``PJH undo log overflow`` at its documented size (3,000)."""
    from repro.bench.fig15_pjh_vs_pcj import _substrates
    count = 1600
    _clock, _pcj_ops, _jvm, (create, _set, get) = _substrates(
        "Hashmap", count, tmp_path)
    for i in range(count):
        create(i)
    assert get(count - 1) is not None


class TestFrontEnd:
    def test_runs_one_experiment_and_writes_its_json(self, tmp_path):
        """The documented command line, end to end in a fresh process."""
        proc = _python("-m", "repro.bench", "fig04", "--json", tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "Figure 4" in proc.stdout
        payload = json.loads((tmp_path / "BENCH_fig04.json").read_text())
        assert payload["bench"] == "fig04"
        assert payload["params"] == dict(EXPERIMENTS["fig04"].full)
        assert payload["count"] == payload["params"]["count"]

    def test_json_is_written_only_when_asked(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.chdir(tmp_path)
        assert bench_main.main(["concurrent"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_unknown_name_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            bench_main.main(["fig99"])
        assert exc.value.code == 2
        assert "fig99" in capsys.readouterr().err

    def test_failed_claim_exits_1_and_the_rest_still_run(self, monkeypatch,
                                                         capsys):
        def refuted(result):
            raise AssertionError("Fig. 4: refuted")

        broken = replace(EXPERIMENTS["fig04"], check=refuted,
                         full=EXPERIMENTS["fig04"].ci)
        monkeypatch.setattr(
            bench_main, "EXPERIMENTS",
            {"fig04": broken, "concurrent": EXPERIMENTS["concurrent"]})
        assert bench_main.main([]) == 1
        captured = capsys.readouterr()
        assert "fig04: FAILED: AssertionError: Fig. 4: refuted" in captured.out
        assert "== concurrent:" in captured.out
        assert "1 experiment(s) failed: fig04" in captured.err


if __name__ == "__main__":
    import tempfile
    fig15 = EXPERIMENTS["fig15"]
    with tempfile.TemporaryDirectory() as tmp:
        cells = fig15_cells(fig15.run(heap_dir=Path(tmp), **fig15.ci))
    FIG15_CELLS.write_text(json.dumps(cells, indent=1, sort_keys=True) + "\n")
