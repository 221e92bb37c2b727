"""Golden tests for the ESP5xx static persist-order verifier.

The fixture corpus under ``fixtures/`` pins the rule semantics from
both sides: every ``bad_*`` module must be flagged with *exactly* its
one seeded rule (full recall), and every ``clean_*`` look-alike must
produce zero findings (zero false positives).  A second set of tests
pins the in-tree contract: the repo's own durable subsystems are clean
under the checked-in assumptions file, with no stale assumption
entries, and the family-aware ``--update-baseline`` flow refuses to
baseline error findings.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.static_order import (
    Assumptions,
    _function_defs,
    _register_labels,
    analyze_paths,
    load_assumptions,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
REPO_SRC = str(REPO_ROOT / "src")
FIXTURES = Path(__file__).parent / "fixtures"

#: fixture file -> the single rule it seeds (recall side of the golden
#: contract); every other fixture file must stay silent (precision side).
EXPECTED = {
    "bad_esp501_unguarded_publish.py": "ESP501",
    "bad_esp501_missing_fence.py": "ESP501",
    "bad_esp502_unlogged_store.py": "ESP502",
    "bad_esp502_store_after_commit.py": "ESP502",
    "bad_esp503_pending_exit.py": "ESP503",
    "bad_esp503_modal_fence.py": "ESP503",
    "bad_esp504_sibling_skip.py": "ESP504",
    "bad_esp505_callgraph_escape.py": "ESP505",
}

def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *map(str, args)],
        capture_output=True, text=True, env=env)


def codes_by_file(result):
    out = {}
    for diag in result.diagnostics():
        out.setdefault(diag.where.split("::")[0], set()).add(diag.code)
    return out


@pytest.fixture(scope="module")
def fixture_result():
    return analyze_paths(paths=[FIXTURES], assumptions=Assumptions.empty())


def test_fixture_corpus_is_large_enough():
    bad = sorted(p.name for p in FIXTURES.glob("bad_*.py"))
    clean = sorted(p.name for p in FIXTURES.glob("clean_*.py"))
    assert len(bad) >= 8 and len(clean) >= 4
    assert set(bad) == set(EXPECTED)


def test_full_recall_every_seeded_violation_found(fixture_result):
    found = codes_by_file(fixture_result)
    for name, code in EXPECTED.items():
        assert found.get(name) == {code}, \
            f"{name}: expected exactly {{{code}}}, got {found.get(name)}"


def test_zero_false_positives_on_clean_lookalikes(fixture_result):
    found = codes_by_file(fixture_result)
    flagged_clean = {name for name in found if name.startswith("clean_")}
    assert flagged_clean == set()
    # ... and nothing outside the seeded files at all.
    assert set(found) == set(EXPECTED)


def test_all_five_rules_are_exercised(fixture_result):
    codes = {d.code for d in fixture_result.diagnostics()}
    assert codes == {"ESP501", "ESP502", "ESP503", "ESP504", "ESP505"}


def test_same_named_publish_points_deeper_then_later_label_wins():
    """A call is classified by bare name, so one label must win when two
    decorated functions share a name: the breadth-first-walk order."""
    source = (
        "class Heap:\n"
        "    @publish_point('method')\n"
        "    def link(self): pass\n"
        "    @publish_point('first')\n"
        "    def top(self): pass\n"
        "if True:\n"
        "    @publish_point('second')\n"
        "    def top(): pass\n"
        "@publish_point('module')\n"
        "def link(): pass\n")
    index = {}
    _register_labels(_function_defs(ast.parse(source)), index)
    assert index == {"link": "method",      # deeper beats later
                     "top": "second"}       # same depth: later


def test_in_tree_durable_subsystems_are_clean():
    """The acceptance contract: zero findings on the repo's own durable
    code under the checked-in assumptions file, and every assumption
    entry is actually used (no rot)."""
    assumptions = load_assumptions(REPO_ROOT / "analysis-assumptions.json")
    result = analyze_paths(repo_root=REPO_ROOT, assumptions=assumptions)
    assert [d.render() for d in result.diagnostics()] == []
    summary = result.summary()
    assert summary["unused_assumptions"] == []
    assert summary["suppressed"] > 0          # the file is load-bearing
    assert summary["functions"] > 300         # the scope is non-trivial
    assert len(summary["publish_points"]) >= 5


def test_assumptions_without_why_are_rejected(tmp_path):
    path = tmp_path / "assume.json"
    path.write_text(json.dumps(
        {"suppress": [{"fingerprint": "ESP501:x.py::C.f"}]}))
    with pytest.raises(ValueError):
        load_assumptions(path)
    path.write_text(json.dumps(
        {"assume": [{"function": "x.py::C.f",
                     "contract": "defers-fence", "why": ""}]}))
    with pytest.raises(ValueError):
        load_assumptions(path)


def test_update_baseline_refuses_error_findings(tmp_path):
    baseline = tmp_path / "baseline.json"
    proc = run_cli("--static-order", "--paths", FIXTURES,
                   "--rules", "ESP301", "--baseline", baseline,
                   "--update-baseline")
    assert proc.returncode == 2
    assert "refusing to update" in proc.stdout
    assert not baseline.exists()


def test_update_baseline_is_family_aware(tmp_path):
    """Updating from a warnings-only run keeps other families'
    fingerprints and replaces only the ESP5xx ones."""
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "mod.py").write_text(
        "class C:\n"
        "    def touch(self, address):\n"
        "        self.pd.flush(address)\n")
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(
        {"fingerprints": ["ESP401:line 9", "ESP503:stale.py::Old.gone"]}))
    proc = run_cli("--static-order", "--paths", tree,
                   "--rules", "ESP301", "--baseline", baseline,
                   "--update-baseline")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    kept = set(json.loads(baseline.read_text())["fingerprints"])
    assert "ESP401:line 9" in kept                    # family 4 did not run
    assert "ESP503:stale.py::Old.gone" not in kept    # family 5 replaced
    assert "ESP503:mod.py::C.touch" in kept
