"""The analyzer is deterministic: byte-identical JSON across runs and
across unrelated session knobs (gc_workers)."""

import os
import subprocess
import sys
from pathlib import Path

from repro.analysis.closure import analyze_vm
from repro.analysis.diagnostics import AnalysisReport
from repro.api import Espresso
from repro.runtime.klass import FieldKind, field

REPO_ROOT = Path(__file__).resolve().parents[2]
REPO_SRC = str(REPO_ROOT / "src")


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *map(str, args)],
        capture_output=True, text=True, env=env)


def schema_report_json(tmp_path, gc_workers: int) -> str:
    jvm = Espresso(tmp_path, gc_workers=gc_workers)
    jvm.define_class("Leaf", [field("data", FieldKind.REF, declared="[J")])
    jvm.define_class("Person", [
        field("id", FieldKind.INT),
        field("name", FieldKind.REF, declared="java.lang.String"),
        field("leaf", FieldKind.REF, declared="Leaf")])
    closure = analyze_vm(jvm.vm, persist_only={
        "Person", "Leaf", "java.lang.String", "[J"})
    report = AnalysisReport()
    report.add_pass("closure", closure.diagnostics(include_open=True),
                    closure.summary())
    return report.to_json()


def test_cli_json_is_byte_identical_across_runs(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "a.py").write_text("device.clflush(0)\nt = time.time()\n")
    runs = [run_cli("--paths", tree, "--json") for _ in range(2)]
    assert runs[0].returncode == runs[1].returncode == 1
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout  # non-empty: the comparison is meaningful


def test_closure_report_identical_across_gc_workers(tmp_path):
    first = schema_report_json(tmp_path / "w1", gc_workers=1)
    second = schema_report_json(tmp_path / "w4", gc_workers=4)
    assert first == second


def test_closure_report_identical_across_runs(tmp_path):
    first = schema_report_json(tmp_path / "a", gc_workers=2)
    second = schema_report_json(tmp_path / "b", gc_workers=2)
    assert first == second
    assert '"closure"' in first


FIXTURES = REPO_ROOT / "tests" / "analysis" / "fixtures"


def run_static_order_cli(hashseed=None, paths=FIXTURES):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    if hashseed is not None:
        env["PYTHONHASHSEED"] = str(hashseed)
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--static-order",
         "--paths", str(paths), "--rules", "ESP305", "--json"],
        capture_output=True, text=True, env=env)


def test_static_order_json_byte_identical_across_runs():
    runs = [run_static_order_cli() for _ in range(2)]
    assert runs[0].returncode == runs[1].returncode == 1
    assert runs[0].stdout == runs[1].stdout
    assert '"static_order"' in runs[0].stdout


def test_static_order_json_stable_across_hashseed():
    """Set iteration inside the engine (states, pending sets, summaries)
    must never leak into the report: vary PYTHONHASHSEED explicitly."""
    outputs = {run_static_order_cli(hashseed=s).stdout for s in (0, 1, 4242)}
    assert len(outputs) == 1
    assert '"ESP505"' in outputs.pop()


#: Nested try blocks around a loop that keeps opening transactions: one
#: block collects more states than MAX_STATES_PER_BLOCK, so what widening
#: merges depends on the order the engine steps states in.
WIDENING_MODULE = """\
def helper(h, fence=True, flag=False):
    try:
        try:
            self.device.write(0, 1)
        except Exception:
            jvm.flush_reachable(h)
        finally:
            pd.flush(3)
    except Exception:
        if fence:
            self.domain.flush_words(0, 2)
    try:
        if fence:
            self.device.write(0, 1)
        try:
            self.device.write(0, 1)
        except Exception:
            self.domain.flush(0, 2)
        for item in items:
            txn.begin()
    except Exception:
        self.device.write(0, 1)
"""


def test_widened_static_order_stable_across_hashseed(tmp_path):
    """States are stepped in a total order: a tie used to keep the order
    string hashing gave the set, and the widened findings followed it."""
    (tmp_path / "m.py").write_text(WIDENING_MODULE)
    outputs = {run_static_order_cli(hashseed=s, paths=tmp_path).stdout
               for s in (0, 1, 2)}
    assert len(outputs) == 1
    assert '"ESP503"' in outputs.pop()


def test_static_order_in_tree_report_identical_across_runs():
    """The full interprocedural in-tree run (fixpoint over ~650
    functions) serialises identically twice in-process."""
    from repro.analysis.static_order import load_assumptions, analyze_paths

    def report_json():
        assumptions = load_assumptions(REPO_ROOT / "analysis-assumptions.json")
        result = analyze_paths(repo_root=REPO_ROOT, assumptions=assumptions)
        report = AnalysisReport()
        report.add_pass("static_order", result.diagnostics(),
                        result.summary())
        return report.to_json()

    assert report_json() == report_json()


def test_certificate_fingerprint_reproducible(tmp_path):
    from repro.analysis.closure import certify_session

    def fingerprint(where):
        jvm = Espresso(where)
        jvm.define_class("Person", [
            field("name", FieldKind.REF, declared="java.lang.String")])
        return certify_session(jvm, persist_only={"Person"}).fingerprint

    assert fingerprint(tmp_path / "x") == fingerprint(tmp_path / "y")
