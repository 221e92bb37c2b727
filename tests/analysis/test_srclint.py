"""AST-based source lint: rules ESP301/302/303/305/306 and their CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.analysis.srclint import (
    ALL_RULES,
    GANG_RULES,
    PERSIST_RULES,
    SESSION_RULES,
    TIME_RULES,
    lint_paths,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
REPO_SRC = str(REPO_ROOT / "src")


def write_tree(root: Path, files: dict) -> Path:
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    return root


class TestEsp305ModuleState:
    """ESP305: module-level mutable state in the session/core layers."""

    CORE = "repro/core/thing.py"

    def _lint(self, tmp_path, source, rel=None):
        write_tree(tmp_path, {rel or self.CORE: source})
        return lint_paths([tmp_path], rules=SESSION_RULES)

    def test_mutated_module_set_flagged(self, tmp_path):
        findings = self._lint(tmp_path, (
            "_SEEN = set()\n"
            "def remember(x):\n"
            "    _SEEN.add(x)\n"))
        assert [f.code for f in findings] == ["ESP305"]
        assert findings[0].lineno == 3
        assert "_SEEN" in findings[0].reason

    def test_item_store_and_delete_flagged(self, tmp_path):
        findings = self._lint(tmp_path, (
            "_CACHE = {}\n"
            "def put(k, v):\n"
            "    _CACHE[k] = v\n"
            "def drop(k):\n"
            "    del _CACHE[k]\n"))
        assert [f.code for f in findings] == ["ESP305", "ESP305"]

    def test_global_statement_flagged(self, tmp_path):
        findings = self._lint(tmp_path, (
            "_COUNT = 0\n"
            "def bump():\n"
            "    global _COUNT\n"
            "    _COUNT += 1\n"))
        assert [f.code for f in findings] == ["ESP305"]
        assert "global" in findings[0].reason

    def test_readonly_lookup_table_is_legal(self, tmp_path):
        assert self._lint(tmp_path, (
            "_KIND = {1: \'int\', 2: \'ref\'}\n"
            "def kind(code):\n"
            "    return _KIND[code]\n")) == []

    def test_frozenset_and_tuple_are_legal(self, tmp_path):
        assert self._lint(tmp_path, (
            "ALLOWED = frozenset({\'a\', \'b\'})\n"
            "ORDER = (\'a\', \'b\')\n")) == []

    def test_instance_state_is_legal(self, tmp_path):
        assert self._lint(tmp_path, (
            "class Session:\n"
            "    def __init__(self):\n"
            "        self.seen = set()\n"
            "    def remember(self, x):\n"
            "        self.seen.add(x)\n")) == []

    def test_only_applies_to_session_core_layers(self, tmp_path):
        source = "_SEEN = set()\ndef f(x):\n    _SEEN.add(x)\n"
        assert self._lint(tmp_path, source, rel="repro/jpa/model.py") == []
        assert self._lint(tmp_path, source, rel="repro/fleet/router.py") != []
        assert self._lint(tmp_path, source, rel="repro/api.py") != []
        assert self._lint(tmp_path, source,
                          rel="repro/tools/fsck.py") != []
        assert self._lint(tmp_path, source,
                          rel="repro/workloads/concurrent_kv.py") != []
        assert self._lint(tmp_path, source,
                          rel="repro/bench/harness.py") != []

    def test_default_rules_include_esp305(self, tmp_path):
        write_tree(tmp_path, {self.CORE:
                              "_SEEN = set()\ndef f(x):\n    _SEEN.add(x)\n"})
        assert [f.code for f in lint_paths([tmp_path])] == ["ESP305"]


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *map(str, args)],
        capture_output=True, text=True, env=env, cwd=cwd)


class TestRules:
    def test_repo_source_is_clean(self):
        roots = [REPO_ROOT / "src"]
        if (REPO_ROOT / "examples").is_dir():
            roots.append(REPO_ROOT / "examples")
        assert lint_paths(roots, rules=ALL_RULES) == []

    def test_raw_clflush_flagged(self, tmp_path):
        write_tree(tmp_path, {"a.py": "device.clflush(0)\n"})
        findings = lint_paths([tmp_path])
        assert [f.code for f in findings] == ["ESP301"]
        assert findings[0].reason == "raw clflush call"
        assert findings[0].lineno == 1

    def test_raw_device_fence_flagged(self, tmp_path):
        write_tree(tmp_path, {"a.py": "device.fence()\n"})
        assert [f.code for f in lint_paths([tmp_path])] == ["ESP302"]

    def test_wallclock_read_flagged(self, tmp_path):
        write_tree(tmp_path, {"a.py": "import time\nt = time.time()\n"})
        findings = lint_paths([tmp_path])
        assert [f.code for f in findings] == ["ESP303"]
        assert findings[0].reason == "wall-clock time.time"

    def test_strings_and_comments_are_immune(self, tmp_path):
        """The advantage over the regex lint: no false positives on
        mentions inside strings, comments, or docstrings."""
        write_tree(tmp_path, {"a.py": (
            '"""Docs mention device.clflush(0) and time.time()."""\n'
            "# device.fence() in a comment\n"
            's = "time.monotonic()"\n')})
        assert lint_paths([tmp_path]) == []

    def test_domain_fence_is_legal(self, tmp_path):
        write_tree(tmp_path, {"a.py": "domain.fence()\nheap.fence()\n"})
        assert lint_paths([tmp_path]) == []

    def test_device_fence_matched_on_last_receiver_name(self, tmp_path):
        """ESP302 reads the device receivers the ESP5xx verifier reads:
        any chain ending in device, dev or d, any fence call."""
        write_tree(tmp_path, {"a.py": (
            "dev.fence()\n"
            "self.d.fence()\n"
            "self.heap.device.sfence()\n"
            "self.domain.fence()\n"
            "self.heap.fence()\n"
            "dev.flush(0)\n")})
        findings = lint_paths([tmp_path], rules=PERSIST_RULES)
        assert [(f.lineno, f.code, f.reason) for f in findings] == [
            (1, "ESP302", "raw fence on a device"),
            (2, "ESP302", "raw fence on a device"),
            (3, "ESP302", "raw sfence on a device")]

    def test_exempt_paths_skipped_per_rule_family(self, tmp_path):
        write_tree(tmp_path, {
            "repro/nvm/x.py": ("device.clflush(0)\nself.d.fence()\n"
                               "t = time.time()\n"),
            "repro/nvm/clock.py": "t = time.time()\n",
        })
        findings = lint_paths([tmp_path])
        # nvm/ is exempt from the persist rules but NOT the time rule;
        # clock.py is exempt from the time rule.
        assert [(f.path, f.code) for f in findings] \
            == [("repro/nvm/x.py", "ESP303")]

    def test_rule_restriction(self, tmp_path):
        write_tree(tmp_path, {"a.py": "clflush(0)\nt = time.time()\n"})
        assert [f.code for f in lint_paths([tmp_path], rules=TIME_RULES)] \
            == ["ESP303"]
        assert [f.code for f in lint_paths([tmp_path], rules=PERSIST_RULES)] \
            == ["ESP301"]

    def test_raw_divert_flagged_outside_the_gang(self, tmp_path):
        source = "with self.clock.divert(meter):\n    pass\n"
        write_tree(tmp_path, {"repro/fleet/router.py": source,
                              "repro/nvm/clock.py": source,
                              "repro/runtime/workers.py": source})
        findings = lint_paths([tmp_path], rules=GANG_RULES)
        assert [(f.path, f.code, f.reason) for f in findings] == [
            ("repro/fleet/router.py", "ESP306", "raw Clock.divert call")]

    def test_pool_on_is_legal(self, tmp_path):
        write_tree(tmp_path, {"repro/fleet/router.py": (
            "with pool.on(0) as meter:\n    pass\n"
            "diverted = clock.diverted\n")})
        assert lint_paths([tmp_path]) == []

    def test_syntax_error_files_skipped(self, tmp_path):
        write_tree(tmp_path, {"bad.py": "def broken(:\n"})
        assert lint_paths([tmp_path]) == []


class TestCli:
    def test_exit_1_on_findings(self, tmp_path):
        write_tree(tmp_path, {"a.py": "device.clflush(0)\n"})
        proc = run_cli("--paths", tmp_path)
        assert proc.returncode == 1
        assert "ESP301" in proc.stdout

    def test_exit_0_on_clean_tree(self, tmp_path):
        write_tree(tmp_path, {"a.py": "x = 1\n"})
        proc = run_cli("--paths", tmp_path)
        assert proc.returncode == 0
        assert "clean" in proc.stdout

    def test_rules_flag_filters(self, tmp_path):
        write_tree(tmp_path, {"a.py": "device.clflush(0)\nt = time.time()\n"})
        proc = run_cli("--paths", tmp_path, "--rules", "ESP303")
        assert proc.returncode == 1
        assert "ESP303" in proc.stdout and "ESP301" not in proc.stdout

    def test_unknown_rule_is_a_usage_error(self, tmp_path):
        proc = run_cli("--paths", tmp_path, "--rules", "ESP999")
        assert proc.returncode != 0
        assert "unknown lint rule" in proc.stderr + proc.stdout

    def test_json_output_parses(self, tmp_path):
        write_tree(tmp_path, {"a.py": "device.clflush(0)\n"})
        proc = run_cli("--paths", tmp_path, "--json")
        payload = json.loads(proc.stdout)
        assert payload["total_findings"] == 1
        assert payload["passes"]["lint"][0]["code"] == "ESP301"

    def test_baseline_suppresses_known_findings(self, tmp_path):
        tree = write_tree(tmp_path / "tree", {"a.py": "device.clflush(0)\n"})
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"fingerprints": ["ESP301:a.py:1"]}))
        proc = run_cli("--paths", tree, "--baseline", baseline)
        assert proc.returncode == 0
        assert "suppressed by baseline" in proc.stdout

    def test_list_rules(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for code in ("ESP101", "ESP201", "ESP301"):
            assert code in proc.stdout
