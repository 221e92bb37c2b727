"""The ``make lint-persist`` rules (ESP301/302), enforced in tier-1."""

from pathlib import Path

from repro.analysis.srclint import PERSIST_EXEMPT, PERSIST_RULES, lint_paths

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"


def find_violations(root):
    return [(f.path, f.lineno, f.line, f.reason)
            for f in lint_paths([root], rules=PERSIST_RULES)]


def test_no_raw_flush_calls_outside_persist_layer():
    violations = find_violations(SRC_ROOT)
    assert violations == [], "\n".join(
        f"{rel}:{lineno}: {reason}: {line}"
        for rel, lineno, line, reason in violations)


def test_exemptions_are_the_persist_and_fault_layers_only():
    # The exemption list is part of the contract: widening it should be a
    # conscious, reviewed decision.
    assert PERSIST_EXEMPT == ("repro/nvm/", "repro/faults/")


def test_linter_flags_a_raw_clflush(tmp_path):
    bad = tmp_path / "repro" / "h2" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def f(device):\n    device.clflush(0)\n"
                   "    device.fence()\n")
    violations = find_violations(tmp_path)
    assert [(v[0], v[1], v[3]) for v in violations] == [
        ("repro/h2/bad.py", 2, "raw clflush call"),
        ("repro/h2/bad.py", 3, "raw fence on a device"),
    ]


def test_linter_ignores_comments_and_exempt_dirs(tmp_path):
    (tmp_path / "repro" / "nvm").mkdir(parents=True)
    (tmp_path / "repro" / "nvm" / "x.py").write_text("d.clflush(0)\n")
    (tmp_path / "repro" / "core").mkdir(parents=True)
    (tmp_path / "repro" / "core" / "y.py").write_text(
        "# device.clflush(0) would be wrong here\npersist.fence()\n")
    assert find_violations(tmp_path) == []
