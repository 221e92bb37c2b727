"""The ``make lint-time`` rule (ESP303), enforced in tier-1."""

from pathlib import Path

from repro.analysis.srclint import TIME_EXEMPT, TIME_RULES, lint_paths

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"


def find_violations(root):
    return [(f.path, f.lineno, f.line, f.reason)
            for f in lint_paths([root], rules=TIME_RULES)]


def test_no_wall_clock_reads_outside_clock_layer():
    violations = find_violations(SRC_ROOT)
    assert violations == [], "\n".join(
        f"{rel}:{lineno}: {reason}: {line}"
        for rel, lineno, line, reason in violations)


def test_exemptions_are_the_clock_and_obs_layers_only():
    # The exemption list is part of the contract: widening it should be a
    # conscious, reviewed decision.
    assert TIME_EXEMPT == ("repro/nvm/clock.py", "repro/obs/")


def test_linter_flags_wall_clock_reads(tmp_path):
    bad = tmp_path / "repro" / "bench" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\n"
                   "start = time.time()\n"
                   "t = time.perf_counter_ns()\n"
                   "m = time.monotonic()\n")
    violations = find_violations(tmp_path)
    assert [(v[0], v[1], v[3]) for v in violations] == [
        ("repro/bench/bad.py", 2, "wall-clock time.time"),
        ("repro/bench/bad.py", 3, "wall-clock time.perf_counter"),
        ("repro/bench/bad.py", 4, "wall-clock time.monotonic"),
    ]


def test_linter_ignores_comments_and_exempt_files(tmp_path):
    (tmp_path / "repro" / "nvm").mkdir(parents=True)
    (tmp_path / "repro" / "nvm" / "clock.py").write_text(
        "import time\nt = time.time()\n")
    (tmp_path / "repro" / "obs").mkdir(parents=True)
    (tmp_path / "repro" / "obs" / "x.py").write_text("t = time.monotonic()\n")
    (tmp_path / "repro" / "core").mkdir(parents=True)
    (tmp_path / "repro" / "core" / "y.py").write_text(
        "# never call time.time() here; use the Clock\nnow = clock.now_ns\n")
    assert find_violations(tmp_path) == []
