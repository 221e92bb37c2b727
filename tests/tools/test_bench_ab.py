"""The verdict rule of ``tools/bench_ab.py`` (``make bench-ab``).

The runs themselves are minutes of ledger time and stay out of tier-1;
what is pinned here is the arithmetic that turns two columns of numbers
into "gain", "WORSE", "unresolved" or "within bound".
"""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_ab", Path(__file__).resolve().parents[2] / "tools" / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_ab)

PARENT = [3.00, 2.95, 3.05, 2.98, 3.02, 2.97, 3.01, 2.99, 3.03, 2.96]


def shifted(by):
    return [value + by for value in PARENT]


@pytest.mark.parametrize("change, better, bound, expected", [
    (shifted(-1.5), "lower", 0.15, (10, 0, "gain")),
    # Nine wins of ten is still a gain; eight is not.
    (shifted(-1.5)[:9] + [4.0], "lower", 0.15, (9, 1, "gain")),
    (shifted(-1.5)[:8] + [4.0, 4.0], "lower", 0.15, (8, 2, "within bound")),
    # Wins every pair, but by less than the parent's own quartile distance.
    (shifted(-0.01), "lower", 0.15, (10, 0, "within bound")),
    (shifted(+0.6), "lower", 0.15, (0, 10, "WORSE")),
    (shifted(+0.6), "higher", 0.15, (10, 0, "gain")),
    (list(PARENT), "lower", 0.15, (0, 0, "within bound")),   # ties: neither
    # A bound tighter than the parent's spread cannot call it unchanged.
    (shifted(+0.01), "lower", 0.001, (0, 10, "WORSE")),
    (PARENT[::-1], "lower", 0.001, (5, 5, "unresolved")),
])
def test_judge(change, better, bound, expected):
    assert bench_ab.judge(PARENT, change, better, bound) == expected


def test_compare_flags_exact_mismatch_and_failed_operations(capsys):
    spec = [{"name": "host_s", "better": "lower", "bound": 0.15},
            {"name": "sim_ms", "better": "lower", "bound": 0.03}]

    def run(host_s, sim_ms, failed=0):
        return {"correct": not failed, "attempted": 10, "failed": failed,
                "metrics": {"host_s": {"value": host_s},
                            "sim_ms": {"value": sim_ms}}}

    same = [run(3.0, 1.5), run(3.1, 1.5)]
    assert bench_ab.compare("w", same, [run(1.0, 1.5), run(1.1, 1.5)], spec)
    assert not bench_ab.compare("w", same, [run(1.0, 1.5), run(1.1, 1.6)],
                                spec)
    assert "EXACT MISMATCH" in capsys.readouterr().out
    assert not bench_ab.compare("w", same, [run(1.0, 1.5), run(1.1, 1.5, 1)],
                                spec)
