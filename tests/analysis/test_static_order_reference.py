"""The ESP5xx engine against its reference.

``tests/analysis/reference_static_order.py`` is the engine as it stood
with its own dirty -> flushed -> fenced model; production steps the
replay's line-state machine instead.  Both run on the same collected
functions.  They must agree on every per-function ``Summary``, on the
findings and on ``StaticOrderResult.summary()``: on the tree (raw and
under ``analysis-assumptions.json``), on the fixture corpus, and on
generated modules.

Findings are compared as sorted lists, which is how every report prints
them: the order a block steps incomparable states in follows their
hashes, so emission order is not part of the contract.
"""

from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import static_order
from repro.analysis.diagnostics import sort_key
from repro.analysis.static_order import (Assumptions, analyze_paths,
                                         load_assumptions)
from tests.analysis import reference_static_order

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


def _summary_fields(summary) -> tuple:
    exits = getattr(summary, "exits", None)
    if exits is None:   # the reference's Summary
        return (summary.provides_guard, summary.provides_flush,
                summary.fences_always, summary.leaves_pending,
                summary.pending_iff)
    return (exits.phase == 2, exits.phase >= 1, exits.fenced,
            summary.leaves_pending, summary.pending_iff)


def _run(engine, paths, assumptions):
    seen = {}

    class Capturing(engine):
        def run(self):
            super().run()
            seen["summaries"] = self.summaries

    with mock.patch.object(static_order, "_Engine", Capturing):
        result = analyze_paths(paths, repo_root=REPO_ROOT,
                               assumptions=assumptions())
    return {
        "summary": result.summary(),
        "findings": [d.to_dict()
                     for d in sorted(result.findings, key=sort_key)],
        "summaries": {where: _summary_fields(summary)
                      for where, summary in seen["summaries"].items()},
    }


def _assert_engines_agree(paths, assumptions=Assumptions.empty):
    got = _run(static_order._Engine, paths, assumptions)
    want = _run(reference_static_order._Engine, paths, assumptions)
    assert got == want
    return got


def test_tree_raw_and_assumed_equal_the_reference():
    raw = _assert_engines_agree(None)
    assumed = _assert_engines_agree(None, lambda: load_assumptions(
        REPO_ROOT / "analysis-assumptions.json"))
    assert raw["findings"] and not assumed["findings"]


def test_fixture_corpus_equals_the_reference():
    got = _assert_engines_agree([FIXTURES])
    assert {f["code"] for f in got["findings"]} == {
        "ESP501", "ESP502", "ESP503", "ESP504", "ESP505"}


# -- generated modules ------------------------------------------------------

#: One statement each: stores, flushes (the ``flush_words`` forms too),
#: fences on a named receiver, on a receiver that is not a name and on
#: one nothing flushed, flush+fence calls, publishes, undo and
#: transaction calls, and calls to the module's homonymous helpers with
#: every kind of ``fence`` binding.
ATOMS = [
    "self.device.write(0, 1)", "dev.fill(0, 0, 4)", "self.domain.flush(0, 2)",
    "pd.flush(3)", "self.d.clflush(4)", "fh.flush()",
    "self.domain.flush_words(0, 2, fence=False)",
    "self.domain.flush_words(0, 2)", "pd.flush_words(1, 1, False)",
    "self.domain.flush_words(0, 2, fence=fence)",
    "self.domain.fence()", "pd.commit_epoch()", "domains[0].fence()",
    "pool().domain.fence()", "other.sfence()",
    "heap.persist(h)", "jvm.flush_reachable(h)",
    "set_root(h)", "self.link(h)",
    "txn.log_slot(h)", "tx_add(h)", "txn.begin()", "txn.commit()",
    "helper(h)", "helper(h, fence=False)", "self.helper(h, False)",
    "helper(h, fence=fence)", "Node(h)", "return h", "raise ValueError(h)",
]
TESTS = ["fence", "not fence", "flag", "h.ready"]
NAMES = ["helper", "link", "set_root", "__init__", "save"]


def _block(draw, depth: int) -> list:
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(
            ["atom"] * 4 + (["if", "loop", "try", "with"] if depth else [])))
        if shape == "atom":
            lines.append(draw(st.sampled_from(ATOMS)))
            continue
        if shape == "if":
            lines.append(f"if {draw(st.sampled_from(TESTS))}:")
            lines += ["    " + ln for ln in _block(draw, depth - 1)]
            if draw(st.booleans()):
                lines.append("else:")
                lines += ["    " + ln for ln in _block(draw, depth - 1)]
        elif shape == "loop":
            lines.append(draw(st.sampled_from(
                ["for item in items:", "while flag:", "while True:"])))
            body = _block(draw, depth - 1) + draw(st.sampled_from(
                [[], ["break"], ["continue"]]))
            lines += ["    " + ln for ln in body]
        elif shape == "try":
            lines.append("try:")
            lines += ["    " + ln for ln in _block(draw, depth - 1)]
            lines.append("except Exception:")
            lines += ["    " + ln for ln in _block(draw, depth - 1)]
            if draw(st.booleans()):
                lines.append("finally:")
                lines += ["    " + ln for ln in _block(draw, depth - 1)]
        else:
            lines.append(draw(st.sampled_from(
                ["with self.domain.epoch():", "with pd.epoch():",
                 "with self.txn:"])))
            lines += ["    " + ln for ln in _block(draw, depth - 1)]
    return lines


@st.composite
def modules(draw):
    """(source, functions assumed to defer their fence)."""
    lines, wheres = [], []
    for _ in range(draw(st.integers(2, 5))):
        owner = draw(st.sampled_from(["", "Node", "Store"]))
        name = draw(st.sampled_from(NAMES))
        indent = "    " if owner else ""
        lines.append(f"class {owner}:" if owner else "")
        decorator = draw(st.sampled_from(
            [None, None, 'publish_point("root")', 'durable_metadata("meta")']))
        if decorator:
            lines.append(f"{indent}@{decorator}")
        params = "self, h" if owner else "h"
        lines.append(f"{indent}def {name}({params}, fence=True, flag=False):")
        lines += [indent + "    " + ln for ln in _block(draw, 2)]
        wheres.append(f"m.py::{owner + '.' if owner else ''}{name}")
    assumed = draw(st.lists(st.sampled_from(wheres), max_size=1))
    return "\n".join(lines) + "\n", assumed


def test_generated_modules_equal_the_reference(tmp_path):
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(modules())
    def check(module):
        source, assumed = module
        (tmp_path / "m.py").write_text(source)
        got = _assert_engines_agree([tmp_path], lambda: Assumptions(
            {}, {where: ("defers-fence", "generated") for where in assumed}))
        seen.update(f["code"] for f in got["findings"])

    check()
    # The strategy is only a safety net if it reaches every rule.
    assert seen == {"ESP501", "ESP502", "ESP503", "ESP504", "ESP505"}
