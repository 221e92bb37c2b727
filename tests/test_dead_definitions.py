"""No dead definitions under ``src/``.

Every ``def`` and ``class`` in ``src/`` must be named somewhere else in
the tree (``src/``, ``tests/``, ``examples/``, ``bench-ledger/``,
``tools/`` or the Makefile): a name defined k times in ``src/`` must occur
more than k times, so two same-named definitions that nothing calls do
not keep each other alive.  And a name that only ``tests/`` mentions is
code the product never runs: it must be on :data:`TEST_ONLY`, with the
reason a test needs it.  A name scan, not a call graph, so it is cheap
and errs toward keeping code: a common word keeps a name alive.

Two name patterns are exempt, because a dispatcher calls them and never
by name: ``visit_*`` (``ast.NodeVisitor``) and ``__dunder__`` methods
(the interpreter's protocols, e.g. a descriptor's ``__get__``).
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREE = ("src", "tests", "examples", "bench-ledger", "tools")

#: src definitions only tests name -> why a test needs them.
TEST_ONLY = {
    "system_gc": "paper API: System.gc() collects the persistent heap too",
    "remove_heap": "heap lifecycle API beside create/load/exists_heap",
    "find_by": "JPA query API (WHERE e.f = ?), compared across providers",
    "durable_word": "oracle: the word a crash would leave on the media",
    "dirty_line_count": "oracle: lines written but not yet flushed",
    "pending_lines": "oracle: lines a PersistDomain epoch still owes",
    "current_category": "oracle: the clock scope a charge is billed to",
    "entry_index": "oracle: locates a name-table entry to corrupt",
    "free_list_length": "oracle: the PCJ pool's durable free list",
    "members_raw": "oracle: the durable set's membership",
    "bind_class": "reopens a PCJ pool with typed wrappers",
    "boolean_value": "oracle: a PersistentBoolean's durable payload",
    "double_value": "oracle: a PersistentDouble's durable payload",
}


def _dispatched(name: str) -> bool:
    return name.startswith("visit_") or (
        name.startswith("__") and name.endswith("__"))


def _words(tops):
    files = [ROOT / "Makefile"] + [
        path for top in tops for path in sorted((ROOT / top).rglob("*.py"))
        if ".work" not in path.parts]
    words = Counter()
    for path in files:
        words.update(re.findall(r"\w+", path.read_text()))
    return words


def _src_definitions():
    """(where, name) of every def and class in src/, plus the number of
    times each name is defined there."""
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and not _dispatched(node.name):
                found.append((f"{path.relative_to(ROOT)}:{node.lineno}",
                              node.name))
    return found, Counter(name for _where, name in found)


def test_every_definition_in_src_is_referenced():
    words = _words(TREE)
    found, defined = _src_definitions()
    dead = [f"{where} {name}" for where, name in found
            if words[name] <= defined[name]]
    assert not dead, "definitions nothing references:\n" + "\n".join(dead)


def test_definitions_only_tests_name_are_listed():
    product = _words(t for t in TREE if t != "tests")
    found, defined = _src_definitions()
    test_only = {name for _where, name in found
                 if product[name] <= defined[name]}
    unlisted = [f"{where} {name}" for where, name in found
                if name in test_only and name not in TEST_ONLY]
    assert not unlisted, ("definitions only tests name (delete them, or "
                          "list them in TEST_ONLY with the reason):\n"
                          + "\n".join(unlisted))
    assert not set(TEST_ONLY) - test_only, "stale TEST_ONLY entries"
    assert len(TEST_ONLY) <= 15
