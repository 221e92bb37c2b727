"""No dead definitions under ``src/``.

Every ``def`` and ``class`` in ``src/`` must be named somewhere else in
the tree (``src/``, ``tests/``, ``examples/``, ``bench-ledger/``,
``tools/`` or the Makefile): a name that occurs only at its own
definition is code nothing can call.  A name scan, not a call graph, so
it is cheap and errs toward keeping code: a second definition or a
mention in a test keeps a name alive.

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


def _dispatched(name: str) -> bool:
    return name.startswith("visit_") or (
        name.startswith("__") and name.endswith("__"))


def test_every_definition_in_src_is_referenced():
    files = [ROOT / "Makefile"] + [
        path for top in TREE for path in sorted((ROOT / top).rglob("*.py"))
        if ".work" not in path.parts]
    words = Counter()
    for path in files:
        words.update(re.findall(r"\w+", path.read_text()))
    dead = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and words[node.name] < 2 and not _dispatched(node.name):
                dead.append(f"{path.relative_to(ROOT)}:{node.lineno} "
                            f"{node.name}")
    assert not dead, "definitions nothing references:\n" + "\n".join(dead)
