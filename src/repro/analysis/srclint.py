"""AST-based source lint: the ESP3xx rules.

Walking the AST instead of grepping lines means comments, docstrings and
string literals can name the forbidden APIs freely — only actual call
expressions are flagged:

* **ESP301** — any ``clflush(...)`` call: the primitive belongs to the
  device layer; durable subsystems route flushes through
  :class:`repro.nvm.persist.PersistDomain`.
* **ESP302** — a fence call (``fence`` / ``sfence`` / ``commit_epoch``)
  on a device receiver — ``device``, ``dev`` or ``d`` as the last name of
  the chain, so ``self.d.fence()`` too: a bare sfence bypasses the
  domain's epoch bookkeeping.  ``domain.fence()`` / ``heap.fence()`` stay
  legal — they drain the open epoch first.  Both rules read the call
  table of :mod:`repro.analysis.events`, as the ESP5xx verifier does.
* **ESP303** — wall-clock reads (``time.time``/``time_ns``,
  ``time.monotonic``/``_ns``, ``time.perf_counter``/``_ns``,
  ``datetime.now``/``utcnow``): every timestamp must come from
  :class:`repro.nvm.clock.Clock` or determinism is lost.
* **ESP305** — module-level mutable state in the session/core layers
  (``repro/api.py``, ``repro/core/``, ``repro/fleet/``,
  ``repro/runtime/``, ``repro/pjhlib/concurrent.py``,
  ``repro/tools/``, ``repro/workloads/``, ``repro/bench/``): a top-level
  container that the module itself mutates, or any ``global`` statement.
  Many :class:`Espresso` sessions live in one process (the fleet mounts
  K of them), so session state must hang off the instance/config, never
  the module.  Immutable lookup tables stay legal — only *mutated*
  containers are flagged.

* **ESP306** — any ``divert`` method call: simulated threads run on
  :meth:`repro.runtime.workers.WorkerPool.on`, the one gang, so phase
  time is committed (max over workers) in exactly one place.

Exemptions are per rule family: the persist layer and the crash harness
may flush and fence, the simulated clock and the observability layer may
name wall-clock APIs, the clock and the worker pool may divert.  ESP305
is the inverse shape: an *include* list — it only applies to the
re-entrant layers, everywhere else is out of scope.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, make_diagnostic
from repro.analysis.events import (CLFLUSH, DEVICE_RECEIVERS, FENCE,
                                   call_kind, receiver_name)

#: The rule families behind ``make lint-persist`` / ``make lint-time``.
PERSIST_RULES = ("ESP301", "ESP302")
TIME_RULES = ("ESP303",)
#: The re-entrancy gate over the session/core layers.
SESSION_RULES = ("ESP305",)
#: One gang: only the clock and the worker pool divert charges.
GANG_RULES = ("ESP306",)
ALL_RULES = PERSIST_RULES + TIME_RULES + SESSION_RULES + GANG_RULES

#: Per-rule-family exemption prefixes (relative to a lint root).
PERSIST_EXEMPT = ("repro/nvm/", "repro/faults/")
TIME_EXEMPT = ("repro/nvm/clock.py", "repro/obs/")
GANG_EXEMPT = ("repro/nvm/clock.py", "repro/runtime/workers.py")

_EXEMPT_FOR: Dict[str, Tuple[str, ...]] = {
    "ESP301": PERSIST_EXEMPT,
    "ESP302": PERSIST_EXEMPT,
    "ESP303": TIME_EXEMPT,
    "ESP305": (),
    "ESP306": GANG_EXEMPT,
}

#: Include prefixes: these rules apply *only* under the listed paths.
_ONLY_FOR: Dict[str, Tuple[str, ...]] = {
    "ESP305": ("repro/api.py", "repro/core/", "repro/fleet/",
               "repro/runtime/", "repro/pjhlib/concurrent.py",
               "repro/tools/", "repro/workloads/", "repro/bench/"),
}

_WALLCLOCK_TIME = {
    "time": "wall-clock time.time",
    "time_ns": "wall-clock time.time",
    "monotonic": "wall-clock time.monotonic",
    "monotonic_ns": "wall-clock time.monotonic",
    "perf_counter": "wall-clock time.perf_counter",
    "perf_counter_ns": "wall-clock time.perf_counter",
}


@dataclass(frozen=True)
class LintFinding:
    """One flagged call expression."""

    path: str    # root-relative posix path
    lineno: int
    col: int
    code: str
    reason: str
    line: str    # the stripped source line, for display

    @property
    def where(self) -> str:
        return f"{self.path}:{self.lineno}"

    def to_diagnostic(self) -> Diagnostic:
        return make_diagnostic(self.code, self.where,
                               f"{self.reason}: {self.line}")


class _CallScanner(ast.NodeVisitor):
    """Collect (lineno, col, code, reason) for every rule violation."""

    def __init__(self, rules: Set[str]) -> None:
        self.rules = rules
        self.hits: List[Tuple[int, int, str, str]] = []

    def _hit(self, node: ast.Call, code: str, reason: str) -> None:
        self.hits.append((node.lineno, node.col_offset, code, reason))

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if "ESP301" in self.rules and CLFLUSH in (
                getattr(func, "id", None), getattr(func, "attr", None)):
            self._hit(node, "ESP301", "raw clflush call")
        if isinstance(func, ast.Attribute):
            attr = func.attr
            receiver = receiver_name(func.value).rsplit(".", 1)[-1]
            if "ESP302" in self.rules and receiver in DEVICE_RECEIVERS \
                    and call_kind(attr, receiver) == FENCE:
                self._hit(node, "ESP302", f"raw {attr} on a device")
            if "ESP303" in self.rules:
                if receiver == "time" and attr in _WALLCLOCK_TIME:
                    self._hit(node, "ESP303", _WALLCLOCK_TIME[attr])
                elif receiver == "datetime" and attr in ("now", "utcnow"):
                    self._hit(node, "ESP303", "wall-clock datetime.now")
            if "ESP306" in self.rules and attr == "divert":
                self._hit(node, "ESP306", "raw Clock.divert call")
        self.generic_visit(node)


#: Containers whose top-level construction makes a name "mutable state".
_MUTABLE_FACTORIES = frozenset({
    "list", "dict", "set", "bytearray", "deque", "defaultdict",
    "OrderedDict", "Counter", "ChainMap", "WeakValueDictionary",
    "WeakKeyDictionary",
})
_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set,
                     ast.ListComp, ast.DictComp, ast.SetComp)
#: Method calls that mutate a container in place.
_MUTATOR_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "insert", "pop", "popitem", "popleft", "remove", "setdefault",
    "update",
})


def _is_mutable_container(value: Optional[ast.expr]) -> bool:
    if isinstance(value, _MUTABLE_LITERALS):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        return name in _MUTABLE_FACTORIES
    return False


def _module_container_names(tree: ast.Module) -> Set[str]:
    """Names bound to a mutable container at module top level."""
    names: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and _is_mutable_container(stmt.value):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name) \
                and _is_mutable_container(stmt.value):
            names.add(stmt.target.id)
    return names


class _ModuleStateScanner(ast.NodeVisitor):
    """ESP305: in-module mutation of module-level containers + globals.

    A constant lookup table defined once and only read stays legal; the
    rule fires on the *mutation* sites (``X.add(...)``, ``X[k] = v``,
    ``del X[k]``, ``X += ...``) and on every ``global`` statement.
    """

    def __init__(self, containers: Set[str]) -> None:
        self.containers = containers
        self.hits: List[Tuple[int, int, str, str]] = []

    def _target_name(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Subscript) \
                and isinstance(node.value, ast.Name):
            return node.value.id
        return None

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) \
                and func.attr in _MUTATOR_METHODS \
                and isinstance(func.value, ast.Name) \
                and func.value.id in self.containers:
            self.hits.append((
                node.lineno, node.col_offset, "ESP305",
                f"mutation of module-level container "
                f"{func.value.id!r}"))
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            name = self._target_name(target)
            if name in self.containers:
                self.hits.append((
                    node.lineno, node.col_offset, "ESP305",
                    f"item store into module-level container {name!r}"))
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        name = self._target_name(node.target)
        if name is None and isinstance(node.target, ast.Name):
            name = node.target.id
        if name in self.containers:
            self.hits.append((
                node.lineno, node.col_offset, "ESP305",
                f"augmented store into module-level container {name!r}"))
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            name = self._target_name(target)
            if name in self.containers:
                self.hits.append((
                    node.lineno, node.col_offset, "ESP305",
                    f"item delete from module-level container {name!r}"))
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        self.hits.append((
            node.lineno, node.col_offset, "ESP305",
            f"global statement over {', '.join(node.names)} — module "
            f"state is not re-entrant"))
        self.generic_visit(node)


def lint_file(path: Path, rel: str,
              rules: Iterable[str] = ALL_RULES) -> List[LintFinding]:
    active = {r for r in rules
              if not any(rel.startswith(p) for p in _EXEMPT_FOR[r])
              and (r not in _ONLY_FOR
                   or any(rel.startswith(p) for p in _ONLY_FOR[r]))}
    if not active:
        return []
    try:
        source = path.read_text()
        tree = ast.parse(source)
    except (OSError, SyntaxError, ValueError):
        return []  # unreadable / non-parsing files are out of scope
    scanner = _CallScanner(active)
    scanner.visit(tree)
    if "ESP305" in active:
        state = _ModuleStateScanner(_module_container_names(tree))
        state.visit(tree)
        scanner.hits.extend(state.hits)
    lines = source.splitlines()
    findings = [
        LintFinding(rel, lineno, col, code, reason,
                    lines[lineno - 1].strip() if lineno <= len(lines)
                    else "")
        for lineno, col, code, reason in scanner.hits
    ]
    return sorted(findings,
                  key=lambda f: (f.lineno, f.col, f.code, f.reason))


def lint_paths(roots: Sequence[Path],
               rules: Optional[Iterable[str]] = None) -> List[LintFinding]:
    """Lint every ``*.py`` under each root; deterministic ordering.

    Exemption prefixes are matched against root-relative paths, so the
    lists apply when a root is ``src/`` and are simply inert for roots
    (like ``examples/``) with different layouts.
    """
    rule_set = tuple(rules) if rules is not None else ALL_RULES
    for rule in rule_set:
        if rule not in _EXEMPT_FOR:
            raise ValueError(f"unknown lint rule {rule!r}")
    findings: List[LintFinding] = []
    for root in roots:
        root = Path(root)
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            findings.extend(lint_file(path, rel, rule_set))
    return sorted(findings, key=lambda f: (f.path, f.lineno, f.col,
                                           f.code, f.reason))
