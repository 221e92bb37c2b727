"""Static persist-order verifier: the ESP5xx rules.

Where the ESP2xx hazard passes replay *recorded* ``PersistEventLog``
traces (certifying only the interleavings a sweep happened to execute),
this pass proves persist-order discipline over **every path through the
source**: it parses the durable subsystems (no execution), builds a
control-flow graph per function, classifies each call expression into an
abstract NVM event, and runs a path-sensitive dataflow with per-function
summaries over the call graph.

Modeled API surface
-------------------

:data:`repro.analysis.events.CALL_KINDS` (the table the source lint
reads too) maps calls onto the trace passes' event kinds: stores, flushes
(``flush_words(..., fence=False)`` too), durability points
(``flush_words(..., fence=True)`` and ``with domain.epoch():`` block
exits too), undo logging and transaction brackets.  On top of the table:

* **publish points** — calls to functions carrying the
  :func:`repro.nvm.publish.publish_point` decorator (``set_root``,
  ``set_frame_top``, ``set_name_table_count``, the concurrent map's
  CAS-link/unlink helpers, ...), detected syntactically;
* **undo coverage** — the table's undo and transaction calls and
  transaction ``with`` blocks, consumed by functions carrying the
  :func:`repro.nvm.publish.durable_metadata` decorator.

Line state
----------

The flushes and fences of a path step the replay's line-state machine,
:class:`repro.analysis.events.LineState`, over abstract lines: the
receivers the path flushed.  This module keeps only what no trace has —
the callee-deferred pending set, transaction depth and parameter
conditions of :class:`State`, and the pending contracts of
:class:`Summary` — and no transition of its own.

Rules
-----

* **ESP501** — a publish point is reachable on a path with no dominating
  flush-then-fence: a crash in the window recovers a reachable pointer
  to an unpersisted payload.
* **ESP502** — a ``@durable_metadata`` function stores outside any
  undo-log/transaction coverage: a crash mid-mutation cannot roll back.
* **ESP503** — a flush enqueued in this function is still pending on a
  path that returns: under the reordered fault model the flush may
  never become durable.  Parameter-conditional fencing (the
  ``fence: bool = True`` idiom) is recognised and exported to call
  sites instead of flagged.
* **ESP504** — an ``if``/``else`` where one branch performs a
  durability call and its sibling performs stores or flushes but no
  durability call: one path persists, its sibling silently does not.
* **ESP505** — call-graph escape: a helper deliberately defers its
  fence (``defers-fence`` assumption or conditional contract), and a
  call-graph *root* invokes it on a path whose epoch is never
  committed — the pending flush escapes the analyzed world.

Path explosion is bounded by merge-point widening: at most
:data:`MAX_STATES_PER_BLOCK` abstract states are kept per basic block;
beyond that, states are widened by dropping their path conditions and
merging conservatively (toward reporting) with the line state's join.

Intentional exceptions live in the **assumptions file**
(``analysis-assumptions.json``): ``suppress`` entries drop a finding by
fingerprint, ``assume`` entries grant a function the ``defers-fence``
contract — both carry a mandatory written justification (``why``),
which is the repo's contract for a non-empty baseline.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, \
    Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, make_diagnostic
from repro.analysis.events import (CALL, FENCE, FLUSH, FLUSH_FENCE, PUBLISH,
                                   STORE, TXN_BEGIN, TXN_COMMIT, UNDO,
                                   LineState, call_kind, receiver_name)

__all__ = [
    "Assumptions",
    "StaticOrderResult",
    "analyze_paths",
    "default_scope",
    "load_assumptions",
]

#: Sub-trees of ``src/`` the in-tree verification covers: every durable
#: subsystem.  ``repro/nvm`` is included for its protocol helpers, but
#: the two files *defining* the modeled primitives are excluded — their
#: bodies are the implementation of flush/fence, not users of it.
SCOPE_PREFIXES = ("repro/core/", "repro/nvm/", "repro/pjhlib/",
                  "repro/pcj/", "repro/h2/", "repro/fleet/",
                  "repro/structures.py")
SCOPE_EXCLUDE = ("repro/nvm/device.py", "repro/nvm/persist.py")

#: Merge-point widening threshold: abstract states kept per CFG block.
MAX_STATES_PER_BLOCK = 24
#: Interprocedural summary fixpoint iteration cap.
MAX_FIXPOINT_ROUNDS = 12

# ---------------------------------------------------------------------------
# Abstract events
# ---------------------------------------------------------------------------

class Op(NamedTuple):
    """One abstract event at a source line.

    ``name`` is the receiver chain for primitives, the callee symbol for
    calls, the publish label for publishes.  ``args`` carries the
    call-site binding for a :data:`~repro.analysis.events.CALL`: a tuple of
    ``(param_position_or_kwarg, value)`` where value is ``True``,
    ``False``, ``("param", name)`` for a bare caller-parameter, or
    ``None`` for anything the engine cannot evaluate.
    """

    kind: str
    line: int
    name: str = ""
    args: tuple = ()


def _literal_or_param(node: Optional[ast.expr]):
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, bool):
        return node.value
    if isinstance(node, ast.Name):
        return ("param", node.id)
    return None


def _call_binding(call: ast.Call) -> tuple:
    """Evaluable (slot, value) pairs for a call site, deterministic order."""
    out = []
    for i, arg in enumerate(call.args):
        value = _literal_or_param(arg)
        if value is not None:
            out.append((i, value))
    for kw in call.keywords:
        if kw.arg is not None:
            value = _literal_or_param(kw.value)
            if value is not None:
                out.append((kw.arg, value))
    return tuple(out)


def _kwarg(call: ast.Call, name: str) -> Optional[ast.expr]:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


#: Bare function name -> label of the ``@publish_point`` it carries,
#: built per run.
_PublishIndex = Dict[str, str]


def _decorator_label(dec: ast.expr, marker: str) -> Optional[str]:
    if not isinstance(dec, ast.Call):
        return None
    func = dec.func
    name = func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else None)
    if name != marker:
        return None
    if dec.args and isinstance(dec.args[0], ast.Constant) \
            and isinstance(dec.args[0].value, str):
        return dec.args[0].value
    return "?"


def _classify_call(call: ast.Call, index: _PublishIndex) -> Optional[Op]:
    """Map one AST call to an abstract event (or None = invisible)."""
    func = call.func
    line = call.lineno
    if isinstance(func, ast.Attribute):
        attr = func.attr
        recv = receiver_name(func.value)
        if attr == "flush_words":
            fence = _literal_or_param(_kwarg(call, "fence"))
            if fence is None and _kwarg(call, "fence") is None \
                    and len(call.args) < 3:
                fence = True                     # signature default
            elif fence is None and len(call.args) >= 3:
                fence = _literal_or_param(call.args[2])
            # False, parameter-dependent or unevaluable: a plain flush
            # (conservative: the fence is not guaranteed on this path).
            return Op(FLUSH_FENCE if fence is True else FLUSH, line, recv)
        kind = call_kind(attr, recv)
        if kind is not None:
            return Op(kind, line, recv)
        symbol = attr
    elif isinstance(func, ast.Name):
        symbol = func.id
    else:
        return None
    if symbol in index:
        return Op(PUBLISH, line, symbol)
    return Op(CALL, line, symbol, _call_binding(call))


def _stmt_ops(stmt: ast.stmt, index: _PublishIndex) -> List[Op]:
    """Events of one statement, in source order, skipping nested defs."""
    calls: List[ast.Call] = []
    stack: List[ast.AST] = [stmt]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)) and node is not stmt:
            continue
        if isinstance(node, ast.Call):
            calls.append(node)
        stack.extend(ast.iter_child_nodes(node))
    calls.sort(key=lambda c: (c.lineno, c.col_offset))
    ops = []
    for call in calls:
        op = _classify_call(call, index)
        if op is not None:
            ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# Control-flow graphs
# ---------------------------------------------------------------------------

#: Edge condition: (parameter name, truth value) or None.
Cond = Optional[Tuple[str, bool]]


@dataclass
class Block:
    ops: List[Op] = field(default_factory=list)
    succs: List[Tuple[int, Cond]] = field(default_factory=list)


@dataclass
class FunctionInfo:
    path: str
    qualname: str
    name: str
    lineno: int
    params: Tuple[str, ...]
    defaults: Dict[str, object]
    publish_label: Optional[str]
    metadata_label: Optional[str]
    blocks: List[Block]
    entry: int
    ret_exit: int
    raise_exit: int
    node: ast.AST

    @property
    def where(self) -> str:
        return f"{self.path}::{self.qualname}"


class _CfgBuilder:
    """Statement-level CFG; blocks 0/1/2 = entry, return-exit, raise-exit."""

    def __init__(self, func: ast.FunctionDef, index: _PublishIndex) -> None:
        self.index = index
        self.params = _param_names(func)
        self.blocks: List[Block] = [Block(), Block(), Block()]
        self.RET, self.RAISE = 1, 2
        self.loops: List[Tuple[int, int]] = []  # (continue_target, break_target)
        cur = self._build(func.body, 0)
        if cur is not None:
            self._edge(cur, self.RET)

    def _new(self) -> int:
        self.blocks.append(Block())
        return len(self.blocks) - 1

    def _edge(self, src: int, dst: int, cond: Cond = None) -> None:
        self.blocks[src].succs.append((dst, cond))

    def _cond_of(self, test: ast.expr) -> Tuple[Cond, Cond]:
        """(true-edge cond, false-edge cond) for parameter-name tests."""
        if isinstance(test, ast.Name) and test.id in self.params:
            return (test.id, True), (test.id, False)
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not) \
                and isinstance(test.operand, ast.Name) \
                and test.operand.id in self.params:
            return (test.operand.id, False), (test.operand.id, True)
        return None, None

    def _build(self, stmts: Sequence[ast.stmt], cur: int) -> Optional[int]:
        for stmt in stmts:
            if cur is None:
                break
            cur = self._stmt(stmt, cur)
        return cur

    def _stmt(self, stmt: ast.stmt, cur: int) -> Optional[int]:
        blocks = self.blocks
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                blocks[cur].ops.extend(_stmt_ops(stmt, self.index))
            self._edge(cur, self.RET)
            return None
        if isinstance(stmt, ast.Raise):
            self._edge(cur, self.RAISE)
            return None
        if isinstance(stmt, ast.Break):
            self._edge(cur, self.loops[-1][1])
            return None
        if isinstance(stmt, ast.Continue):
            self._edge(cur, self.loops[-1][0])
            return None
        if isinstance(stmt, ast.If):
            blocks[cur].ops.extend(_stmt_ops_expr(stmt.test, self.index))
            true_cond, false_cond = self._cond_of(stmt.test)
            join = self._new()
            body = self._new()
            self._edge(cur, body, true_cond)
            end = self._build(stmt.body, body)
            if end is not None:
                self._edge(end, join)
            if stmt.orelse:
                orelse = self._new()
                self._edge(cur, orelse, false_cond)
                end = self._build(stmt.orelse, orelse)
                if end is not None:
                    self._edge(end, join)
            else:
                self._edge(cur, join, false_cond)
            return join
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            header = self._new()
            after = self._new()
            self._edge(cur, header)
            if isinstance(stmt, ast.While):
                blocks[header].ops.extend(
                    _stmt_ops_expr(stmt.test, self.index))
                infinite = isinstance(stmt.test, ast.Constant) \
                    and bool(stmt.test.value)
            else:
                blocks[header].ops.extend(
                    _stmt_ops_expr(stmt.iter, self.index))
                infinite = False
            body = self._new()
            self._edge(header, body)
            if not infinite:
                self._edge(header, after)
            self.loops.append((header, after))
            end = self._build(stmt.body, body)
            self.loops.pop()
            if end is not None:
                self._edge(end, header)
            if stmt.orelse:
                # for/while-else joins into `after` like the loop exit.
                orelse = self._new()
                self._edge(header, orelse)
                end = self._build(stmt.orelse, orelse)
                if end is not None:
                    self._edge(end, after)
            return after
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, cur)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, cur)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return cur  # analyzed separately, invisible here
        blocks[cur].ops.extend(_stmt_ops(stmt, self.index))
        return cur

    def _with(self, stmt, cur: int) -> Optional[int]:
        epoch_recvs: List[str] = []
        txn = False
        for item in stmt.items:
            expr = item.context_expr
            last = receiver_name(expr).rsplit(".", 1)[-1]
            if isinstance(expr, ast.Call) \
                    and isinstance(expr.func, ast.Attribute) \
                    and expr.func.attr == "epoch":
                epoch_recvs.append(receiver_name(expr.func.value))
            elif last.rstrip("n").endswith("tx") or "txn" in last:
                txn = True
            else:
                self.blocks[cur].ops.extend(_stmt_ops_expr(expr, self.index))
        if txn:
            self.blocks[cur].ops.append(Op(TXN_BEGIN, stmt.lineno, "with"))
        end = self._build(stmt.body, cur)
        if end is None:
            return None
        for recv in epoch_recvs:
            # `with domain.epoch():` commits the epoch on exit.
            self.blocks[end].ops.append(Op(FENCE, stmt.lineno, recv))
        if txn:
            self.blocks[end].ops.append(Op(TXN_COMMIT, stmt.lineno, "with"))
        return end

    def _try(self, stmt: ast.Try, cur: int) -> Optional[int]:
        join = self._new()
        body = self._new()
        self._edge(cur, body)
        end = self._build(stmt.body, body)
        if end is not None and stmt.orelse:
            end = self._build(stmt.orelse, end)
        if end is not None:
            self._edge(end, join)
        for handler in stmt.handlers:
            hblock = self._new()
            # A handler may run after any prefix of the body: approximate
            # with edges from both the pre-try state and the body end.
            self._edge(cur, hblock)
            if end is not None:
                self._edge(end, hblock)
            hend = self._build(handler.body, hblock)
            if hend is not None:
                self._edge(hend, join)
        if stmt.finalbody:
            final = self._new()
            self._edge(join, final)
            return self._build(stmt.finalbody, final)
        return join


def _stmt_ops_expr(expr: ast.expr, index: _PublishIndex) -> List[Op]:
    wrapper = ast.Expr(value=expr)
    ast.copy_location(wrapper, expr)
    return _stmt_ops(wrapper, index)


def _param_names(func) -> Tuple[str, ...]:
    args = func.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return tuple(names)


def _param_defaults(func) -> Dict[str, object]:
    args = func.args
    out: Dict[str, object] = {}
    positional = args.posonlyargs + args.args
    for name, default in zip([a.arg for a in
                              positional[len(positional) - len(args.defaults):]],
                             args.defaults):
        value = _literal_or_param(default)
        if value in (True, False):
            out[name] = value
    for kwarg, default in zip(args.kwonlyargs, args.kw_defaults):
        value = _literal_or_param(default)
        if value in (True, False):
            out[kwarg.arg] = value
    return out


# ---------------------------------------------------------------------------
# Collection
# ---------------------------------------------------------------------------

#: One file's function definitions in source order, each with its
#: qualified name and its depth in the AST.
_Defs = List[Tuple[ast.AST, str, int]]


def _function_defs(tree: ast.Module) -> _Defs:
    found: _Defs = []

    def visit(node: ast.AST, prefix: str, depth: int) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                found.append((child, qual, depth))
                visit(child, f"{qual}.<locals>.", depth + 1)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", depth + 1)
            elif not isinstance(child, ast.expr):   # no def inside one
                visit(child, prefix, depth + 1)

    visit(tree, "", 0)
    return found


def _register_labels(defs: _Defs, index: _PublishIndex) -> None:
    """Record every publish point's label under its bare name.

    When one name carries two labels the deeper definition wins, and at
    equal depth the later one: the order of a breadth-first walk.
    """
    for node, _qual, _depth in sorted(defs, key=lambda d: d[2]):
        for dec in node.decorator_list:
            label = _decorator_label(dec, "publish_point")
            if label is not None:
                index[node.name] = label


def _build_functions(defs: _Defs, rel: str,
                     index: _PublishIndex) -> List[FunctionInfo]:
    functions: List[FunctionInfo] = []
    for node, qual, _depth in defs:
        publish = None
        metadata = None
        for dec in node.decorator_list:
            publish = publish or _decorator_label(dec, "publish_point")
            metadata = metadata or _decorator_label(dec, "durable_metadata")
        cfg = _CfgBuilder(node, index)
        functions.append(FunctionInfo(
            path=rel, qualname=qual, name=node.name,
            lineno=node.lineno, params=_param_names(node),
            defaults=_param_defaults(node),
            publish_label=publish, metadata_label=metadata,
            blocks=cfg.blocks, entry=0, ret_exit=cfg.RET,
            raise_exit=cfg.RAISE, node=node))
    return functions


# ---------------------------------------------------------------------------
# Call summaries
# ---------------------------------------------------------------------------

#: leaves_pending modes
P_NO, P_ALWAYS, P_MAYBE = "no", "always", "maybe"


@dataclass
class Summary:
    #: The join of the return paths' line states, without their lines: a
    #: caller sees how far every path got — flushed, guarded, fenced —
    #: and none of the callee's receivers.
    exits: LineState = LineState()
    leaves_pending: str = P_NO     # P_NO / P_ALWAYS / P_MAYBE
    pending_iff: Optional[str] = None  # pending only when this param is falsy


class State(NamedTuple):
    """One path's line state, plus what only the static pass tracks."""

    lines: LineState
    pending_call: FrozenSet[str]     # callee symbols that left pending
    txn: int
    conds: FrozenSet[Tuple[str, bool]]


_NO_PENDING: FrozenSet[str] = frozenset()
_ENTRY_STATE = State(LineState(), _NO_PENDING, 0, frozenset())


def _ranked(items) -> tuple:
    return len(items), sorted(items)


def _order(state: State) -> tuple:
    return (state.lines.phase, _ranked(state.lines.flushed),
            _ranked(state.lines.pending), _ranked(state.pending_call),
            state.lines.fenced, state.txn, _ranked(state.conds))


def _in_order(states: Set[State]) -> Iterable[State]:
    """*states* in the order a block steps them, which decides what
    widening merges.  It is total, so it never falls back on the order
    string hashing gives a set; a set ranks by size, then by members,
    which extends the subset order."""
    return sorted(states, key=_order) if len(states) > 1 else states


def _widen(states: Set[State]) -> Set[State]:
    if len(states) <= MAX_STATES_PER_BLOCK:
        return states
    # Drop path conditions first; if still too many, merge them into one
    # state toward reporting: the line states' join, every pending
    # callee, the shallowest transaction.
    dropped = {s._replace(conds=frozenset()) for s in states}
    if len(dropped) <= MAX_STATES_PER_BLOCK:
        return dropped
    return {State(LineState.join(s.lines for s in dropped),
                  _NO_PENDING.union(*(s.pending_call for s in dropped)),
                  min(s.txn for s in dropped), frozenset())}


class _Engine:
    """One analysis run over a collected set of functions."""

    def __init__(self, functions: List[FunctionInfo], index: _PublishIndex,
                 assumptions: "Assumptions") -> None:
        self.functions = functions
        self.index = index
        self.assumptions = assumptions
        self.by_name: Dict[str, List[FunctionInfo]] = {}
        for info in functions:
            self.by_name.setdefault(info.name, []).append(info)
            if info.name == "__init__" and "." in info.qualname:
                # Constructor calls appear as ClassName(...) — make the
                # class name resolve to its __init__ so constructors
                # that persist their payload before returning satisfy
                # the publish guard at the call site.
                cls_name = info.qualname.split(".")[-2]
                self.by_name.setdefault(cls_name, []).append(info)
        self.summaries: Dict[str, Summary] = {
            info.where: Summary() for info in functions}
        self.called_names: Set[str] = set()
        for info in functions:
            for block in info.blocks:
                for op in block.ops:
                    if op.kind == CALL:
                        self.called_names.add(op.name)
                    elif op.kind == PUBLISH:
                        self.called_names.update(
                            n for n, lbl in index.items()
                            if lbl == op.name)
        self.findings: List[Diagnostic] = []
        self._finding_keys: Set[tuple] = set()

    # -- call effects ----------------------------------------------------
    def _call_pending(self, op: Op, info: FunctionInfo,
                      cand: FunctionInfo) -> object:
        """Does calling *cand* at this site leave pending flushes?

        Returns True / False / ("param", name) for caller-conditional.
        Deliberately *must*-polarity: with name-based call resolution a
        homonym pile-up would otherwise taint half the call graph, so a
        call only counts as pending when it is definite — the callee
        unconditionally leaves pending, or its controlling fence
        parameter evaluates to False (or passes a caller parameter
        through) at this site.
        """
        summary = self.summaries[cand.where]
        if summary.pending_iff is not None:
            # Evaluate the controlling parameter at this call site.
            param = summary.pending_iff
            try:
                position = cand.params.index(param)
            except ValueError:
                return False
            value = None
            for slot, bound in op.args:
                if slot == param or slot == position:
                    value = bound
            if value is None:
                value = cand.defaults.get(param)
            if value is False:
                return True
            if isinstance(value, tuple) and value[0] == "param" \
                    and value[1] in info.params:
                return ("param", value[1])
            return False  # True or unevaluable: fence defaults dominate
        return summary.leaves_pending == P_ALWAYS

    def _apply_call(self, op: Op, state: State,
                    info: FunctionInfo) -> List[State]:
        cands = self.by_name.get(op.name, [])
        if not cands:
            return [state]
        callee = LineState.join(self.summaries[c.where].exits for c in cands)
        # A callee that fences on every path clears every pending flush,
        # its callees' too: optimistic, a same-domain commit is the
        # common case.
        base = State(state.lines.call(callee),
                     _NO_PENDING if callee.fenced else state.pending_call,
                     state.txn, state.conds)
        pendings = {self._call_pending(op, info, c) for c in cands}
        # Must-polarity join over homonym candidates: a single candidate
        # that does not leave pending vetoes the pending edge.
        if False in pendings:
            return [base]
        forks = [p for p in pendings if isinstance(p, tuple)]
        if forks:
            param = forks[0][1]
            return [
                base._replace(conds=base.conds | {(param, True)}),
                base._replace(conds=base.conds | {(param, False)},
                              pending_call=base.pending_call | {op.name}),
            ]
        if True in pendings:
            return [base._replace(
                pending_call=base.pending_call | {op.name})]
        return [base]

    # -- op transfer -----------------------------------------------------
    def _apply(self, op: Op, state: State, info: FunctionInfo) -> List[State]:
        if op.kind == STORE:
            if info.metadata_label is not None and state.txn == 0:
                self._report(
                    "ESP502", info,
                    f"store at line {op.line} in durable-metadata function "
                    f"(label {info.metadata_label!r}) outside any undo-log/"
                    f"transaction coverage — a crash mid-mutation cannot "
                    f"roll back", line=op.line)
            return [state]
        if op.kind == FLUSH:
            return [state._replace(lines=state.lines.flush(op.name))]
        if op.kind in (FENCE, FLUSH_FENCE):
            lines = state.lines.flush(op.name) if op.kind == FLUSH_FENCE \
                else state.lines
            # Cross-domain queue nuances are the dynamic (ESP2xx) passes'
            # job; modeling them statically would drown the verifier in
            # same-device false positives.
            return [State(lines.fence(op.name), _NO_PENDING, state.txn,
                          state.conds)]
        if op.kind == PUBLISH:
            if state.lines.phase < 2 and info.publish_label is None:
                self._report(
                    "ESP501", info,
                    f"publish point {op.name}() reached at line {op.line} "
                    f"with no dominating flush+fence of the published "
                    f"payload — a crash in the window recovers a reachable "
                    f"pointer to unpersisted data", line=op.line)
            return [state]
        if op.kind == UNDO:
            return [state._replace(txn=max(state.txn, 1))]
        if op.kind == TXN_BEGIN:
            return [state._replace(txn=min(state.txn + 1, 4))]
        if op.kind == TXN_COMMIT:
            return [state._replace(txn=max(state.txn - 1, 0))]
        if op.kind == CALL:
            return self._apply_call(op, state, info)
        return [state]

    # -- per-function dataflow -------------------------------------------
    def _run_function(self, info: FunctionInfo, report: bool) -> Set[State]:
        """Worklist dataflow; returns the return-exit states."""
        self._reporting = report
        states: Dict[int, Set[State]] = {info.entry: {_ENTRY_STATE}}
        work = [info.entry]
        processed: Dict[int, Set[State]] = {i: set()
                                            for i in range(len(info.blocks))}
        while work:
            block_id = work.pop()
            todo = states.get(block_id, set()) - processed[block_id]
            if not todo:
                continue
            processed[block_id] |= todo
            if block_id in (info.ret_exit, info.raise_exit):
                continue
            block = info.blocks[block_id]
            for entry_state in _in_order(todo):
                outs = [entry_state]
                for op in block.ops:
                    nxt: List[State] = []
                    for s in outs:
                        nxt.extend(self._apply(op, s, info))
                    outs = nxt
                for succ, cond in block.succs:
                    for s in outs:
                        if cond is not None:
                            if (cond[0], not cond[1]) in s.conds:
                                continue  # contradictory path
                            if cond[0] in info.params:
                                s = s._replace(conds=s.conds | {cond})
                        bucket = states.setdefault(succ, set())
                        if s not in bucket:
                            bucket.add(s)
                            states[succ] = _widen(states[succ])
                            if succ not in work:
                                work.append(succ)
            work.sort()
        return states.get(info.ret_exit, set())

    # -- findings --------------------------------------------------------
    def _report(self, code: str, info: FunctionInfo, message: str,
                **data) -> None:
        if not self._reporting:
            return
        key = (code, info.where, message)
        if key in self._finding_keys:
            return
        self._finding_keys.add(key)
        self.findings.append(make_diagnostic(code, info.where, message,
                                             **data))

    def _summarise(self, info: FunctionInfo,
                   ret_states: Set[State]) -> Summary:
        summary = Summary()
        if not ret_states:
            return summary
        exits = LineState.join(s.lines for s in ret_states)
        summary.exits = LineState(exits.phase, fenced=exits.fenced)
        pending_states = [s for s in ret_states
                          if s.lines.pending or s.pending_call]
        # Parameter-conditional contract: every pending exit carries a
        # (param, False) condition on one common parameter.
        shared: Optional[Set[str]] = None
        for s in pending_states:
            params = {p for (p, val) in s.conds
                      if val is False and p in info.params}
            shared = params if shared is None else (shared & params)
        if pending_states and shared:
            summary.pending_iff = sorted(shared)[0]
        own_pending = [s for s in ret_states if s.lines.pending]
        if own_pending:
            summary.leaves_pending = P_ALWAYS \
                if len(pending_states) == len(ret_states) else P_MAYBE
        elif pending_states and summary.pending_iff is not None:
            # A fence parameter passed through to a deferred-fence
            # callee: export the conditional contract, one hop at a time.
            summary.leaves_pending = P_MAYBE
        else:
            # Unconditionally-pending *callee* flushes do not cascade
            # into this function's contract — ESP505 reports them at the
            # call-graph root that actually drops them, and cascading
            # here would multiply one finding across every caller chain.
            summary.leaves_pending = P_NO
            summary.pending_iff = None
        if self.assumptions.defers_fence(info.where) \
                and summary.leaves_pending == P_NO:
            summary.leaves_pending = P_MAYBE
        return summary

    # -- driver ----------------------------------------------------------
    def run(self) -> None:
        order = sorted(self.functions, key=lambda f: (f.path, f.lineno))
        for _ in range(MAX_FIXPOINT_ROUNDS):
            changed = False
            for info in order:
                ret_states = self._run_function(info, report=False)
                new = self._summarise(info, ret_states)
                if new != self.summaries[info.where]:
                    self.summaries[info.where] = new
                    changed = True
            if not changed:
                break
        # Final reporting pass with stable summaries.
        for info in order:
            ret_states = self._run_function(info, report=True)
            summary = self._summarise(info, ret_states)
            self.summaries[info.where] = summary
            self._check_exits(info, ret_states)
            self._check_sibling_branches(info)

    def _check_exits(self, info: FunctionInfo,
                     ret_states: Set[State]) -> None:
        assumed = self.assumptions.defers_fence(info.where)
        is_root = info.name not in self.called_names
        for state in _in_order(ret_states):
            conditional = any(val is False and p in info.params
                              for (p, val) in state.conds)
            if state.lines.pending and not assumed and not conditional:
                recvs = ", ".join(sorted(state.lines.pending))
                self._report(
                    "ESP503", info,
                    f"flush of {recvs} is still pending on a path that "
                    f"returns — the epoch is never committed, so under "
                    f"the reordered fault model the flush may never "
                    f"become durable", pending=recvs)
            if state.pending_call and is_root and not assumed \
                    and not conditional:
                helpers = ", ".join(sorted(state.pending_call))
                self._report(
                    "ESP505", info,
                    f"call-graph escape: helper(s) {helpers} defer their "
                    f"fence to the caller, but this call-graph root "
                    f"returns without ever committing the epoch",
                    helpers=helpers)

    def _check_sibling_branches(self, info: FunctionInfo) -> None:
        """ESP504: an if/else whose one branch persists and whose sibling
        stores/flushes without any durability call."""
        if self.assumptions.defers_fence(info.where):
            # A declared deferred-fence function is *expected* to have a
            # fencing arm and a deferring arm — that asymmetry is the
            # contract, not a hazard.
            return

        def branch_profile(stmts) -> Tuple[bool, bool, bool]:
            has_durability = False
            has_mutation = False
            has_raise = False
            for stmt in stmts:
                for node in ast.walk(stmt):
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef, ast.Lambda)):
                        continue
                    if isinstance(node, ast.Raise):
                        has_raise = True
                    if not isinstance(node, ast.Call):
                        continue
                    op = _classify_call(node, self.index)
                    if op is None:
                        continue
                    if op.kind in (FENCE, FLUSH_FENCE):
                        has_durability = True
                    elif op.kind in (STORE, FLUSH):
                        has_mutation = True
                    elif op.kind == CALL:
                        for cand in self.by_name.get(op.name, []):
                            exits = self.summaries[cand.where].exits
                            if exits.fenced or exits.phase == 2:
                                has_durability = True
            return has_durability, has_mutation, has_raise

        for node in ast.walk(info.node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node is not info.node:
                continue
            if not isinstance(node, ast.If) or not node.orelse:
                continue
            body = branch_profile(node.body)
            orelse = branch_profile(node.orelse)
            for durable, skipping, side in ((body, orelse, "else"),
                                            (orelse, body, "if")):
                if durable[0] and skipping[1] and not skipping[0] \
                        and not skipping[2]:
                    self._report(
                        "ESP504", info,
                        f"conditional at line {node.lineno}: the "
                        f"{side}-branch stores or flushes but skips the "
                        f"durability call its sibling branch performs — "
                        f"one path persists, the other silently does not",
                        line=node.lineno)


# ---------------------------------------------------------------------------
# Assumptions / suppressions
# ---------------------------------------------------------------------------

class Assumptions:
    """Parsed ``analysis-assumptions.json``.

    ``suppress`` entries drop findings by fingerprint; ``assume`` entries
    grant contracts (currently ``defers-fence``).  Every entry must carry
    a written ``why`` — that justification is what licenses a non-empty
    baseline under the repo's verification contract.
    """

    def __init__(self, suppress: Dict[str, str],
                 assume: Dict[str, Tuple[str, str]]) -> None:
        self.suppress = suppress              # fingerprint -> why
        self.assume = assume                  # where -> (contract, why)
        self.used: Set[str] = set()

    @classmethod
    def empty(cls) -> "Assumptions":
        return cls({}, {})

    def defers_fence(self, where: str) -> bool:
        entry = self.assume.get(where)
        if entry is not None and entry[0] == "defers-fence":
            self.used.add(f"assume:{where}")
            return True
        return False

    def filter(self, findings: Iterable[Diagnostic]) -> List[Diagnostic]:
        kept = []
        for diag in findings:
            why = self.suppress.get(diag.fingerprint)
            if why is None:
                kept.append(diag)
            else:
                self.used.add(f"suppress:{diag.fingerprint}")
        return kept

    def unused(self) -> List[str]:
        declared = {f"suppress:{fp}" for fp in self.suppress}
        declared |= {f"assume:{where}" for where in self.assume}
        return sorted(declared - self.used)


def load_assumptions(path) -> Assumptions:
    raw = json.loads(Path(path).read_text())
    suppress: Dict[str, str] = {}
    for entry in raw.get("suppress", []):
        fingerprint = entry["fingerprint"]
        why = entry.get("why", "").strip()
        if not why:
            raise ValueError(
                f"assumption entry {fingerprint!r} has no 'why' — every "
                f"suppression must carry a written justification")
        suppress[fingerprint] = why
    assume: Dict[str, Tuple[str, str]] = {}
    for entry in raw.get("assume", []):
        where = entry["function"]
        contract = entry.get("contract", "defers-fence")
        why = entry.get("why", "").strip()
        if not why:
            raise ValueError(
                f"assume entry {where!r} has no 'why' — every assumption "
                f"must carry a written justification")
        assume[where] = (contract, why)
    return Assumptions(suppress, assume)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

@dataclass
class StaticOrderResult:
    findings: List[Diagnostic]
    files: int
    functions: int
    publish_points: Dict[str, str]
    metadata_functions: Dict[str, str]
    suppressed: int
    unused_assumptions: List[str]

    def diagnostics(self) -> List[Diagnostic]:
        return list(self.findings)

    def summary(self) -> dict:
        by_code: Dict[str, int] = {}
        for diag in self.findings:
            by_code[diag.code] = by_code.get(diag.code, 0) + 1
        return {
            "by_code": by_code,
            "files": self.files,
            "functions": self.functions,
            "metadata_functions": dict(sorted(
                self.metadata_functions.items())),
            "publish_points": dict(sorted(self.publish_points.items())),
            "suppressed": self.suppressed,
            "unused_assumptions": self.unused_assumptions,
        }


def default_scope(repo_root) -> List[Tuple[Path, str]]:
    """(file, root-relative posix path) pairs of the in-tree scope."""
    src = Path(repo_root) / "src"
    out = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        if rel in SCOPE_EXCLUDE:
            continue
        if any(rel.startswith(prefix) for prefix in SCOPE_PREFIXES):
            out.append((path, rel))
    return out


def _scope_from_roots(roots: Sequence[Path]) -> List[Tuple[Path, str]]:
    out = []
    for root in roots:
        root = Path(root)
        if root.is_file():
            out.append((root, root.name))
            continue
        for path in sorted(root.rglob("*.py")):
            out.append((path, path.relative_to(root).as_posix()))
    return out


def analyze_paths(paths: Optional[Sequence[Path]] = None, repo_root=None,
                  assumptions: Optional[Assumptions] = None
                  ) -> StaticOrderResult:
    """Run the ESP5xx verifier.

    With no *paths*, the in-tree durable-subsystem scope under
    ``repo_root/src`` is analyzed; otherwise every ``*.py`` under the
    given roots.  *assumptions* supplies suppressions/contracts.
    """
    if assumptions is None:
        assumptions = Assumptions.empty()
    if paths is None:
        if repo_root is None:
            repo_root = Path(__file__).resolve().parents[3]
        scope = default_scope(repo_root)
    else:
        scope = _scope_from_roots(paths)

    index: _PublishIndex = {}
    parsed: List[Tuple[_Defs, str]] = []
    for path, rel in scope:
        try:
            source = path.read_text()
            tree = ast.parse(source)
        except (OSError, SyntaxError, ValueError):
            continue
        defs = _function_defs(tree)
        parsed.append((defs, rel))
        # Pre-pass: register decorated functions so every file's calls
        # can be classified against the full publish index.
        _register_labels(defs, index)

    functions: List[FunctionInfo] = []
    for defs, rel in parsed:
        functions.extend(_build_functions(defs, rel, index))

    engine = _Engine(functions, index, assumptions)
    engine.run()
    raw = len(engine.findings)
    findings = assumptions.filter(engine.findings)
    publish_points = {
        f"{info.path}::{info.qualname}": info.publish_label
        for info in functions if info.publish_label is not None}
    metadata_functions = {
        f"{info.path}::{info.qualname}": info.metadata_label
        for info in functions if info.metadata_label is not None}
    return StaticOrderResult(
        findings=findings,
        files=len(parsed),
        functions=len(functions),
        publish_points=publish_points,
        metadata_functions=metadata_functions,
        suppressed=raw - len(findings),
        unused_assumptions=assumptions.unused(),
    )
