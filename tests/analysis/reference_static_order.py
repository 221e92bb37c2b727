"""Test-only reference for the ESP5xx engine.

This is the dataflow engine of ``repro.analysis.static_order`` as it
stood while it kept its own model of dirty -> flushed -> fenced:
``Summary``, ``State``, ``_widen`` and ``_Engine``, verbatim.  Its
``State`` holds the guard phase, the flushed and pending receiver sets
and the fence bit itself, and ``_apply``/``_apply_call``/``_widen``
transition them by hand; the production engine steps
``repro.analysis.events.LineState`` instead.  ``test_static_order_reference.py``
runs both on the same collected functions and demands equal summaries,
findings and ``StaticOrderResult.summary()``.

Two deviations are marked ``DEVIATION`` below.  A receiver chain whose
head is not a name (``pool().domain``) used to be named ``?`` and is now
``?.domain``, so a fence on any ``?``-headed receiver is the fence on an
unnamed receiver it always was.  And states are stepped in the total
order ``_order`` (the production one, over this ``State``'s fields)
instead of ``sorted``'s: frozensets compare by subset, so ties kept the
order string hashing gave the set, and once a block reached the
widening cap the findings changed with ``PYTHONHASHSEED``.

Only the passive front end is shared with production: the CFGs and
abstract events (``FunctionInfo``, ``Op``, ``_classify_call``) and the
widening and fixpoint limits.  Do not "simplify" this file by importing
behaviour from ``repro.analysis.events`` or the production engine.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, make_diagnostic
from repro.analysis.events import (CALL, FENCE, FLUSH, FLUSH_FENCE, PUBLISH,
                                   STORE, TXN_BEGIN, TXN_COMMIT, UNDO)
from repro.analysis.static_order import (MAX_FIXPOINT_ROUNDS,
                                         MAX_STATES_PER_BLOCK, FunctionInfo,
                                         Op, _classify_call, _PublishIndex)

#: leaves_pending modes
P_NO, P_ALWAYS, P_MAYBE = "no", "always", "maybe"


@dataclass
class Summary:
    provides_guard: bool = False   # every return path flushed then fenced
    provides_flush: bool = False   # every return path flushed something
    fences_always: bool = False    # every return path saw a fence
    leaves_pending: str = P_NO     # P_NO / P_ALWAYS / P_MAYBE
    pending_iff: Optional[str] = None  # pending only when this param is falsy


class State(NamedTuple):
    phase: int                       # ESP501: 0 none, 1 flushed, 2 guarded
    flushed: FrozenSet[str]          # receivers flushed (fence matching)
    pending_own: FrozenSet[str]      # own enqueues not yet fenced
    pending_call: FrozenSet[str]     # callee symbols that left pending
    fenced: bool
    txn: int
    conds: FrozenSet[Tuple[str, bool]]


_ENTRY_STATE = State(0, frozenset(), frozenset(), frozenset(),
                     False, 0, frozenset())


def _widen(states: Set[State]) -> Set[State]:
    if len(states) <= MAX_STATES_PER_BLOCK:
        return states
    # Drop path conditions first; if still too many, merge pairwise
    # toward the conservative direction (min phase, union pending).
    dropped = {s._replace(conds=frozenset()) for s in states}
    if len(dropped) <= MAX_STATES_PER_BLOCK:
        return dropped
    phase = min(s.phase for s in dropped)
    flushed = frozenset().union(*(s.flushed for s in dropped))
    pending_own = frozenset().union(*(s.pending_own for s in dropped))
    pending_call = frozenset().union(*(s.pending_call for s in dropped))
    fenced = all(s.fenced for s in dropped)
    txn = min(s.txn for s in dropped)
    return {State(phase, flushed, pending_own, pending_call, fenced, txn,
                  frozenset())}


_NO_PENDING = frozenset()


def _order(state: State) -> tuple:
    """DEVIATION: the production engine's total order, on these fields."""
    def ranked(items) -> tuple:
        return len(items), sorted(items)

    return (state.phase, ranked(state.flushed), ranked(state.pending_own),
            ranked(state.pending_call), state.fenced, state.txn,
            ranked(state.conds))


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
        guard_all = all(self.summaries[c.where].provides_guard
                        for c in cands)
        flush_all = all(self.summaries[c.where].provides_flush
                        for c in cands)
        fence_all = all(self.summaries[c.where].fences_always
                        for c in cands)
        phase = state.phase
        if guard_all:
            phase = 2
        elif flush_all and phase == 0:
            phase = 1
        fenced = state.fenced or fence_all
        pending_own = state.pending_own
        pending_call = state.pending_call
        if fence_all:
            # The callee unconditionally fences the device: optimistic
            # clearing (a same-domain commit is the common case).
            pending_own = frozenset()
            pending_call = frozenset()
        pendings = {self._call_pending(op, info, c) for c in cands}
        base = state._replace(phase=phase, fenced=fenced,
                              pending_own=pending_own,
                              pending_call=pending_call)
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
            return [state._replace(
                phase=max(state.phase, 1),
                flushed=state.flushed | {op.name},
                pending_own=state.pending_own | {op.name})]
        if op.kind == FENCE:
            phase = state.phase
            # DEVIATION: was ``op.name == "?"`` (see the docstring).
            if phase == 1 and (op.name in state.flushed
                               or op.name.startswith("?")):
                phase = 2
            # Optimistic per-device clearing: an epoch commit makes every
            # enqueued line durable.  Cross-domain queue nuances are the
            # dynamic (ESP2xx) passes' job; modeling them statically
            # would drown the verifier in same-device false positives.
            return [state._replace(
                phase=phase, fenced=True,
                pending_own=_NO_PENDING, pending_call=_NO_PENDING)]
        if op.kind == FLUSH_FENCE:
            return [state._replace(
                phase=2, fenced=True,
                flushed=state.flushed | {op.name},
                pending_own=_NO_PENDING, pending_call=_NO_PENDING)]
        if op.kind == PUBLISH:
            if state.phase < 2 and info.publish_label is None:
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
            # DEVIATION: was ``sorted(todo)`` (see the docstring).
            for entry_state in sorted(todo, key=_order):
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
        summary.provides_guard = all(s.phase == 2 for s in ret_states)
        summary.provides_flush = all(s.phase >= 1 for s in ret_states)
        summary.fences_always = all(s.fenced for s in ret_states)
        pending_states = [s for s in ret_states
                          if s.pending_own or s.pending_call]
        # Parameter-conditional contract: every pending exit carries a
        # (param, False) condition on one common parameter.
        shared: Optional[Set[str]] = None
        for s in pending_states:
            params = {p for (p, val) in s.conds
                      if val is False and p in info.params}
            shared = params if shared is None else (shared & params)
        if pending_states and shared:
            summary.pending_iff = sorted(shared)[0]
        own_pending = [s for s in ret_states if s.pending_own]
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

    # -- run -------------------------------------------------------------
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
        # DEVIATION: was ``sorted(ret_states)`` (see the docstring).
        for state in sorted(ret_states, key=_order):
            conditional = any(val is False and p in info.params
                              for (p, val) in state.conds)
            if state.pending_own and not assumed and not conditional:
                recvs = ", ".join(sorted(state.pending_own))
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
                            s = self.summaries[cand.where]
                            if s.fences_always or s.provides_guard:
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
