"""Shared diagnostic framework: rule codes, findings, reports, baselines.

Every pass of :mod:`repro.analysis` emits :class:`Diagnostic` records with
a stable ``ESPxxx`` code, so tooling (CI gates, baselines, editors) can
key on codes rather than message text.  Reports serialise to
*deterministic* JSON — same inputs produce byte-identical output across
runs and across ``gc_workers`` settings — which the determinism tests
pin.

Code ranges:

* ``ESP1xx`` — persistent-closure analysis (class/field classification);
* ``ESP2xx`` — persist-order hazards (trace-based happens-before);
* ``ESP3xx`` — source lint (AST rules over ``src/`` + ``examples/``);
* ``ESP4xx`` — flush/fence-elision analysis (trace-based redundancy);
* ``ESP5xx`` — static persist-order verification (CFG + call-summary
  dataflow over the durable subsystems' source, all paths, no traces).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

#: Stable rule catalogue: code -> (severity, one-line description).
RULE_CATALOGUE: Dict[str, Tuple[str, str]] = {
    # -- closure analysis ------------------------------------------------
    "ESP101": ("error",
               "escaping field: the declared type of a REF field of a "
               "persistable class can never be persistent — every store "
               "into it would raise UnsafePointerError at runtime"),
    "ESP102": ("info",
               "open field: no declared type (or java.lang.Object) — "
               "persistence safety depends on the runtime subtype"),
    "ESP103": ("info",
               "open field: the declared type's subtype cone mixes "
               "persist-only and volatile-allocatable classes"),
    "ESP104": ("warning",
               "persistable class is not closed: a field (possibly "
               "inherited) may reach outside the persist-only closure"),
    "ESP105": ("info",
               "certified closed: the class and its whole reachable field "
               "graph are provably PJH-only under the stated premises"),
    # -- persist-order hazards -------------------------------------------
    "ESP201": ("error",
               "publish-before-persist: a pointer store became durable "
               "before the target object's header line was flushed and "
               "fenced — a crash in the window recovers a dangling "
               "reference"),
    "ESP202": ("warning",
               "fence-less flush: a line was flushed but never fenced — "
               "under the reordered fault model the flush may be undone "
               "by a crash"),
    "ESP203": ("error",
               "write-after-publish: a published object's header line was "
               "rewritten and never re-persisted before end of trace"),
    "ESP204": ("error",
               "frame-top published before the frame record persisted: the "
               "stack-top word became durable before every line of the "
               "frame it points at — a crash in the window resumes into a "
               "torn frame"),
    "ESP205": ("error",
               "racy publish without persist edge: in a multi-mutator "
               "trace a pointer was published whose target was flushed "
               "only by a different mutator, with no fence between — "
               "another legal interleaving orders the publish before the "
               "flush, recovering a dangling reference"),
    # -- source lint ------------------------------------------------------
    "ESP301": ("error",
               "raw clflush call outside the persist layer — route flush "
               "traffic through repro.nvm.persist.PersistDomain"),
    "ESP302": ("error",
               "raw fence on a device outside the persist layer — use "
               "PersistDomain.fence() so epochs stay explicit"),
    "ESP303": ("error",
               "wall-clock read outside the simulated-clock layer — read "
               "time from repro.nvm.clock.Clock instead"),
    "ESP305": ("error",
               "module-level mutable state in the session/core layers — "
               "many Espresso sessions share one process, so state must "
               "live on the instance/config (or become an immutable "
               "table)"),
    "ESP306": ("error",
               "raw Clock.divert outside the clock and the worker pool — "
               "run simulated threads under WorkerPool.on() so phase time "
               "commits (max over workers) in one place"),
    # -- flush/fence-elision analysis --------------------------------------
    "ESP401": ("info",
               "redundant flush: the line was flushed again with no "
               "store to it since its previous flush — the clflush "
               "rewrites identical bytes and is elidable under a "
               "FlushElisionCertificate"),
    "ESP402": ("info",
               "redundant fence: no flush happened since the previous "
               "fence — the sfence orders nothing and is elidable under "
               "a FlushElisionCertificate"),
    # -- static persist-order verification ---------------------------------
    "ESP501": ("error",
               "publish without dominating persist: a path reaches a "
               "declared publish point with no flush+fence of the payload "
               "before it — a crash in the window recovers a reachable "
               "pointer to unpersisted data"),
    "ESP502": ("error",
               "unlogged durable-metadata store: a @durable_metadata "
               "function stores outside any undo-log/transaction coverage "
               "— a crash mid-mutation cannot roll the structure back"),
    "ESP503": ("warning",
               "fence-less flush at function exit: a flush enqueued in "
               "this function is still pending on a returning path — the "
               "epoch is never committed, so the flush may never become "
               "durable"),
    "ESP504": ("warning",
               "sibling branch skips durability: one arm of a conditional "
               "performs a flush+fence its sibling arm skips while still "
               "storing or flushing — one path persists, the other "
               "silently does not"),
    "ESP505": ("error",
               "call-graph escape: a helper defers its fence to the "
               "caller, but a call-graph root invokes it on a path whose "
               "epoch is never committed — the pending flush escapes the "
               "analyzed world"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule code plus a deterministic location string.

    ``where`` is the stable provenance key ("Class.field", "path:line",
    "epoch 3/line 12") used both for display and for baseline
    fingerprinting, so it must not contain run-dependent data.
    """

    code: str
    where: str
    message: str
    severity: str = ""
    data: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.code not in RULE_CATALOGUE:
            raise ValueError(f"unknown rule code {self.code!r}")
        if not self.severity:
            object.__setattr__(self, "severity", RULE_CATALOGUE[self.code][0])

    @property
    def fingerprint(self) -> str:
        """Baseline key: code + location (message text may be reworded)."""
        return f"{self.code}:{self.where}"

    def to_dict(self) -> dict:
        out = {
            "code": self.code,
            "severity": self.severity,
            "where": self.where,
            "message": self.message,
        }
        if self.data:
            out["data"] = {k: v for k, v in self.data}
        return out

    def render(self) -> str:
        return f"{self.where}: {self.code} [{self.severity}]: {self.message}"


def make_diagnostic(code: str, where: str, message: str,
                    **data) -> Diagnostic:
    return Diagnostic(code=code, where=where, message=message,
                      data=tuple(sorted(data.items())))


def sort_key(diag: Diagnostic) -> tuple:
    return (diag.code, diag.where, diag.message)


@dataclass
class AnalysisReport:
    """Findings of one or more passes, with deterministic serialisation."""

    #: pass name -> findings (each list kept sorted on output)
    passes: Dict[str, List[Diagnostic]] = field(default_factory=dict)
    #: pass name -> summary facts (counts, certified classes, ...)
    summaries: Dict[str, dict] = field(default_factory=dict)

    def add_pass(self, name: str, findings: Iterable[Diagnostic],
                 summary: Optional[dict] = None) -> None:
        self.passes[name] = sorted(findings, key=sort_key)
        if summary is not None:
            self.summaries[name] = summary

    @property
    def findings(self) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        for name in sorted(self.passes):
            out.extend(self.passes[name])
        return out

    def errors(self) -> List[Diagnostic]:
        return [d for d in self.findings if d.severity == "error"]

    def apply_baseline(self, baseline: "Baseline") -> int:
        """Drop findings the baseline accepts; returns how many."""
        dropped = 0
        for name, findings in self.passes.items():
            kept = [d for d in findings if d.fingerprint not in baseline]
            dropped += len(findings) - len(kept)
            self.passes[name] = kept
        return dropped

    def to_dict(self) -> dict:
        return {
            "passes": {
                name: [d.to_dict() for d in sorted(findings, key=sort_key)]
                for name, findings in self.passes.items()
            },
            "summaries": self.summaries,
            "total_findings": len(self.findings),
        }

    def to_json(self) -> str:
        """Byte-stable JSON: sorted keys, fixed indentation, no times."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


class Baseline:
    """A set of accepted finding fingerprints, stored as JSON on disk.

    An *empty* baseline (the repo's ``analysis-baseline.json``) means the
    tree must be clean; adding fingerprints is the escape hatch for
    grandfathering a finding in without turning the rule off.
    """

    def __init__(self, fingerprints: Iterable[str] = ()) -> None:
        self.fingerprints = set(fingerprints)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self.fingerprints

    @classmethod
    def load(cls, path) -> "Baseline":
        raw = json.loads(Path(path).read_text())
        return cls(raw.get("fingerprints", []))

    def save(self, path) -> None:
        payload = {"fingerprints": sorted(self.fingerprints)}
        Path(path).write_text(json.dumps(payload, indent=2,
                                         sort_keys=True) + "\n")
