"""Flush/fence-elision analysis and certificates (DESIGN.md §17, §18).

PR 2's epoch coalescing cut fig17 clflush traffic by batching each fence
epoch's lines and deduplicating within the epoch.  What it cannot see is
*cross-epoch* redundancy: a protocol that re-flushes a line whose durable
copy is already current (``flush_reachable`` over a mostly-clean closure,
a counter rewritten with the same value, a GC stamp refreshed in place)
pays a full ``clflush`` + ``sfence`` for a provable no-op.  NVTraverse
(Friedman et al.) and Zuriel et al.'s durable sets both rest on the same
observation — persistence is only needed where the durable copy actually
differs.

The same replay of a recorded :class:`~repro.nvm.persist.PersistEventLog`
that checks the ESP2xx hazards (:func:`repro.analysis.events.replay`)
proves the redundancy:

* **ESP401** — a line was flushed again with *no store to it* since its
  previous flush: the second ``clflush`` rewrites identical bytes within
  or across fence epochs, so one flush per epoch suffices.
* **ESP402** — a fence was issued with *no flush* since the previous
  fence: the ``sfence`` orders nothing.

The artefact is a :class:`FlushElisionCertificate` naming the persist
domains (by name prefix) the proof covers.  A certified
:class:`~repro.nvm.persist.PersistDomain` re-checks the premise per line
at ``commit_epoch`` time — it only skips a ``clflush`` when the line's
live content *currently* equals its durable copy, and only skips the
trailing ``sfence`` when no flush on the device still awaits ordering —
so the static pass licenses the machinery while the commit-time check
carries the soundness:

* skipping the flush of a durably-equal line is the identity operation
  under every fault mode (ATOMIC/REORDERED copy identical bytes; TORN
  tearing a store that rewrote the durable value cannot invent a third
  value);
* skipping a fence that has no unfenced flush to order is trivially
  equivalent.

**Revocation rules.** The certificate is *suspended* (not revoked) while
an event log traces the device — recorded traces must show the
uncertified flush sequence, or hazard analysis and re-certification
would consume their own output.  It is *revoked* — permanently, with an
audit trail — when the workload leaves the certified envelope: a covered
domain is disabled (the §6.4 no-flush baseline must not report elisions
as wins), or a caller observes a premise violation and calls
:meth:`FlushElisionCertificate.revoke` directly.  A revoked certificate
changes nothing: every flush and fence is issued exactly as without it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic, make_diagnostic
from repro.analysis.events import Replay, replay
from repro.analysis.hazards import HazardReport

__all__ = [
    "ElisionReport",
    "FlushElisionCertificate",
    "analyze_elision",
    "certify_elision",
]

#: Domain-name prefixes certify_elision covers by default: every PJH data
#: heap ("pjh:<name>" and its GC-worker forks) plus the PJH-internal
#: metadata/name-table/Klass/frame domains, which live on the same device
#: and share the same commit-time soundness check.
PJH_SCOPES = ("pjh-meta", "pjh-names", "pjh-klass", "pjh-frames")


class FlushElisionCertificate:
    """Permission to elide provably redundant flushes/fences, revocably.

    ``scopes`` are persist-domain name prefixes: a domain is covered when
    its name equals a scope or extends one with ``":"`` (so
    ``"pjh:acct"`` covers the GC-worker forks ``"pjh:acct:gc-w0"`` ...).
    """

    def __init__(self, scopes: Iterable[str], trace_name: str = "",
                 evidence: Optional[Dict[str, int]] = None,
                 source: str = "elision-analysis") -> None:
        self.scopes: Tuple[str, ...] = tuple(sorted({str(s) for s in scopes}))
        self.trace_name = trace_name
        self.evidence: Dict[str, int] = dict(evidence or {})
        self.source = source
        #: (reason, scope) audit trail, newest last.
        self.revocations: List[Tuple[str, str]] = []
        self._active = True
        # Live elision counters (all covered domains share the object).
        self.flushes_elided = 0
        self.fences_elided = 0

    # ------------------------------------------------------------------
    # The hot-path queries
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        return self._active

    def covers_domain(self, name: str) -> bool:
        if not self._active:
            return False
        return any(name == scope or name.startswith(scope + ":")
                   for scope in self.scopes)

    def note_elided(self, flushes: int = 0, fences: int = 0) -> None:
        """Covered domains report every skipped operation here."""
        self.flushes_elided += flushes
        self.fences_elided += fences

    # ------------------------------------------------------------------
    # Revocation
    # ------------------------------------------------------------------
    def revoke(self, reason: str, scope: str = "*") -> None:
        """Deactivate the certificate; every later commit flushes fully."""
        if self._active:
            self._active = False
        self.revocations.append((str(reason), str(scope)))

    # ------------------------------------------------------------------
    # Identity / serialisation
    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        for scope in self.scopes:
            digest.update(f"{scope};".encode())
        digest.update(b"|")
        for key in sorted(self.evidence):
            digest.update(f"{key}={self.evidence[key]};".encode())
        digest.update(self.trace_name.encode())
        return digest.hexdigest()[:16]

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "fingerprint": self.fingerprint,
            "trace": self.trace_name,
            "scopes": list(self.scopes),
            "active": self._active,
            "evidence": dict(sorted(self.evidence.items())),
            "elided": {"flushes": self.flushes_elided,
                       "fences": self.fences_elided},
            "revocations": [{"reason": reason, "scope": scope}
                            for reason, scope in self.revocations],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self._active else "revoked"
        return (f"FlushElisionCertificate({state}, "
                f"scopes={list(self.scopes)}, {self.fingerprint})")


@dataclass
class ElisionReport:
    """What one trace replay proved redundant."""

    trace_name: str = ""
    flushes: int = 0
    fences: int = 0
    stores: int = 0
    #: line -> number of provably redundant flushes of that line.
    redundant_flushes: Dict[int, int] = field(default_factory=dict)
    #: count of fences with no flush since the previous fence.
    redundant_fences: int = 0

    @property
    def redundant_flush_total(self) -> int:
        return sum(self.redundant_flushes.values())

    def summary(self) -> dict:
        return {
            "trace": self.trace_name,
            "stores": self.stores,
            "flushes": self.flushes,
            "fences": self.fences,
            "redundant_flushes": self.redundant_flush_total,
            "redundant_fences": self.redundant_fences,
            "lines_with_redundancy": len(self.redundant_flushes),
        }

    def diagnostics(self) -> List[Diagnostic]:
        out = [
            make_diagnostic(
                "ESP401", f"line {line}",
                f"flushed {count + 1} times with no intervening store — "
                f"one clflush per fence epoch suffices; {count} elidable",
                redundant=count)
            for line, count in sorted(self.redundant_flushes.items())
        ]
        if self.redundant_fences:
            out.append(make_diagnostic(
                "ESP402", "trace",
                f"{self.redundant_fences} fence(s) with no flush since the "
                f"previous fence — each sfence orders nothing and is "
                f"elidable",
                redundant=self.redundant_fences))
        return out

    @classmethod
    def of(cls, seen: Replay, trace_name: str = "") -> "ElisionReport":
        stats = seen.stats
        return cls(trace_name, stats["flushes"], stats["fences"],
                   stats["stores"], seen.redundant_flushes,
                   seen.redundant_fences)

    def certificate(self, scopes: Iterable[str]) -> FlushElisionCertificate:
        return FlushElisionCertificate(
            scopes, trace_name=self.trace_name,
            evidence={
                "flushes": self.flushes,
                "fences": self.fences,
                "redundant_flushes": self.redundant_flush_total,
                "redundant_fences": self.redundant_fences,
            })


def analyze_elision(log) -> ElisionReport:
    """The ESP4xx verdicts of one :func:`~repro.analysis.events.replay`
    of a :class:`~repro.nvm.persist.PersistEventLog` or raw event list.

    The proof is conservative: a flush is only flagged when the *same
    line* was already flushed and not stored to since (its durable copy
    is current by construction, with no assumption about store values);
    a fence only when no flush at all happened since the previous fence.
    """
    return ElisionReport.of(replay(log), getattr(log, "name", ""))


def certify_elision(jvm, trace, scopes: Optional[Iterable[str]] = None,
                    install: bool = True) -> FlushElisionCertificate:
    """Analyze a session's recorded trace and issue (and install) a
    flush-elision certificate.

    One replay of *trace* yields both verdicts.  Refuses to certify a
    trace the persist-order hazard pass (ESP201-205) finds errors in: a
    workload whose publishes already race its flushes must not have
    *more* flushes removed.  ``scopes`` defaults to every
    mounted heap's data domain plus the PJH-internal domains
    (:data:`PJH_SCOPES`).  With ``install`` the certificate lands on
    ``jvm.vm.elision_certificate``, ``jvm.config.elision_certificate``
    and every mounted heap's persist domain — and through
    :class:`~repro.api.EspressoConfig` it survives ``restart``.
    """
    seen = replay(trace)
    hazards = HazardReport(seen.hazards, seen.stats)
    errors = [d for d in hazards.diagnostics() if d.severity == "error"]
    if errors:
        raise ValueError(
            f"refusing to certify flush elision: the trace has "
            f"{len(errors)} persist-order hazard error(s), first: "
            f"{errors[0].render()}")
    report = ElisionReport.of(seen, getattr(trace, "name", ""))
    if scopes is None:
        mounted = jvm.heaps.mounted_names()
        scopes = tuple(f"pjh:{name}" for name in mounted) + PJH_SCOPES
    cert = report.certificate(scopes)
    if install:
        jvm.vm.elision_certificate = cert
        jvm.config.elision_certificate = cert
        for name in jvm.heaps.mounted_names():
            heap = jvm.heaps.heap(name)
            heap.install_elision_certificate(cert)
    return cert
