"""Barrier-elision certificates issued by the closure analysis.

A :class:`SafetyCertificate` is the artefact that lets the runtime skip
the per-store reference barrier: it names the ``(class, field)`` pairs
the analyzer proved *closed* — the holder can only live in the PJH and
the stored value can only be null or another PJH object, so the barrier
would provably make no remset entry and trigger no safety veto.

The proof rests on two premises the static pass cannot discharge alone:

1. **Declared-type conformance** — stores into a field only ever hold
   instances of the field's declared type (what the Java verifier
   guarantees for real bytecode; this simulator trusts its callers).
2. **Persist-only allocation** — every class in :attr:`persist_only` is
   allocated exclusively with ``pnew``, never ``new``.

Premise 2 is enforced *dynamically* by revocation: the VM reports every
DRAM allocation and every late class definition to the installed
certificate, and any entry whose proof depended on the offending class
is revoked on the spot (per entry, not whole-certificate, so one stray
``new`` does not forfeit elision everywhere).  A revoked store simply
falls back to the full barrier — behaviour, remsets and durable state
are identical either way; only the fast path is lost.
"""

from __future__ import annotations

import hashlib
from typing import Dict, FrozenSet, Iterable, List, Mapping, Set, Tuple

FieldKey = Tuple[str, str]  # (class name, field name); "[]" = array elements


class SafetyCertificate:
    """The set of analyzer-certified closed fields, with live revocation."""

    def __init__(self, closed_fields: Iterable[FieldKey],
                 persist_only: Iterable[str],
                 dependencies: Mapping[FieldKey, Iterable[str]] = (),
                 source: str = "closure-analysis") -> None:
        self.closed_fields: FrozenSet[FieldKey] = frozenset(
            (str(c), str(f)) for c, f in closed_fields)
        self.persist_only: FrozenSet[str] = frozenset(persist_only)
        self.source = source
        deps = dict(dependencies) if dependencies else {}
        self._dependencies: Dict[FieldKey, FrozenSet[str]] = {
            key: frozenset(deps.get(key, (key[0],)))
            for key in self.closed_fields
        }
        # class name -> certified entries whose proof names that class.
        self._dependents: Dict[str, Set[FieldKey]] = {}
        for key, names in self._dependencies.items():
            for name in names:
                self._dependents.setdefault(name, set()).add(key)
        self._active: Set[FieldKey] = set(self.closed_fields)
        #: (reason, class name, revoked entries) — audit trail for tooling.
        self.revocations: List[Tuple[str, str, Tuple[FieldKey, ...]]] = []

    # ------------------------------------------------------------------
    # The hot-path query
    # ------------------------------------------------------------------
    def covers(self, class_name: str, field_name: str) -> bool:
        return (class_name, field_name) in self._active

    @property
    def active_fields(self) -> FrozenSet[FieldKey]:
        return frozenset(self._active)

    # ------------------------------------------------------------------
    # Dynamic premise enforcement (called by the VM)
    # ------------------------------------------------------------------
    def _revoke(self, reason: str, class_name: str) -> None:
        doomed = self._dependents.get(class_name)
        if not doomed:
            return
        hit = tuple(sorted(doomed & self._active))
        if hit:
            self._active.difference_update(hit)
            self.revocations.append((reason, class_name, hit))

    def note_dram_allocation(self, class_name: str) -> None:
        """A ``new`` of *class_name* breaks premise 2 for that class."""
        self._revoke("dram-allocation", class_name)

    def note_class_defined(self, class_name: str,
                           ancestor_names: Iterable[str]) -> None:
        """A late-defined subclass widens every ancestor's subtype cone.

        The new class was not part of the analyzed closure, so any entry
        whose proof quantified over an ancestor's cone is no longer
        justified.  Classes whose own name is certified persist-only
        (e.g. the NVM alias twin of an analyzed class) change nothing.
        """
        if class_name in self.persist_only:
            return
        for ancestor in ancestor_names:
            self._revoke(f"subclass-defined:{class_name}", ancestor)

    # ------------------------------------------------------------------
    # Identity / serialisation
    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        for entry in sorted(self.closed_fields):
            digest.update(f"{entry[0]}.{entry[1]};".encode())
        digest.update(b"|")
        for name in sorted(self.persist_only):
            digest.update(f"{name};".encode())
        return digest.hexdigest()[:16]

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "fingerprint": self.fingerprint,
            "persist_only": sorted(self.persist_only),
            "closed_fields": [f"{c}.{f}" for c, f
                              in sorted(self.closed_fields)],
            "active_fields": [f"{c}.{f}" for c, f in sorted(self._active)],
            "revocations": [
                {"reason": reason, "class": name,
                 "revoked": [f"{c}.{f}" for c, f in entries]}
                for reason, name, entries in self.revocations
            ],
        }

    def __len__(self) -> int:
        return len(self._active)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SafetyCertificate({len(self._active)}/"
                f"{len(self.closed_fields)} active, {self.fingerprint})")
