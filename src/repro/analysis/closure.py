"""Persistent-closure analysis over Klass/FieldDescriptor metadata.

The type-based safety level (paper §3.4) restricts ``pnew`` to annotated
classes and vetoes volatile stores at runtime, store by store.  This pass
proves the same facts ahead of execution from the class graph alone:

For each REF field ``f`` of a persistable class ``C`` with declared type
``T``, look at the *subtype cone* of ``T`` — ``T`` plus every transitive
subclass known to the analysis:

* **escaping** — no class in the cone is persistable: every store into
  ``f`` would raise ``UnsafePointerError`` under type-based safety, so
  the class graph is broken by construction (ESP101).
* **closed** — every class in the cone is *persist-only* (allocated
  solely with ``pnew``): stores into ``f`` can only ever publish
  PJH-or-null values, so the runtime barrier is provably a no-op
  (ESP105 at info level).
* **open** — anything in between, including ``java.lang.Object`` and
  fields with no declared type: safety depends on the runtime subtype
  and the store-time check must stay (ESP102/ESP103, info).

Reference arrays get the same treatment through a ``[]`` pseudo-field
with the element class as declared type; ``[LT;`` cones follow Java's
covariance (``[LS;`` for every ``S`` in cone(T)), primitive arrays are
leaf cones.

The proof trusts two premises it cannot discharge alone: stores only
ever hold instances of the field's declared type (what the Java verifier
guarantees for real bytecode), and persist-only classes really are never
allocated with ``new``.  The runtime barrier stays on every store either
way; the verdicts are diagnostics, not a licence to skip it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, make_diagnostic, sort_key
from repro.core import safety
from repro.runtime.klass import FieldKind, Klass, OBJECT_KLASS_NAME

ARRAY_FIELD = "[]"  # pseudo-field naming an array's element slots

FieldKey = Tuple[str, str]  # (class name, field name); "[]" = array elements

#: Primitive-array class names: leaf cones, trivially persistable data.
_PRIM_ARRAY_NAMES = ("[J", "[D")


@dataclass(frozen=True)
class FieldClassification:
    """The analysis verdict for one REF field (or array pseudo-field)."""

    class_name: str
    field_name: str
    declared: Optional[str]     # None = no declared type (Object-typed)
    classification: str         # "closed" | "escaping" | "open"
    reason: str
    cone: Tuple[str, ...] = ()  # the declared type's subtype cone

    @property
    def key(self) -> FieldKey:
        return (self.class_name, self.field_name)

    def to_dict(self) -> dict:
        return {
            "class": self.class_name,
            "field": self.field_name,
            "declared": self.declared,
            "classification": self.classification,
            "reason": self.reason,
            "cone": list(self.cone),
        }


class ClosureReport:
    """Classification of every analyzed field."""

    def __init__(self, fields: Sequence[FieldClassification],
                 persistable: Set[str], persist_only: Set[str],
                 analyzed_classes: Set[str]) -> None:
        self.fields = sorted(fields, key=lambda f: (f.class_name,
                                                    f.field_name))
        self.persistable = set(persistable)
        self.persist_only = set(persist_only)
        self.analyzed_classes = set(analyzed_classes)

    def by_classification(self, kind: str) -> List[FieldClassification]:
        return [f for f in self.fields if f.classification == kind]

    @property
    def closed_classes(self) -> List[str]:
        """Persist-only classes whose every analyzed field is closed."""
        open_or_escaping = {f.class_name for f in self.fields
                            if f.classification != "closed"}
        return sorted(name for name in self.analyzed_classes
                      if name in self.persist_only
                      and name not in open_or_escaping)

    @property
    def certified_fields(self) -> List[FieldKey]:
        """Closed fields of persist-only holder classes.

        A closed field of a holder that may live in DRAM does not count:
        its cone never leaves the persist-only set, but the holder does.
        """
        return [f.key for f in self.fields
                if f.classification == "closed"
                and f.class_name in self.persist_only]

    def diagnostics(self, include_open: bool = False) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        for f in self.fields:
            where = f"{f.class_name}.{f.field_name}"
            if f.classification == "escaping":
                out.append(make_diagnostic(
                    "ESP101", where,
                    f"declared type {f.declared!r} has no persistable "
                    f"subtype; every store would raise UnsafePointerError",
                    declared=f.declared))
            elif include_open and f.classification == "open":
                if f.declared is None or f.declared == OBJECT_KLASS_NAME:
                    out.append(make_diagnostic(
                        "ESP102", where,
                        "no usable declared type; runtime subtype decides "
                        "persistence safety", declared=f.declared))
                else:
                    out.append(make_diagnostic(
                        "ESP103", where,
                        f"subtype cone of {f.declared!r} mixes persist-only "
                        f"and volatile-allocatable classes: {f.reason}",
                        declared=f.declared))
            elif include_open and f.classification == "closed":
                out.append(make_diagnostic(
                    "ESP105", where,
                    f"certified closed via cone of {f.declared!r}",
                    declared=f.declared))
        if include_open:
            for name in sorted(self.analyzed_classes & self.persistable):
                if name in self.persist_only:
                    continue
                out.append(make_diagnostic(
                    "ESP104", name,
                    "persistable class is outside the persist-only set; "
                    "its instances may live in DRAM"))
        return sorted(out, key=sort_key)

    def summary(self) -> dict:
        return {
            "analyzed_classes": len(self.analyzed_classes),
            "fields": len(self.fields),
            "closed": len(self.by_classification("closed")),
            "escaping": len(self.by_classification("escaping")),
            "open": len(self.by_classification("open")),
            "closed_classes": self.closed_classes,
            "persist_only": sorted(self.persist_only),
        }

    def to_dict(self) -> dict:
        return {
            "fields": [f.to_dict() for f in self.fields],
            "summary": self.summary(),
        }


# ----------------------------------------------------------------------
# Cone computation
# ----------------------------------------------------------------------
def _subclass_cones(klasses: Sequence[Klass]) -> Dict[str, Set[str]]:
    """Map every class name to its subtype cone (itself + subclasses).

    Names, not Klass identities: the DRAM Klass and its NVM alias twin
    share a name and are the same logical class (paper §3.2).
    """
    parents: Dict[str, Optional[str]] = {}
    for k in klasses:
        if k.is_array:
            continue
        sup = k.super_klass.name if k.super_klass else None
        parents.setdefault(k.name, sup)
    cones: Dict[str, Set[str]] = {name: {name} for name in parents}
    for name in parents:
        anc = parents.get(name)
        while anc is not None:
            cones.setdefault(anc, {anc}).add(name)
            anc = parents.get(anc)
    return cones


def _cone_of(declared: str, cones: Dict[str, Set[str]]) -> Set[str]:
    if declared in _PRIM_ARRAY_NAMES:
        return {declared}
    if declared.startswith("[L") and declared.endswith(";"):
        element = declared[2:-1]
        return {f"[L{name};" for name in _cone_of(element, cones)}
    return set(cones.get(declared, {declared}))


# ----------------------------------------------------------------------
# The analysis proper
# ----------------------------------------------------------------------
def analyze_closure(klasses: Sequence[Klass],
                    persistable: Optional[Iterable[str]] = None,
                    persist_only: Optional[Iterable[str]] = None
                    ) -> ClosureReport:
    """Classify every REF field of every persistable class in *klasses*.

    ``persistable`` — classes allowed into the PJH at all (defaults to
    the always-allowed runtime classes; callers with a session should go
    through :func:`analyze_vm`, which adds the session's
    ``persistent_type`` registry).  ``persist_only`` — the subset
    asserted to be allocated *exclusively* with ``pnew`` (the
    always-allowed classes are **not** assumed persist-only since
    ``new``/``new_string`` create them freely in DRAM).
    """
    if persistable is None:
        persistable_set = set(safety._ALWAYS_ALLOWED)
    else:
        persistable_set = set(persistable)
    persist_only_set = set(persist_only or ())
    # persist-only (allocated exclusively with pnew) implies persistable.
    persistable_set |= persist_only_set

    cones = _subclass_cones(klasses)
    fields: List[FieldClassification] = []
    analyzed: Set[str] = set()
    seen: Set[FieldKey] = set()

    def classify(holder: str, fname: str, declared: Optional[str]) -> None:
        if (holder, fname) in seen:
            return  # DRAM Klass and NVM alias twin describe the same field
        seen.add((holder, fname))
        if declared is None or declared == OBJECT_KLASS_NAME:
            fields.append(FieldClassification(
                holder, fname, declared, "open",
                "no declared type narrower than java.lang.Object"))
            return
        cone = _cone_of(declared, cones)
        in_persistable = {n for n in cone
                          if n in persistable_set
                          or n in _PRIM_ARRAY_NAMES
                          or n.startswith("[L")}
        if not in_persistable:
            fields.append(FieldClassification(
                holder, fname, declared, "escaping",
                f"no persistable class in cone({declared})",
                tuple(sorted(cone))))
            return
        outside = sorted(n for n in cone
                         if n not in persist_only_set
                         and n not in _PRIM_ARRAY_NAMES)
        # A ref-array cone member [LS; is persist-only iff S is.
        outside = [n for n in outside
                   if not (n.startswith("[L") and n.endswith(";")
                           and n[2:-1] in persist_only_set)]
        if not outside:
            fields.append(FieldClassification(
                holder, fname, declared, "closed",
                f"cone({declared}) is persist-only",
                tuple(sorted(cone))))
        else:
            fields.append(FieldClassification(
                holder, fname, declared, "open",
                f"cone members outside persist-only: {', '.join(outside)}",
                tuple(sorted(cone))))

    for k in klasses:
        if k.is_array:
            if k.element_kind is not FieldKind.REF:
                continue
            if k.name not in persistable_set \
                    and not k.name.startswith("[L"):
                continue
            analyzed.add(k.name)
            declared = k.element_klass.name if k.element_klass else None
            classify(k.name, ARRAY_FIELD, declared)
            continue
        if k.name not in persistable_set:
            continue
        analyzed.add(k.name)
        for f in k.all_fields:
            if f.kind is not FieldKind.REF:
                continue
            classify(k.name, f.name, f.declared)

    return ClosureReport(fields, persistable_set, persist_only_set, analyzed)


def analyze_vm(vm, persistable: Optional[Iterable[str]] = None,
               persist_only: Optional[Iterable[str]] = None) -> ClosureReport:
    """Run the closure analysis over a live VM's metaspace.

    The DRAM metaspace is the source of truth for the class graph; NVM
    alias twins describe the same logical classes and are skipped by the
    per-name dedup inside :func:`analyze_closure`.
    """
    klasses = [vm.metaspace.lookup(name) for name in vm.metaspace.names()]
    registry = getattr(vm, "persistent_types", None)
    annotated: Set[str] = registry.names() if registry is not None else set()
    if persistable is None:
        allowed: Set[str] = set()
        for service in getattr(vm, "_services", {}).values():
            policy = getattr(service, "safety", None)
            allowed |= set(getattr(policy, "allowed", ()) or ())
        persistable = annotated | set(safety._ALWAYS_ALLOWED) | allowed
    if persist_only is None:
        persist_only = annotated
    return analyze_closure(klasses, persistable, persist_only)
