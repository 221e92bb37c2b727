"""Memory-safety levels for NVM->DRAM pointers (paper §3.4).

PJH decouples the persistence of an object from that of its fields: a
persistent object may hold a reference into DRAM, which is garbage after a
reboot.  The paper offers four levels; we implement them as pluggable
policies on a heap instance:

* **User-guaranteed** — nothing is checked; fastest loads (flat curve in
  Figure 18), undefined behaviour if the user dereferences a stale pointer.
* **Zeroing** — at load time the whole data heap is scanned and every
  pointer that leaves the PJH is nullified, so a careless access raises
  ``NullPointerException`` instead of corrupting memory.  Load time grows
  linearly with object count (Figure 18's Zero curve).
* **Type-based** — only classes registered as persistent may be allocated
  with ``pnew``, and stores of volatile references into persistent objects
  are rejected outright (NV-Heaps-style invariant).
"""

from __future__ import annotations

import enum
from typing import Iterable, Optional, Set

from repro.errors import UnsafePointerError
from repro.runtime.klass import FieldKind, Klass


class SafetyLevel(enum.Enum):
    USER_GUARANTEED = "user-guaranteed"
    ZEROING = "zeroing"
    TYPE_BASED = "type-based"


class SafetyPolicy:
    """Behaviour hooks; the base class is the user-guaranteed level."""

    level = SafetyLevel.USER_GUARANTEED

    def scan_on_load(self) -> bool:
        return False

    def check_pnew(self, klass: Klass) -> None:
        """Veto allocation of non-persistent classes (type-based only)."""

    def check_ref_store(self, slot_address: int, value_address: int,
                        value_is_volatile: bool) -> None:
        """Veto NVM->DRAM stores (type-based only)."""


class UserGuaranteedPolicy(SafetyPolicy):
    """Paper: best performance, burden of checking on the programmer."""


class ZeroingPolicy(SafetyPolicy):
    """Paper: out-pointers nullified during a pre-load check phase."""

    level = SafetyLevel.ZEROING

    def scan_on_load(self) -> bool:
        return True


# Runtime-internal classes every type-based heap needs (immutable: the
# session/core layers carry no module-level mutable state — ESP305).
_ALWAYS_ALLOWED = frozenset({"java.lang.Object", "java.lang.String"})

#: Attribute set on Python classes decorated with :func:`persistent_type`.
_PERSISTENT_MARK = "__espresso_persistent__"


class PersistentTypeRegistry:
    """Per-session ``@persistent_type`` annotation registry (paper §3.4).

    The paper describes "a library atop Java to allow [users to define]
    classes with simple annotations, and only objects with those classes
    will be persisted into PJH".  One registry belongs to one session
    (``EspressoConfig.persistent_types``) so concurrently open sessions
    never see each other's annotations; ``restart``/``restart(crash=True)``
    carry it forward by reference, like the task registry.
    """

    def __init__(self, names: Iterable[str] = ()) -> None:
        self._names: Set[str] = set(names)

    def add(self, target):
        """Annotate a class (or class name) as persistable.  Usable as a
        decorator on Python entity classes or called with a plain
        class-name string for VM-defined classes; returns *target*.
        """
        self._names.add(_name_of(target))
        return target

    # The decorator spelling mirrors the old module-level function.
    persistent_type = add

    def __contains__(self, name: str) -> bool:
        return name in self._names

    def names(self) -> Set[str]:
        return set(self._names)


def _name_of(target) -> str:
    return target if isinstance(target, str) else target.__name__


def persistent_type(target):
    """Mark a Python class as persistable under type-based safety.

    Session-free decorator form: stamps the class with an attribute that
    :func:`is_marked_persistent` reports and that sessions pick up when
    the class is handed to ``Espresso.persistent_type`` /
    :meth:`PersistentTypeRegistry.add`.
    Registering a plain class-name string requires a session —
    use ``jvm.persistent_type("Name")`` or a
    :class:`PersistentTypeRegistry` directly, since a bare string has no
    class object to carry the mark and a global registry would leak
    annotations across concurrently open sessions.
    """
    if isinstance(target, str):
        raise TypeError(
            "persistent_type(name_string) needs a session registry: use "
            "jvm.persistent_type(name) or PersistentTypeRegistry.add(name)")
    setattr(target, _PERSISTENT_MARK, True)
    return target


def is_marked_persistent(target) -> bool:
    """True for classes decorated with :func:`persistent_type`."""
    return bool(getattr(target, _PERSISTENT_MARK, False))


class TypeBasedPolicy(SafetyPolicy):
    """Paper: a library restricting persistence to annotated classes.

    Guarantees no pointer within PJH points out of it, "a similar safety
    level to NV-Heaps".  Allowed classes come from the per-policy allow
    list plus the owning session's :class:`PersistentTypeRegistry`.
    """

    level = SafetyLevel.TYPE_BASED

    def __init__(self, allowed: Optional[Iterable[str]] = None,
                 registry: Optional[PersistentTypeRegistry] = None) -> None:
        self.allowed: Set[str] = set(allowed or ())
        self.registry = registry if registry is not None \
            else PersistentTypeRegistry()

    def allow(self, name: str) -> None:
        self.allowed.add(name)

    def check_pnew(self, klass: Klass) -> None:
        # Arrays are vetted through their element class: a PJH array of an
        # unannotated class would otherwise only be caught store-by-store
        # in check_ref_store, after the array itself is already durable.
        # Primitive arrays hold no pointers; untyped REF arrays fall back
        # to java.lang.Object (checked per store).
        while klass.is_array:
            if klass.name in self.allowed:
                return  # the array type itself was explicitly allowed
            if klass.element_kind is not FieldKind.REF:
                return
            if klass.element_klass is None:
                return
            klass = klass.element_klass
        name = klass.name
        if name in self.allowed or name in _ALWAYS_ALLOWED \
                or name in self.registry:
            return
        raise UnsafePointerError(
            f"type-based safety: {name!r} is not annotated as persistent")

    def check_ref_store(self, slot_address: int, value_address: int,
                        value_is_volatile: bool) -> None:
        if value_is_volatile:
            raise UnsafePointerError(
                f"type-based safety: storing a volatile reference "
                f"({value_address:#x}) into persistent memory is forbidden")


def policy_for(level: SafetyLevel,
               registry: Optional[PersistentTypeRegistry] = None
               ) -> SafetyPolicy:
    if level is SafetyLevel.USER_GUARANTEED:
        return UserGuaranteedPolicy()
    if level is SafetyLevel.ZEROING:
        return ZeroingPolicy()
    return TypeBasedPolicy(registry=registry)
