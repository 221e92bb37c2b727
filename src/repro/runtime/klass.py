"""Klass metadata: the per-class layout information of the object model.

Paper §3.1: "each object should hold a class pointer to its class-related
metadata, which is called a Klass in OpenJDK ... Klasses are very important
because they store the layout information for objects.  If the class pointer
in an object is corrupted, or the metadata in Klass is lost, the data within
the object will become uninterpretable."

A :class:`Klass` here records a name, an optional superclass, the field
layout (one 64-bit word per field, superclass fields first), and where the
Klass itself *resides* — the DRAM metaspace or a PJH Klass segment.  The
alias-Klass relation (§3.2) links a DRAM Klass and its NVM twin.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import IllegalArgumentException, NoSuchFieldException
from repro.runtime import layout


class FieldKind(enum.Enum):
    """How a one-word field slot is interpreted."""

    INT = "int"        # any Java integral type, stored as int64
    FLOAT = "float"    # Java float/double, stored as IEEE-754 bit pattern
    REF = "ref"        # reference: absolute word address, 0 == null

    @property
    def is_reference(self) -> bool:
        return self is FieldKind.REF


class Residence(enum.Enum):
    """Where a Klass' metadata lives."""

    DRAM = "dram"      # the ordinary Meta Space
    NVM = "nvm"        # a PJH Klass segment


@dataclass(frozen=True)
class FieldDescriptor:
    """One declared field: a name and an interpretation for its word.

    ``declared`` optionally names the field's declared reference type (a
    class or array-class name).  The runtime never enforces it — stores
    stay dynamically typed, like the interpreter — but the static
    persist-safety analyzer (:mod:`repro.analysis.closure`) uses it to
    classify REF fields as closed/escaping/open, exactly the way javac's
    verified field types feed NV-Heaps-style static checking.  ``None``
    means "java.lang.Object" (nothing provable).
    """

    name: str
    kind: FieldKind
    declared: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise IllegalArgumentException("field name must be non-empty")
        if self.declared is not None and self.kind is not FieldKind.REF:
            raise IllegalArgumentException(
                f"field {self.name!r}: only REF fields carry a declared type")


def field(name: str, kind: FieldKind = FieldKind.REF,
          declared: Optional[str] = None) -> FieldDescriptor:
    """Convenience constructor used by class-definition call sites."""
    return FieldDescriptor(name, kind, declared)


class Klass:
    """Layout + identity metadata for one class (or array class).

    Instances are immutable after construction except for :attr:`address`
    (assigned when registered with a metaspace or Klass segment) and the
    alias link.
    """

    def __init__(self, name: str,
                 fields: Sequence[FieldDescriptor] = (),
                 super_klass: Optional["Klass"] = None,
                 residence: Residence = Residence.DRAM,
                 is_array: bool = False,
                 element_kind: Optional[FieldKind] = None,
                 element_klass: Optional["Klass"] = None) -> None:
        if not name:
            raise IllegalArgumentException("class name must be non-empty")
        if is_array and element_kind is None:
            raise IllegalArgumentException("array klass needs an element kind")
        if not is_array and element_kind is not None:
            raise IllegalArgumentException("only array klasses have element kinds")
        if element_klass is not None and element_kind is not FieldKind.REF:
            raise IllegalArgumentException("element klass implies a reference array")
        self.name = name
        self.super_klass = super_klass
        self.residence = residence
        self.is_array = is_array
        self.element_kind = element_kind
        self.element_klass = element_klass
        self.address: int = 0  # assigned at registration
        self.alias: Optional["Klass"] = None  # the twin in the other memory

        own_names = [f.name for f in fields]
        if len(set(own_names)) != len(own_names):
            raise IllegalArgumentException(f"duplicate field names in {name}")
        self.own_fields: Tuple[FieldDescriptor, ...] = tuple(fields)

        inherited: List[FieldDescriptor] = list(super_klass.all_fields) if super_klass else []
        inherited_names = {f.name for f in inherited}
        for f in self.own_fields:
            if f.name in inherited_names:
                raise IllegalArgumentException(
                    f"field {f.name!r} of {name} shadows an inherited field")
        self.all_fields: Tuple[FieldDescriptor, ...] = tuple(inherited + list(self.own_fields))
        self._offsets = {
            f.name: layout.HEADER_WORDS + i for i, f in enumerate(self.all_fields)
        }

    # ------------------------------------------------------------------
    # Layout queries
    # ------------------------------------------------------------------
    @property
    def instance_words(self) -> int:
        """Words occupied by a (non-array) instance, header included."""
        if self.is_array:
            raise IllegalArgumentException(
                f"{self.name} is an array klass; size depends on length")
        return layout.HEADER_WORDS + len(self.all_fields)

    def array_words(self, length: int) -> int:
        if not self.is_array:
            raise IllegalArgumentException(f"{self.name} is not an array klass")
        if length < 0:
            raise IllegalArgumentException(f"negative array length {length}")
        return layout.ARRAY_HEADER_WORDS + length

    def field_offset(self, name: str) -> int:
        try:
            return self._offsets[name]
        except KeyError:
            raise NoSuchFieldException(f"{self.name} has no field {name!r}") from None

    def field_descriptor(self, name: str) -> FieldDescriptor:
        for f in self.all_fields:
            if f.name == name:
                return f
        raise NoSuchFieldException(f"{self.name} has no field {name!r}")

    def ref_field_offsets(self) -> Tuple[int, ...]:
        """Header-relative word offsets of every reference field."""
        return tuple(layout.HEADER_WORDS + i
                     for i, f in enumerate(self.all_fields)
                     if f.kind.is_reference)

    # ------------------------------------------------------------------
    # Type relations
    # ------------------------------------------------------------------
    def is_alias_of(self, other: "Klass") -> bool:
        """Two Klasses are aliases when they are logically the same class
        stored in different places (paper §3.2)."""
        return self is not other and self.alias is other

    def link_alias(self, other: "Klass") -> None:
        if self.name != other.name:
            raise IllegalArgumentException(
                f"cannot alias {self.name} with {other.name}")
        self.alias = other
        other.alias = self

    def __repr__(self) -> str:
        where = self.residence.value
        return f"Klass({self.name!r}@{self.address:#x}, {where})"


# ----------------------------------------------------------------------
# Array klass naming (JVM descriptor style)
# ----------------------------------------------------------------------
_PRIM_DESCRIPTOR = {FieldKind.INT: "J", FieldKind.FLOAT: "D"}


def array_klass_name(element: "Klass | FieldKind") -> str:
    if isinstance(element, Klass):
        return f"[L{element.name};"
    return f"[{_PRIM_DESCRIPTOR[element]}"


OBJECT_KLASS_NAME = "java.lang.Object"
STRING_KLASS_NAME = "java.lang.String"
CHAR_ARRAY_KLASS_NAME = array_klass_name(FieldKind.INT)


def java_string_hash(text: str) -> int:
    """Java's ``String.hashCode()``: ``31 * h + c`` over the characters,
    wrapped to a signed 32-bit int.  This is what the ``hash`` word of a
    ``java.lang.String`` holds — never Python's ``hash(text)``, which
    varies with ``PYTHONHASHSEED`` and would make durable images differ
    between processes."""
    h = 0
    for ch in text:
        h = (31 * h + ord(ch)) & 0xFFFF_FFFF
    return h - (1 << 32) if h >= (1 << 31) else h
