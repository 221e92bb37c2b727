"""DBPersistable objects: entities materialised in PJH (paper §5).

"Espresso provides a new lightweight abstraction called DBPersistable to
support all objects actually stored in NVM.  A DBPersistable object
resembles the Persistable one except that the control fields related to PJO
providers are stripped."

A DBPersistable here is an ordinary ``pnew``-allocated object whose Klass
is synthesised from the entity metadata: every column, collection and
reference becomes one reference field (values are boxed so SQL NULL maps to
a null reference).  Conversion helpers box/unbox against the column's SQL
type.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.errors import IllegalArgumentException
from repro.h2.values import SqlType
from repro.jpa.model import EntityMeta
from repro.jpa.sql_mapping import schema_columns
from repro.runtime.klass import (
    FieldKind,
    Klass,
    OBJECT_KLASS_NAME,
    STRING_KLASS_NAME,
    field,
)
from repro.runtime.objects import ObjectHandle

_BOXED_LONG = "db.BoxedLong"
_BOXED_DOUBLE = "db.BoxedDouble"


def _ensure_class(jvm, name: str, fields) -> Klass:
    existing = jvm.vm.metaspace.lookup(name)
    return existing if existing is not None else jvm.define_class(name, fields)


def boxed_long_klass(jvm) -> Klass:
    return _ensure_class(jvm, _BOXED_LONG, [field("value", FieldKind.INT)])


def boxed_double_klass(jvm) -> Klass:
    return _ensure_class(jvm, _BOXED_DOUBLE, [field("value", FieldKind.FLOAT)])


def dbp_class_name(meta: EntityMeta) -> str:
    return f"db.{meta.root.table}"


# One INT field holds a null bitmap: bit i set <=> schema column i is NULL.
# Primitive columns store inline (a DBPerson keeps its data fields in its
# own layout, Figure 14); only VARCHAR columns, collections and references
# are separate objects.
NULLS_FIELD = "__nulls"


def _kind_for(sql_type: SqlType) -> FieldKind:
    if sql_type is SqlType.VARCHAR:
        return FieldKind.REF
    if sql_type is SqlType.DOUBLE:
        return FieldKind.FLOAT
    return FieldKind.INT


def reference_field_targets(meta: EntityMeta) -> dict:
    """Reference column -> declared DBPersistable class of its target.

    DBPersistable classes are one-per-root-table with no subclasses, so
    the declared type is exact — which is what lets the static closure
    analysis prove reference columns closed.
    """
    from repro.jpa.model import _REGISTRY, meta_of, resolve_target_meta
    targets = {}
    for cls in _REGISTRY:
        if issubclass(cls, meta.root.cls):
            for name, ref in meta_of(cls).references:
                targets[name] = f"db.{resolve_target_meta(ref).root.table}"
    return targets


def column_bit_index(meta: EntityMeta, name: str) -> int:
    for i, (column_name, *_rest) in enumerate(schema_columns(meta)):
        if column_name == name:
            return i
    raise IllegalArgumentException(f"no schema column {name!r}")


def dbp_klass(jvm, meta: EntityMeta) -> Klass:
    """The synthesised DBPersistable class for an entity's root table.

    Field order: the null bitmap, every root-table column (inheritance
    union + DTYPE; primitives inline, VARCHAR and references as refs),
    then collections (refs to persistent arrays).
    """
    ref_targets = reference_field_targets(meta)
    fields = [field(NULLS_FIELD, FieldKind.INT)]
    for name, sql_type, *_rest in schema_columns(meta):
        if name in ref_targets:
            fields.append(field(name, FieldKind.REF,
                                declared=ref_targets[name]))
        else:
            kind = _kind_for(sql_type)
            # VARCHAR columns hold boxed strings, exactly.
            declared = (STRING_KLASS_NAME if kind is FieldKind.REF
                        else None)
            fields.append(field(name, kind, declared=declared))
    # Collections are persistent Object[] of mixed boxed values: open by
    # construction, so stores into them keep the full barrier.
    fields.extend(field(coll_name, FieldKind.REF,
                        declared=f"[L{OBJECT_KLASS_NAME};")
                  for coll_name, _c in _collections(meta))
    return _ensure_class(jvm, dbp_class_name(meta), fields)


def set_dbp_column(jvm, dbp: ObjectHandle, meta: EntityMeta, name: str,
                   sql_type: SqlType, value: Any,
                   heap: Optional[str] = None, fence: bool = True) -> None:
    """Store one column value into the DBPersistable, null bitmap included."""
    bit = 1 << column_bit_index(meta, name)
    nulls = jvm.get_field(dbp, NULLS_FIELD)
    if value is None:
        jvm.set_field(dbp, NULLS_FIELD, nulls | bit)
        kind = jvm.vm.klass_of(dbp).field_descriptor(name).kind
        jvm.set_field(dbp, name, None if kind is FieldKind.REF else 0)
        return
    if nulls & bit:
        jvm.set_field(dbp, NULLS_FIELD, nulls & ~bit)
    if sql_type is SqlType.VARCHAR:
        jvm.set_field(dbp, name, box_value(jvm, value, heap, fence=fence))
    elif sql_type is SqlType.DOUBLE:
        jvm.set_field(dbp, name, float(value))
    else:
        jvm.set_field(dbp, name, int(value))


def get_dbp_column(jvm, dbp: ObjectHandle, meta: EntityMeta, name: str,
                   sql_type: SqlType) -> Any:
    bit = 1 << column_bit_index(meta, name)
    if jvm.get_field(dbp, NULLS_FIELD) & bit:
        return None
    raw = jvm.get_field(dbp, name)
    if sql_type is SqlType.VARCHAR:
        return jvm.read_string(raw)
    if sql_type is SqlType.BOOLEAN:
        return bool(raw)
    if sql_type is SqlType.DOUBLE:
        return float(raw)
    return int(raw)


def _collections(meta: EntityMeta):
    """Collection fields across the whole hierarchy (root + subclasses)."""
    from repro.jpa.model import _REGISTRY, meta_of
    root = meta.root
    seen = set()
    out = []
    for cls in sorted(_REGISTRY, key=lambda c: c.__name__):
        if issubclass(cls, root.cls):
            for name, coll in meta_of(cls).collections:
                if name not in seen:
                    seen.add(name)
                    out.append((name, coll))
    return out


def _flush_lines(jvm, handle: ObjectHandle, fence: bool) -> None:
    service = jvm.vm.service_of(handle.address)
    size = jvm.vm.access.object_words(handle.address)
    service.flush_words(handle.address, size, fence=fence)


def box_value(jvm, value: Any, heap: Optional[str] = None,
              fence: bool = True) -> Optional[ObjectHandle]:
    """Box a Python value into a pnew'd object (None -> null).

    With ``fence=False`` the content lines are enqueued in the heap's
    persist domain but the epoch stays open — the caller batches boxes and
    commits one epoch (single sfence, overlapping lines deduped) at the
    end, the pattern the paper's coarse-grained ``Object.flush``
    recommends (§3.5).
    """
    if value is None:
        return None
    if isinstance(value, bool) or isinstance(value, int):
        boxed = jvm.pnew(boxed_long_klass(jvm), heap)
        jvm.set_field(boxed, "value", int(value))
        _flush_lines(jvm, boxed, fence)
        return boxed
    if isinstance(value, float):
        boxed = jvm.pnew(boxed_double_klass(jvm), heap)
        jvm.set_field(boxed, "value", value)
        _flush_lines(jvm, boxed, fence)
        return boxed
    if isinstance(value, str):
        string = jvm.pnew_string(value, heap)
        chars = jvm.get_field(string, "value")
        _flush_lines(jvm, chars, fence=False)
        _flush_lines(jvm, string, fence)
        return string
    raise IllegalArgumentException(f"cannot box {value!r}")


def unbox_value(jvm, handle: Optional[ObjectHandle],
                sql_type: SqlType) -> Any:
    if handle is None:
        return None
    if sql_type is SqlType.VARCHAR:
        return jvm.read_string(handle)
    raw = jvm.get_field(handle, "value")
    if sql_type is SqlType.BOOLEAN:
        return bool(raw)
    if sql_type is SqlType.DOUBLE:
        return float(raw)
    return int(raw)


def box_collection(jvm, elements, heap: Optional[str] = None,
                   fence: bool = True) -> Optional[ObjectHandle]:
    """Box a list of basic values into a persistent Object[]."""
    if elements is None:
        return None
    array = jvm.pnew_array(jvm.vm.object_klass, len(elements), heap)
    for i, element in enumerate(elements):
        jvm.array_set(array, i, box_value(jvm, element, heap, fence=False))
    _flush_lines(jvm, array, fence)
    return array


def unbox_collection(jvm, handle: Optional[ObjectHandle],
                     element_type: SqlType) -> List[Any]:
    if handle is None:
        return []
    length = jvm.array_length(handle)
    return [unbox_value(jvm, jvm.array_get(handle, i), element_type)
            for i in range(length)]
