"""The PJO provider: JPA's API, PJH's data path (paper §5).

"The programmer can still use em.persist(p) to persist a Person object into
NVM.  However, when real persistent work begins, data in p will be directly
shipped to the backend database.  The PJO provider still helps manage the
persistent objects, but the SQL transformation phase is removed."

:class:`PjoEntityManager` subclasses the same abstract EntityManager as the
JPA provider — identical annotations, identical transaction API (backward
compatibility, §5) — but its flush primitives materialise
``DBPersistable`` objects in PJH and hand them to
:class:`repro.h2.pjo_backend.DBPersistableBackend`.  The §5 optimisations
are implemented and switchable:

* **field-level tracking** — only dirty fields are shipped on update;
* **data deduplication** — after commit the entity's volatile fields are
  dropped and reads are served from the persisted copy (copy-on-write on
  the next store).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.errors import IllegalArgumentException
from repro.h2.pjo_backend import DBPersistableBackend
from repro.h2.values import SqlType
from repro.jpa.annotations import state_of
from repro.jpa.entity_manager import AbstractEntityManager
from repro.jpa.model import (
    DISCRIMINATOR,
    EntityMeta,
    meta_by_name,
    meta_of,
    resolve_target_meta,
)
from repro.jpa.sql_mapping import schema_columns
from repro.jpa.state_manager import LifecycleState, StateManager
from repro.runtime.objects import ObjectHandle

from repro.pjo.dbpersistable import (
    NULLS_FIELD,
    box_collection,
    box_value,
    column_bit_index,
    dbp_klass,
    get_dbp_column,
    set_dbp_column,
    unbox_collection,
    unbox_value,
)


class PjoEntityManager(AbstractEntityManager):
    """EntityManager whose backend is PJH instead of SQL."""

    def __init__(self, jvm, heap: Optional[str] = None,
                 field_tracking: bool = True,
                 deduplication: bool = True) -> None:
        super().__init__(jvm.clock)
        self.jvm = jvm
        self.heap = heap
        self.backend = DBPersistableBackend(jvm, heap)
        self.field_tracking = field_tracking
        self.deduplication = deduplication
        # id(entity) -> (entity, its DBPersistable handle).  The entry
        # holds the entity itself so its id cannot be recycled by a new
        # object while it is still mapped.
        self._dbp_of: Dict[int, Tuple[Any, ObjectHandle]] = {}

    # ------------------------------------------------------------------
    # Schema: synthesise DBPersistable Klasses and backend tables
    # ------------------------------------------------------------------
    def create_schema(self, entity_classes) -> None:
        for cls in entity_classes:
            meta = meta_of(cls)
            dbp_klass(self.jvm, meta)
            with self.clock.scope("database"):
                self.backend.ensure_table(meta.root.table)

    # ------------------------------------------------------------------
    # Transactions: delegate to the backend's logging
    # ------------------------------------------------------------------
    def _backend_begin(self) -> None:
        with self.clock.scope("database"):
            self.backend.begin()

    def _backend_commit(self) -> None:
        with self.clock.scope("database"):
            self.backend.commit()

    def _backend_rollback(self) -> None:
        with self.clock.scope("database"):
            self.backend.rollback()

    # ------------------------------------------------------------------
    # Value plumbing
    # ------------------------------------------------------------------
    def _schema_of(self, meta: EntityMeta):
        return schema_columns(meta)

    def _dbp_for_instance(self, instance: Any) -> Optional[ObjectHandle]:
        entry = self._dbp_of.get(id(instance))
        return None if entry is None else entry[1]

    def _map_dbp(self, instance: Any, dbp: ObjectHandle) -> None:
        self._dbp_of[id(instance)] = (instance, dbp)

    def clear(self) -> None:
        super().clear()
        self._dbp_of.clear()

    def _build_dbp(self, instance: Any, meta: EntityMeta) -> ObjectHandle:
        """Create the DBPersistable twin of *instance* (Figure 14b/c)."""
        jvm = self.jvm
        klass = dbp_klass(jvm, meta)
        dbp = jvm.pnew(klass, self.heap)
        references = dict(meta.references)
        collections = dict(meta.collections)
        for field_name, col in meta.columns:
            set_dbp_column(jvm, dbp, meta, field_name, col.sql_type,
                           getattr(instance, field_name), self.heap,
                           fence=False)
        if any(name == DISCRIMINATOR
               for name, *_ in self._schema_of(meta)):
            set_dbp_column(jvm, dbp, meta, DISCRIMINATOR, SqlType.VARCHAR,
                           type(instance).__name__, self.heap, fence=False)
        for field_name, collection in collections.items():
            jvm.set_field(dbp, field_name,
                          box_collection(jvm, getattr(instance, field_name),
                                         self.heap, fence=False))
        for field_name, ref in references.items():
            target = getattr(instance, field_name)
            jvm.set_field(dbp, field_name,
                          self._dbp_for_instance(target)
                          if target is not None else None)
        jvm.flush_object(dbp)
        return dbp

    def _write_field(self, dbp: ObjectHandle, meta: EntityMeta,
                     instance: Any, field_name: str) -> None:
        jvm = self.jvm
        columns = dict(meta.columns)
        collections = dict(meta.collections)
        references = dict(meta.references)
        if field_name in columns:
            value = getattr(instance, field_name)
            sql_type = columns[field_name].sql_type
            bit = 1 << column_bit_index(meta, field_name)
            nulls = jvm.get_field(dbp, NULLS_FIELD)
            new_nulls = (nulls | bit) if value is None else (nulls & ~bit)
            if value is None:
                kind = jvm.vm.klass_of(dbp).field_descriptor(field_name).kind
                from repro.runtime.klass import FieldKind
                payload = None if kind is FieldKind.REF else 0
            elif sql_type is SqlType.VARCHAR:
                payload = box_value(jvm, value, self.heap)
            elif sql_type is SqlType.DOUBLE:
                payload = float(value)
            else:
                payload = int(value)
            with self.clock.scope("database"):
                self.backend.update_field(dbp, field_name, payload)
                if new_nulls != nulls:
                    self.backend.update_field(dbp, NULLS_FIELD, new_nulls)
            return
        if field_name in collections:
            boxed = box_collection(jvm, getattr(instance, field_name),
                                   self.heap)
        elif field_name in references:
            target = getattr(instance, field_name)
            boxed = (self._dbp_for_instance(target)
                     if target is not None else None)
        else:
            raise IllegalArgumentException(
                f"{meta.cls.__name__} has no persistent field {field_name!r}")
        with self.clock.scope("database"):
            self.backend.update_field(dbp, field_name, boxed)

    # ------------------------------------------------------------------
    # Flush primitives
    # ------------------------------------------------------------------
    def _flush_insert(self, instance: Any, state: StateManager) -> None:
        meta = state.meta
        # Cascaded targets must have their DBPersistable first; the managed
        # list is in persist order, but references can point forward, so we
        # build targets on demand.
        for field_name, _ref in meta.references:
            target = getattr(instance, field_name)
            if target is not None and self._dbp_for_instance(target) is None:
                target_state = state_of(target)
                if target_state is not None and \
                        target_state.state is LifecycleState.NEW:
                    self._flush_insert(target, target_state)
                    target_state.state = LifecycleState.MANAGED
                    target_state.clear_dirty()
        if self._dbp_for_instance(instance) is not None:
            return  # already flushed via a cascade
        dbp = self._build_dbp(instance, meta)
        self._map_dbp(instance, dbp)
        pk_value = getattr(instance, meta.pk_field)
        with self.clock.scope("database"):
            self.backend.persist_in_table(meta.root.table, pk_value, dbp)
        if self.deduplication:
            self._enable_dedup(instance, state, dbp)

    def _flush_update(self, instance: Any, state: StateManager) -> None:
        meta = state.meta
        dbp = self._dbp_for_instance(instance)
        if dbp is None:
            # Entity loaded in this EM: its twin is the stored DBPersistable.
            with self.clock.scope("database"):
                dbp = self.backend.retrieve(
                    meta.root.table, getattr(instance, meta.pk_field))
            self._map_dbp(instance, dbp)
        fields = (state.dirty_bitmap if self.field_tracking
                  else set(meta.all_field_names()))
        for field_name in sorted(fields):
            self._write_field(dbp, meta, instance, field_name)
        if self.deduplication:
            self._enable_dedup(instance, state, dbp)

    def _flush_delete(self, instance: Any, state: StateManager) -> None:
        meta = state.meta
        with self.clock.scope("database"):
            self.backend.delete(meta.root.table,
                                getattr(instance, meta.pk_field))
        self._dbp_of.pop(id(instance), None)

    # ------------------------------------------------------------------
    # Queries: object-table scans, still no SQL
    # ------------------------------------------------------------------
    def _all_dbps(self, meta: EntityMeta):
        table = self.backend.ensure_table(meta.root.table)
        for _key, dbp in table.items():
            yield dbp

    def _instance_of_dbp(self, meta: EntityMeta, dbp) -> Any:
        """Materialise through the identity map (no duplicates)."""
        pk_value = get_dbp_column(self.jvm, dbp, meta, meta.pk_field,
                                  meta.pk_column.sql_type)
        cached = self._identity.get((meta.root.table, pk_value))
        if cached is not None:
            return cached
        return self._materialize_from_dbp(meta, dbp)

    def _find_by(self, meta: EntityMeta, field_name: str, value: Any) -> list:
        jvm = self.jvm
        schema_names = {name for name, *_ in self._schema_of(meta)}
        found = []
        with self.clock.scope("database"):
            candidates = [
                dbp for dbp in self._all_dbps(meta)
                if field_name in schema_names
                and get_dbp_column(jvm, dbp, meta, field_name,
                                   self._column_type(meta, field_name))
                == value]
        for dbp in candidates:
            instance = self._instance_of_dbp(meta, dbp)
            if isinstance(instance, meta.cls):
                found.append(instance)
        return found

    def _column_type(self, meta: EntityMeta, field_name: str) -> SqlType:
        for name, sql_type, *_rest in self._schema_of(meta):
            if name == field_name:
                return sql_type
        raise IllegalArgumentException(field_name)

    def _find_all(self, meta: EntityMeta) -> list:
        with self.clock.scope("database"):
            dbps = list(self._all_dbps(meta))
        return [instance for instance in
                (self._instance_of_dbp(meta, dbp) for dbp in dbps)
                if isinstance(instance, meta.cls)]

    def _count(self, meta: EntityMeta) -> int:
        with self.clock.scope("database"):
            return self.backend.count(meta.root.table)

    def _query(self, meta: EntityMeta, expr, params) -> list:
        """Evaluate the predicate over the stored objects — the same SQL
        semantics (shared evaluator), minus the SQL."""
        from repro.h2.eval import ExpressionEvaluator
        jvm = self.jvm
        evaluator = ExpressionEvaluator(self.clock)
        types = {name: sql_type
                 for name, sql_type, *_rest in self._schema_of(meta)}
        reference_targets = {name: resolve_target_meta(ref)
                             for name, ref in self._all_references(meta)}
        matches = []
        with self.clock.scope("database"):
            for dbp in self._all_dbps(meta):
                def resolve(name: str, _dbp=dbp) -> object:
                    target_meta = reference_targets.get(name)
                    if target_meta is not None:
                        target = jvm.get_field(_dbp, name)
                        if target is None:
                            return None
                        # FK semantics: a reference column compares by the
                        # target's primary key, as it would in SQL.
                        return get_dbp_column(
                            jvm, target, target_meta, target_meta.pk_field,
                            target_meta.pk_column.sql_type)
                    return get_dbp_column(jvm, _dbp, meta, name, types[name])

                if evaluator.evaluate(expr, resolve, params) is True:
                    matches.append(dbp)
        return [self._instance_of_dbp(meta, dbp) for dbp in matches]

    def _all_references(self, meta: EntityMeta):
        from repro.jpa.model import _REGISTRY, meta_of
        seen = set()
        for cls in _REGISTRY:
            if issubclass(cls, meta.root.cls):
                for name, ref in meta_of(cls).references:
                    if name not in seen:
                        seen.add(name)
                        yield name, ref

    # ------------------------------------------------------------------
    # Retrieval: no SQL, no transformation — follow object references
    # ------------------------------------------------------------------
    def _load(self, meta: EntityMeta, pk_value: Any):
        with self.clock.scope("database"):
            dbp = self.backend.retrieve(meta.root.table, pk_value)
        if dbp is None:
            return None
        return self._materialize_from_dbp(meta, dbp)

    def _materialize_from_dbp(self, meta: EntityMeta,
                              dbp: ObjectHandle) -> Any:
        jvm = self.jvm
        schema = {name for name, *_ in self._schema_of(meta)}
        concrete = None
        if DISCRIMINATOR in schema:
            concrete = get_dbp_column(jvm, dbp, meta, DISCRIMINATOR,
                                      SqlType.VARCHAR)
        actual_meta = meta if concrete is None else meta_by_name(concrete)
        field_values: Dict[str, Any] = {}
        for field_name, col in actual_meta.columns:
            field_values[field_name] = get_dbp_column(
                jvm, dbp, meta, field_name, col.sql_type)
        for field_name, coll in actual_meta.collections:
            field_values[field_name] = unbox_collection(
                jvm, jvm.get_field(dbp, field_name), coll.element_type)
        for field_name, ref in actual_meta.references:
            target_dbp = jvm.get_field(dbp, field_name)
            if target_dbp is None:
                field_values[field_name] = None
            else:
                target_meta = resolve_target_meta(ref)
                target_pk = get_dbp_column(
                    jvm, target_dbp, target_meta, target_meta.pk_field,
                    target_meta.pk_column.sql_type)
                field_values[field_name] = target_pk
        instance = self._materialize(actual_meta, field_values, concrete)
        self._map_dbp(instance, dbp)
        state = state_of(instance)
        if self.deduplication and state is not None:
            self._enable_dedup(instance, state, dbp)
        return instance

    # ------------------------------------------------------------------
    # Data deduplication (§5, Figure 14d)
    # ------------------------------------------------------------------
    def _enable_dedup(self, instance: Any, state: StateManager,
                      dbp: ObjectHandle) -> None:
        meta = state.meta
        columns = dict(meta.columns)
        collections = dict(meta.collections)
        jvm = self.jvm

        def reader(field_name: str) -> Any:
            if field_name in columns:
                return get_dbp_column(jvm, dbp, meta, field_name,
                                      columns[field_name].sql_type)
            if field_name in collections:
                return unbox_collection(
                    jvm, jvm.get_field(dbp, field_name),
                    collections[field_name].element_type)
            raise IllegalArgumentException(field_name)

        dedupable = list(columns) + list(collections)
        state.enable_dedup(reader, dedupable)
