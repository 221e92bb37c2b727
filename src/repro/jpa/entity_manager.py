"""The EntityManager: JPA's programming model (paper Figure 3).

``em.getTransaction().begin(); em.persist(p); em.getTransaction().commit()``
works verbatim (modulo Python spelling).  The abstract base implements
lifecycle bookkeeping — the managed-object list, identity map, cascades —
and providers implement the four flush primitives.  The JPA provider here
flushes through SQL text executed by the embedded engine;
:mod:`repro.pjo.provider` flushes
``DBPersistable`` objects straight into PJH.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

from repro.errors import IllegalArgumentException, IllegalStateException
from repro.h2.engine import Database
from repro.nvm.clock import Clock

from repro.jpa.annotations import attach_state, state_of
from repro.jpa.model import (
    DISCRIMINATOR,
    EntityMeta,
    meta_by_name,
    meta_of,
    resolve_target_meta,
)
from repro.jpa import sql_mapping
from repro.jpa.sql_mapping import NS_PER_SQL_CHAR_FACTOR
from repro.jpa.state_manager import LifecycleState, StateManager


class EntityTransaction:
    """JPA's EntityTransaction facade."""

    def __init__(self, em: "AbstractEntityManager") -> None:
        self._em = em

    def begin(self) -> None:
        self._em._begin()

    def commit(self) -> None:
        self._em._commit()

    def rollback(self) -> None:
        self._em._rollback()


# Provider-side bookkeeping cost per entity operation (StateManager
# attachment, management-list upkeep, lifecycle checks) in nanoseconds of
# simulated CPU time.  Both providers pay it — it is the "Other" share of
# the paper's Figure 4 breakdown.
_EM_BOOKKEEPING_NS = 1800.0


class AbstractEntityManager:
    """Provider-independent EntityManager skeleton."""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self._tx_active = False
        self._managed: List[Any] = []       # insertion order matters
        self._identity: Dict[Tuple[str, Any], Any] = {}

    def _charge_bookkeeping(self) -> None:
        self.clock.charge(_EM_BOOKKEEPING_NS)

    # ------------------------------------------------------------------
    # Public JPA API
    # ------------------------------------------------------------------
    def get_transaction(self) -> EntityTransaction:
        return EntityTransaction(self)

    # Java spelling, as in the paper's listings.
    getTransaction = get_transaction

    def persist(self, instance: Any) -> None:
        if not self._tx_active:
            raise IllegalStateException("persist() outside a transaction")
        meta = meta_of(type(instance))
        state = state_of(instance)
        if state is not None and state.state in (LifecycleState.NEW,
                                                 LifecycleState.MANAGED):
            return  # already managed: no-op, like JPA
        self._charge_bookkeeping()
        state = StateManager(instance, meta)
        state.state = LifecycleState.NEW
        attach_state(instance, state)
        self._managed.append(instance)
        key = (meta.root.table, getattr(instance, meta.pk_field))
        self._identity[key] = instance
        # Cascade to referenced entities (NodeTest's linked structures).
        for name, ref in meta.references:
            target = getattr(instance, name)
            if target is not None:
                target_state = state_of(target)
                if target_state is None or target_state.state in (
                        LifecycleState.TRANSIENT, LifecycleState.DETACHED):
                    self.persist(target)

    def find(self, cls: Type, pk_value: Any) -> Optional[Any]:
        meta = meta_of(cls)
        key = (meta.root.table, pk_value)
        cached = self._identity.get(key)
        if cached is not None:
            return cached
        self._charge_bookkeeping()
        return self._load(meta, pk_value)

    def find_by(self, cls: Type, field_name: str, value: Any) -> List[Any]:
        """All entities of *cls* whose persistent field equals *value*.

        A JPQL-style "SELECT e FROM E e WHERE e.field = ?" — the JPA
        provider pushes it down as SQL, the PJO provider scans its
        object table.  Results are managed instances.
        """
        meta = meta_of(cls)
        if field_name not in meta.all_field_names():
            raise IllegalArgumentException(
                f"{cls.__name__} has no persistent field {field_name!r}")
        return self._find_by(meta, field_name, value)

    def find_all(self, cls: Type) -> List[Any]:
        """Every entity of *cls* (and its subclasses), managed."""
        return self._find_all(meta_of(cls))

    def count(self, cls: Type) -> int:
        """Number of stored entities for the class hierarchy's table."""
        return self._count(meta_of(cls))

    def query(self, cls: Type, predicate: str,
              params: Sequence[Any] = ()) -> List[Any]:
        """Entity query with a WHERE-clause predicate (JPQL-lite).

        ``em.query(Person, "phone = ? AND id > ?", ("+44", 3))`` — the JPA
        provider pushes the predicate down as SQL; the PJO provider
        evaluates it over the stored objects with identical semantics.
        Results are managed instances of *cls*.
        """
        from repro.jpa.query import parse_predicate, validate_fields
        meta = meta_of(cls)
        expr = parse_predicate(predicate)
        validate_fields(meta, expr)
        return [instance for instance in self._query(meta, expr, params)
                if isinstance(instance, cls)]

    def _query(self, meta: EntityMeta, expr, params) -> List[Any]:
        raise NotImplementedError

    def merge(self, instance: Any) -> Any:
        """JPA's em.merge: copy a detached entity's state onto the managed
        instance for its id (loading or creating one as needed) and return
        the managed instance."""
        if not self._tx_active:
            raise IllegalStateException("merge() outside a transaction")
        meta = meta_of(type(instance))
        pk_value = getattr(instance, meta.pk_field)
        managed = self.find(type(instance), pk_value)
        if managed is None:
            self.persist(instance)
            return instance
        if managed is instance:
            return managed
        for field_name in meta.all_field_names():
            if field_name == meta.pk_field:
                continue
            setattr(managed, field_name, getattr(instance, field_name))
        return managed

    def remove(self, instance: Any) -> None:
        if not self._tx_active:
            raise IllegalStateException("remove() outside a transaction")
        state = state_of(instance)
        if state is None or state.state is LifecycleState.TRANSIENT:
            raise IllegalArgumentException("remove() on an unmanaged object")
        state.state = LifecycleState.REMOVED
        if instance not in self._managed:
            self._managed.append(instance)

    def clear(self) -> None:
        """Detach everything (JPA's em.clear()).

        Detached entities keep their state: deduplicated fields are
        materialised back into the instances (see StateManager.detach)."""
        for instance in self._managed:
            state = state_of(instance)
            if state is not None:
                state.detach()
        self._managed.clear()
        self._identity.clear()

    # ------------------------------------------------------------------
    # Transaction plumbing
    # ------------------------------------------------------------------
    def _begin(self) -> None:
        if self._tx_active:
            raise IllegalStateException("transaction already active")
        self._tx_active = True
        self._backend_begin()

    def _commit(self) -> None:
        if not self._tx_active:
            raise IllegalStateException("commit without begin")
        self._flush()
        self._backend_commit()
        self._tx_active = False

    def _rollback(self) -> None:
        if not self._tx_active:
            raise IllegalStateException("rollback without begin")
        self._backend_rollback()
        # Discard pending state: NEW objects return to transient.
        for instance in list(self._managed):
            state = state_of(instance)
            if state is not None and state.state is LifecycleState.NEW:
                state.state = LifecycleState.TRANSIENT
                self._managed.remove(instance)
                self._identity.pop(
                    (state.meta.root.table,
                     getattr(instance, state.meta.pk_field)), None)
            elif state is not None:
                state.clear_dirty()
        self._tx_active = False

    def _flush(self) -> None:
        """Write every pending change through the provider primitives."""
        for instance in list(self._managed):
            state = state_of(instance)
            if state is None:
                continue
            if state.state is LifecycleState.NEW:
                self._flush_insert(instance, state)
                state.state = LifecycleState.MANAGED
                state.clear_dirty()
            elif state.state is LifecycleState.MANAGED and state.dirty_fields:
                self._flush_update(instance, state)
                state.clear_dirty()
            elif state.state is LifecycleState.REMOVED:
                self._flush_delete(instance, state)
                self._managed.remove(instance)
                self._identity.pop(
                    (state.meta.root.table,
                     getattr(instance, state.meta.pk_field)), None)

    # ------------------------------------------------------------------
    # Provider primitives
    # ------------------------------------------------------------------
    def _backend_begin(self) -> None:
        raise NotImplementedError

    def _backend_commit(self) -> None:
        raise NotImplementedError

    def _backend_rollback(self) -> None:
        raise NotImplementedError

    def _flush_insert(self, instance: Any, state: StateManager) -> None:
        raise NotImplementedError

    def _flush_update(self, instance: Any, state: StateManager) -> None:
        raise NotImplementedError

    def _flush_delete(self, instance: Any, state: StateManager) -> None:
        raise NotImplementedError

    def _load(self, meta: EntityMeta, pk_value: Any) -> Optional[Any]:
        raise NotImplementedError

    def _find_by(self, meta: EntityMeta, field_name: str,
                 value: Any) -> List[Any]:
        raise NotImplementedError

    def _find_all(self, meta: EntityMeta) -> List[Any]:
        raise NotImplementedError

    def _count(self, meta: EntityMeta) -> int:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _materialize(self, meta: EntityMeta, field_values: Dict[str, Any],
                     concrete_name: Optional[str]) -> Any:
        """Build a managed instance from raw field values."""
        self._charge_bookkeeping()
        cls = meta.cls
        if concrete_name and concrete_name != cls.__name__:
            cls = meta_by_name(concrete_name).cls
        actual_meta = meta_of(cls)
        instance = cls.__new__(cls)
        state = StateManager(instance, actual_meta)
        state.state = LifecycleState.MANAGED
        attach_state(instance, state)
        key = (actual_meta.root.table, field_values[actual_meta.pk_field])
        self._identity[key] = instance  # before refs: breaks cycles
        self._managed.append(instance)
        for name, _col in actual_meta.columns:
            instance.__dict__[name] = field_values.get(name)
        for name, _coll in actual_meta.collections:
            instance.__dict__[name] = field_values.get(name, [])
        for name, ref in actual_meta.references:
            fk = field_values.get(name)
            if fk is None:
                instance.__dict__[name] = None
            else:
                target_meta = resolve_target_meta(ref)
                instance.__dict__[name] = self.find(target_meta.cls, fk)
        state.clear_dirty()
        return instance


class JpaEntityManager(AbstractEntityManager):
    """The DataNucleus-like provider: objects -> SQL -> H2.

    Every flush primitive splits its cost between the ``transformation``
    scope (SQL text generation, result-row conversion) and the ``database``
    scope (statement execution) so the Figure 4 / Figure 17 breakdowns fall out
    of measurement.
    """

    def __init__(self, database: Database) -> None:
        super().__init__(database.clock)
        self.database = database
        self._cpu_ns = database.cpu_op_ns

    # -- schema -------------------------------------------------------------
    def create_schema(self, entity_classes) -> None:
        for cls in entity_classes:
            meta = meta_of(cls)
            with self.clock.scope("transformation"):
                ddl = sql_mapping.create_table_sql(meta)
                self._charge_sql(ddl)
            with self.clock.scope("database"):
                self.database.execute(ddl)
            for field_name, _collection in meta.collections:
                with self.clock.scope("transformation"):
                    ddl = sql_mapping.collection_table_sql(meta, field_name)
                    self._charge_sql(ddl)
                with self.clock.scope("database"):
                    self.database.execute(ddl)
                # The join table's foreign key to its owner, indexed as H2
                # backs every foreign key, so a collection load is a probe.
                table = meta.collection_table(field_name)
                self._create_index(f"idx_{table}_owner", table, "owner_id")
            for field_name, _ref in meta.references:
                self._create_index(f"idx_{meta.root.table}_{field_name}",
                                   meta.root.table,
                                   sql_mapping.ident(field_name))

    def _create_index(self, name: str, table: str, column: str) -> None:
        ddl = f"CREATE INDEX {name} ON {table} ({column})"
        with self.clock.scope("transformation"):
            self._charge_sql(ddl)
        with self.clock.scope("database"):
            self.database.execute(ddl)

    def _charge_sql(self, sql: str) -> None:
        self.clock.charge(len(sql) * self._cpu_ns * NS_PER_SQL_CHAR_FACTOR)

    def _run(self, sql: str):
        with self.clock.scope("database"):
            return self.database.execute(sql)

    # -- transactions ---------------------------------------------------------
    def _backend_begin(self) -> None:
        with self.clock.scope("database"):
            self.database.begin()

    def _backend_commit(self) -> None:
        with self.clock.scope("database"):
            self.database.commit()

    def _backend_rollback(self) -> None:
        with self.clock.scope("database"):
            self.database.rollback()

    # -- flush primitives ---------------------------------------------------------
    def _flush_insert(self, instance, state) -> None:
        meta = state.meta
        with self.clock.scope("transformation"):
            sql = sql_mapping.insert_sql(meta, instance)
            self._charge_sql(sql)
        self._run(sql)
        for field_name, _collection in meta.collections:
            elements = getattr(instance, field_name) or []
            with self.clock.scope("transformation"):
                sql = sql_mapping.collection_insert_sql(
                    meta, field_name, getattr(instance, meta.pk_field),
                    elements)
                if sql:
                    self._charge_sql(sql)
            if sql:
                self._run(sql)

    def _flush_update(self, instance, state) -> None:
        meta = state.meta
        with self.clock.scope("transformation"):
            sql = sql_mapping.update_sql(meta, instance)
            self._charge_sql(sql)
        self._run(sql)
        pk_value = getattr(instance, meta.pk_field)
        for field_name, _collection in meta.collections:
            if field_name not in state.dirty_fields:
                continue
            with self.clock.scope("transformation"):
                delete = sql_mapping.collection_delete_sql(
                    meta, field_name, pk_value)
                insert = sql_mapping.collection_insert_sql(
                    meta, field_name, pk_value,
                    getattr(instance, field_name) or [])
                self._charge_sql(delete)
                if insert:
                    self._charge_sql(insert)
            self._run(delete)
            if insert:
                self._run(insert)

    def _flush_delete(self, instance, state) -> None:
        meta = state.meta
        pk_value = getattr(instance, meta.pk_field)
        for field_name, _collection in meta.collections:
            with self.clock.scope("transformation"):
                sql = sql_mapping.collection_delete_sql(
                    meta, field_name, pk_value)
                self._charge_sql(sql)
            self._run(sql)
        with self.clock.scope("transformation"):
            sql = sql_mapping.delete_sql(meta, pk_value)
            self._charge_sql(sql)
        self._run(sql)

    # -- queries ------------------------------------------------------------------
    def _pks_for(self, meta: EntityMeta, where_sql: str) -> list:
        root = meta.root
        with self.clock.scope("transformation"):
            sql = (f"SELECT {sql_mapping.ident(root.pk_field)} "
                   f"FROM {root.table}{where_sql}")
            self._charge_sql(sql)
        return [row[0] for row in self._run(sql).rows]

    def _instances_for_pks(self, meta: EntityMeta, pks) -> list:
        found = []
        for pk_value in pks:
            instance = self.find(meta.cls, pk_value)
            if instance is not None and isinstance(instance, meta.cls):
                found.append(instance)
        return found

    def _find_by(self, meta: EntityMeta, field_name: str, value) -> list:
        from repro.h2.values import sql_literal
        with self.clock.scope("transformation"):
            predicate = (f" WHERE {sql_mapping.ident(field_name)} = "
                         f"{sql_literal(value)}")
        return self._instances_for_pks(
            meta, self._pks_for(meta, predicate))

    def _find_all(self, meta: EntityMeta) -> list:
        return self._instances_for_pks(meta, self._pks_for(meta, ""))

    def _count(self, meta: EntityMeta) -> int:
        with self.clock.scope("transformation"):
            sql = f"SELECT COUNT(*) FROM {meta.root.table}"
            self._charge_sql(sql)
        return self._run(sql).scalar()

    def _query(self, meta: EntityMeta, expr, params) -> list:
        from repro.h2.eval import render_expression
        root = meta.root
        with self.clock.scope("transformation"):
            sql = (f"SELECT {sql_mapping.ident(root.pk_field)} "
                   f"FROM {root.table} WHERE {render_expression(expr)}")
            self._charge_sql(sql)
        with self.clock.scope("database"):
            pks = [row[0] for row in self.database.execute(sql, params).rows]
        return self._instances_for_pks(meta, pks)

    # -- retrieval -------------------------------------------------------------------
    def _load(self, meta: EntityMeta, pk_value):
        with self.clock.scope("transformation"):
            sql = sql_mapping.select_sql(meta, pk_value)
            self._charge_sql(sql)
        result = self._run(sql)
        if not result.rows:
            return None
        with self.clock.scope("transformation"):
            # Convert the SQL row back into field values (the reverse
            # transformation the paper's Figure 4 also measures).
            row = dict(zip(result.columns, result.rows[0]))
            self.clock.charge(len(result.columns) * self._cpu_ns * 4)
            concrete = row.get(DISCRIMINATOR)
        instance = self._materialize(meta, row, concrete)
        actual_meta = meta_of(type(instance))
        for field_name, _collection in actual_meta.collections:
            with self.clock.scope("transformation"):
                sql = sql_mapping.collection_select_sql(
                    actual_meta, field_name, pk_value)
                self._charge_sql(sql)
            rows = self._run(sql).rows
            instance.__dict__[field_name] = [value for (value,) in rows]
        return instance
