"""JPA — the coarse-grained persistence baseline (paper §2.1).

A DataNucleus-like provider: annotated entity classes, an enhancer that
injects StateManagers, an EntityManager with ACID transactions, and an
object->SQL transformation layer feeding an embedded H2-style database.
Figure 4 measures this stack's commit breakdown; PJO (:mod:`repro.pjo`)
replaces its flush path while keeping the API.
"""

from repro.jpa.annotations import (
    Basic,
    Column,
    ElementCollection,
    Id,
    ManyToOne,
    entity,
    state_of,
)
from repro.jpa.entity_manager import (
    AbstractEntityManager,
    EntityTransaction,
    JpaEntityManager,
)
from repro.jpa.model import EntityMeta, meta_of
from repro.jpa.state_manager import LifecycleState, StateManager

__all__ = [
    "AbstractEntityManager",
    "Basic",
    "Column",
    "ElementCollection",
    "EntityMeta",
    "EntityTransaction",
    "Id",
    "JpaEntityManager",
    "LifecycleState",
    "ManyToOne",
    "StateManager",
    "entity",
    "meta_of",
    "state_of",
]
