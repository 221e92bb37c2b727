"""jpab_crud — the paper's headline (Fig. 16): JPAB on H2-JPA and H2-PJO.

The four JPAB tests x Create/Retrieve/Update/Delete, once through the
JPA provider (objects -> SQL -> H2 WAL -> NVM) and once through PJO
(objects -> DBPersistable on PJH).  It is the only workload where
``jpab -> jpa/pjo -> h2 -> nvm`` all do work.

Seed: the id range, and the order ids are visited in every phase.
Oracle: a Python dict model of every row; each retrieved, updated and
about-to-be-deleted row is compared with it, the two providers are
compared with each other, and deleted ids must be gone.
"""

from __future__ import annotations

from repro.jpab import ALL_TESTS, Node, make_jpa_em, make_pjo_em
from repro.nvm.clock import Clock
from repro.obs import NULL_OBS

COUNT = 60          # entities per test and provider (fig16 dies at 200:
PRELOAD = 30        # "WAL full"), plus rows the body never touches
BATCH = 10          # entities per transaction, as JPAB does

PROVIDERS = ("jpa", "pjo")
_FIELDS = ("id", "first_name", "last_name", "phone", "salary", "department",
           "bonus", "name", "phones")


def _row(entity) -> dict:
    """The persistent state of one entity as plain Python values."""
    row = {name: getattr(entity, name) for name in _FIELDS
           if hasattr(entity, name)}
    if "phones" in row:
        row["phones"] = list(row["phones"])
    if isinstance(entity, Node):
        row["next"] = entity.next.id if entity.next is not None else None
    return row


def _batches(ids):
    for start in range(0, len(ids), BATCH):
        yield ids[start:start + BATCH]


def _persist(em, test, ids, alive) -> None:
    """Persist ``test.make(i)`` for every id, BATCH per transaction.

    Every entity is also appended to *alive* and kept until the repetition
    ends: ``PjoEntityManager`` keys its twin map on ``id(instance)`` and
    ``clear()`` does not empty it, so an entity freed after ``clear()``
    whose address is reused by a new one makes ``persist`` skip the new
    row ("already flushed via a cascade").  Which addresses get reused
    differs from run to run; holding the references keeps ids unique.
    """
    for batch in _batches(ids):
        tx = em.get_transaction()
        tx.begin()
        previous = None  # NodeTest chains do not cross transactions
        for i in batch:
            entity = test.make(i)
            if isinstance(entity, Node):
                entity.next = previous
                previous = entity
            em.persist(entity)
            alive.append(entity)
        tx.commit()


def setup(rep):
    count = rep.n(COUNT, floor=BATCH)
    base = rep.rng.randrange(100, 900) * 1000   # always six digits
    ids = [base + i for i in range(count)]
    cells, alive = [], []
    for test in ALL_TESTS:
        for provider in PROVIDERS:
            clock = Clock()
            obs = rep.observatory() or NULL_OBS
            if provider == "jpa":
                em = make_jpa_em(clock, test.entities, obs=obs)
                rep.track(clock=clock, device=em.database.device)
            else:
                em = make_pjo_em(clock, test.entities,
                                 rep.dir / f"{test.name}-pjo", obs=obs)
                rep.track(jvm=em.jvm)
            _persist(em, test, [base + count + i
                                for i in range(rep.n(PRELOAD))], alive)
            em.clear()
            cells.append((test, provider, em))
    order = {phase: rep.rng.sample(ids, len(ids))
             for phase in ("create", "retrieve", "update")}
    # NodeTest chains a batch (node k -> node k-1).  Deleting whole chains,
    # newest node first, never leaves a reference to a deleted row, whose
    # meaning the two providers do not share.
    chains = list(_batches(order["create"]))
    order["delete"] = [i for chain in rep.rng.sample(chains, len(chains))
                       for i in reversed(chain)]
    return {"cells": cells, "order": order, "seen": {}, "alive": alive,
            "created": {t.name: _model(t, order["create"], mutated=False)
                        for t in ALL_TESTS},
            "updated": {t.name: _model(t, order["create"], mutated=True)
                        for t in ALL_TESTS}}


def _model(test, create_order, mutated: bool) -> dict:
    """id -> expected row after Create (and, *mutated*, after Update)."""
    model = {}
    for batch in _batches(create_order):
        previous = None
        for i in batch:
            entity = test.make(i)
            if mutated:
                test.mutate(entity, i)
            row = _row(entity)
            if "next" in row:
                row["next"] = previous
                previous = i
            model[i] = row
    return model


def _create(rep, state, test, provider, em) -> None:
    _persist(em, test, state["order"]["create"], state["alive"])


def _retrieve(rep, state, test, provider, em) -> None:
    model = state["created"][test.name]
    seen = state["seen"].setdefault((test.name, provider), {})
    em.clear()  # force real loads, not identity-map hits
    for i in state["order"]["retrieve"]:
        entity = em.find(test.find_class, i)
        got = _row(entity) if entity is not None else None
        seen[i] = got
        rep.check_equal(got, model[i], "retrieve", test.name, provider, i)


def _update(rep, state, test, provider, em) -> None:
    em.clear()
    for batch in _batches(state["order"]["update"]):
        tx = em.get_transaction()
        tx.begin()
        for i in batch:
            entity = em.find(test.find_class, i)
            if rep.check(entity is not None, "update: row missing",
                         test.name, provider, i):
                test.mutate(entity, i)
        tx.commit()


def _delete(rep, state, test, provider, em) -> None:
    model = state["updated"][test.name]
    em.clear()
    ids = state["order"]["delete"]
    for batch in _batches(ids):
        tx = em.get_transaction()
        tx.begin()
        for i in batch:
            entity = em.find(test.find_class, i)
            got = _row(entity) if entity is not None else None
            if rep.check_equal(got, model[i], "updated row", test.name,
                               provider, i):
                em.remove(entity)
        tx.commit()
    em.clear()
    for i in ids:
        rep.check(em.find(test.find_class, i) is None,
                  "row survived delete", test.name, provider, i)


_PHASES = (("create", _create), ("retrieve", _retrieve),
           ("update", _update), ("delete", _delete))


def body(rep, state) -> None:
    for phase, action in _PHASES:
        for provider in PROVIDERS:
            with rep.leg(f"jpab.{phase}.{provider}"):
                for test, cell_provider, em in state["cells"]:
                    if cell_provider == provider:
                        action(rep, state, test, provider, em)


def verify(rep, state) -> None:
    for test in ALL_TESTS:
        jpa = state["seen"][(test.name, "jpa")]
        pjo = state["seen"][(test.name, "pjo")]
        rep.check_equal(pjo, jpa, "PJO rows differ from JPA rows", test.name)
