"""Every JPAB lookup on H2-JPA is an index probe, never a table walk.

DataNucleus over H2 backs each foreign key with an index, so the paper's
``SELECT element FROM CollectionPerson_phones WHERE owner_id = ?`` is a
probe.  These guards fail if any JPAB statement falls back to the full
scan in ``Database._matching_rows`` (counted as ``h2.rows_scanned``), or
if loading one collection owner costs more device reads when more owners
are resident.
"""

import pytest

from repro.jpab import ALL_TESTS, COLLECTION_TEST, CrudDriver, make_jpa_em
from repro.jpab.model import CollectionPerson
from repro.nvm.clock import Clock
from repro.obs import Observatory

CI_COUNT = 30  # Fig. 16's CI size


@pytest.mark.parametrize("test", ALL_TESTS, ids=lambda t: t.name)
def test_jpab_crud_on_jpa_scans_no_rows(test):
    obs = Observatory()
    em = make_jpa_em(Clock(), test.entities, obs=obs)
    driver = CrudDriver(em, test, CI_COUNT)
    assert driver.create() == CI_COUNT
    assert driver.retrieve() == CI_COUNT
    assert driver.update() == CI_COUNT
    assert driver.delete() == CI_COUNT
    assert obs.metrics.counter("h2.rows_scanned") == 0


def _find_reads(owners):
    em = make_jpa_em(Clock(), COLLECTION_TEST.entities)
    CrudDriver(em, COLLECTION_TEST, owners).create()
    em.clear()
    stats = em.database.device.stats
    before = stats.reads
    person = em.find(CollectionPerson, 5)
    assert len(person.phones) == 3
    return stats.reads - before


def test_collection_find_reads_do_not_grow_with_resident_owners():
    assert _find_reads(10) == _find_reads(60)
