"""Every flush, fence and flush+fence name in ``CALL_KINDS`` does what the
static verifier credits it with.

ESP5xx classifies calls by name alone, so a method whose body drifts from
its entry (a ``persist_all`` that flushes but never fences) is credited
with a durability it does not provide.  Each case here calls the real
method with an event log attached and checks the recorded events against
the entry's kind.
"""

import pytest

from repro.analysis.events import CALL_KINDS, FENCE, FLUSH, FLUSH_FENCE
from repro.api import Espresso
from repro.core.persistent_heap import PersistentHeap
from repro.nvm.clock import Clock
from repro.nvm.device import NvmDevice
from repro.nvm.persist import PersistDomain, PersistEventLog
from repro.runtime.klass import FieldKind, field

#: Names only the source lint reads (an x86 mnemonic on a device
#: receiver is ESP302 wherever it appears); nothing in the tree defines
#: them, which ``test_every_kind_has_a_case`` keeps true.
LINT_ONLY = {"sfence"}


def _on_device(call):
    device = NvmDevice(64, Clock())
    device.write(8, 1)  # line 1 is dirty
    device.event_log = PersistEventLog()
    call(device)
    return device.event_log.events, False


def _on_domain(call):
    device = NvmDevice(64, Clock())
    domain = PersistDomain(device)
    device.write(8, 1)
    domain.flush(8)  # so a fence has an epoch to commit
    device.event_log = PersistEventLog()
    call(domain)
    return device.event_log.events, domain.pending_lines > 0


def _on_session(call, tmp_path):
    jvm = Espresso(tmp_path)
    heap = jvm.create_heap("h", 1 << 20)
    handle = jvm.pnew(jvm.define_class("T", [field("value", FieldKind.INT)]))
    array = jvm.pnew_array(FieldKind.INT, 4)
    jvm.set_field(handle, "value", 5)
    jvm.array_set(array, 0, 7)
    log = heap.enable_event_log()
    call(jvm, heap, handle, array)
    heap.disable_event_log()
    return log.events, heap.persist.pending_lines > 0


CASES = {
    ("clflush", "NvmDevice"): lambda tmp: _on_device(lambda d: d.clflush(8)),
    ("fence", "NvmDevice"): lambda tmp: _on_device(lambda d: d.fence()),
    ("persist_all", "NvmDevice"):
        lambda tmp: _on_device(lambda d: d.persist_all()),
    ("flush", "PersistDomain"): lambda tmp: _on_domain(lambda p: p.flush(16)),
    ("commit_epoch", "PersistDomain"):
        lambda tmp: _on_domain(lambda p: p.commit_epoch()),
    ("fence", "PersistDomain"): lambda tmp: _on_domain(lambda p: p.fence()),
    ("persist", "PersistDomain"):
        lambda tmp: _on_domain(lambda p: p.persist(16)),
    ("fence", "PersistentHeap"):
        lambda tmp: _on_session(lambda j, heap, h, a: heap.fence(), tmp),
    ("flush_object", "Espresso"):
        lambda tmp: _on_session(lambda j, heap, h, a: j.flush_object(h), tmp),
    ("flush_field", "Espresso"): lambda tmp: _on_session(
        lambda j, heap, h, a: j.flush_field(h, "value"), tmp),
    ("flush_array_element", "Espresso"): lambda tmp: _on_session(
        lambda j, heap, h, a: j.flush_array_element(a, 0), tmp),
    ("flush_reachable", "Espresso"): lambda tmp: _on_session(
        lambda j, heap, h, a: j.flush_reachable(h), tmp),
}

_SURFACES = (NvmDevice, PersistDomain, PersistentHeap, Espresso)


def test_every_kind_has_a_case():
    durable = {name for name, kind in CALL_KINDS.items()
               if kind in (FLUSH, FENCE, FLUSH_FENCE)}
    assert {name for name, _ in CASES} == durable - LINT_ONLY
    for surface in _SURFACES:
        for name in LINT_ONLY:
            assert not hasattr(surface, name), (surface, name)
        for name in durable - LINT_ONLY:
            if callable(getattr(surface, name, None)):
                assert (name, surface.__name__) in CASES, (surface, name)


@pytest.mark.parametrize("name,surface", sorted(CASES),
                         ids=[f"{s}.{n}" for n, s in sorted(CASES)])
def test_call_records_its_kind(name, surface, tmp_path):
    events, still_pending = CASES[(name, surface)](tmp_path)
    kinds = [event[0] for event in events if event[0] != "store"]
    kind = CALL_KINDS[name]
    if kind == FLUSH:
        # Issued or queued for the next fence, never fenced here.
        assert "fence" not in kinds, kinds
        assert "flush" in kinds or still_pending, kinds
    elif kind == FENCE:
        assert kinds and kinds[-1] == "fence", kinds
    else:
        assert "flush" in kinds and kinds[-1] == "fence", kinds
        assert not still_pending, kinds
