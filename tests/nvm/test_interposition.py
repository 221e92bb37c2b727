"""Interposition pin: ``clflush``/``write``/``write_block`` are looked up
on the device *instance* at every call.

The crash harness (``repro.faults.harness``) and several crash-sweep
tests plant their bombs by assigning ``device.clflush = guarded`` (or
``write``/``write_block``) on a live device.  That only works while no
layer above caches the bound method — a tempting "optimisation" for
``PersistDomain``, ``AddressSpace`` and ``HeapAccess``, which sit on the
hot path.  Everything here is built *before* the replacements go in.
"""

import numpy as np

from repro.nvm.clock import Clock
from repro.nvm.device import LINE_WORDS, AddressSpace, NvmDevice
from repro.nvm.persist import PersistDomain
from repro.runtime.metaspace import KlassRegistry
from repro.runtime.objects import HeapAccess

BASE = 1024


def test_replacements_assigned_late_are_hit():
    device = NvmDevice(512, Clock())
    domain = PersistDomain(device)
    space = AddressSpace()
    space.map(BASE, device)
    access = HeapAccess(space, KlassRegistry())
    # Warm every cache a layer could be tempted to keep.
    space.write(BASE + 1, 1)
    access.set_field_word(BASE, 2, 2)
    domain.persist(0, 3)

    calls = []
    originals = (device.clflush, device.write, device.write_block)

    def clflush(offset, count=1, asynchronous=False):
        calls.append(("clflush", offset, count, asynchronous))
        originals[0](offset, count, asynchronous=asynchronous)

    def write(offset, value):
        calls.append(("write", offset, value))
        originals[1](offset, value)

    def write_block(offset, values):
        calls.append(("write_block", offset, len(values)))
        originals[2](offset, values)

    device.clflush, device.write, device.write_block = (
        clflush, write, write_block)

    space.write(BASE + 8, 11)
    access.set_field_word(BASE + 16, 1, 12)
    space.write_block(BASE + 24, np.arange(3, dtype=np.int64))
    access.copy_object(BASE + 24, BASE + 40, 3)
    for offset in (8, 17, 24, 40):
        domain.flush(offset)
    assert domain.commit_epoch() == 4
    assert calls == [
        ("write", 8, 11),
        ("write", 17, 12),
        ("write_block", 24, 3),
        ("write_block", 40, 3),
        # lines 1-3 coalesce, line 5 stands alone
        ("clflush", 1 * LINE_WORDS, 3 * LINE_WORDS, True),
        ("clflush", 5 * LINE_WORDS, LINE_WORDS, True),
    ]
    assert device.durable_word(8) == 11 and device.durable_word(17) == 12

    # Removing the replacements restores the class's own methods.
    for name in ("clflush", "write", "write_block"):
        del device.__dict__[name]
    seen = len(calls)
    space.write(BASE + 8, 13)
    domain.persist(8)
    assert len(calls) == seen and device.durable_word(8) == 13
