"""The flattened memory path against the straightforward reference model.

``repro.nvm``'s per-word path (``MemoryDevice.read``/``write``,
``NvmDevice.clflush``/``fence``, ``Clock.charge``/``scope``/``divert``,
``AddressSpace.mapping_at``, ``PersistDomain.flush``/``commit_epoch``) is
hand-inlined for host speed.  ``tests/nvm/reference_model.py`` keeps the
one-small-method-per-step bodies it replaced.  Both run the same seeded
op script here and must agree on everything a simulation result is made
of: the clock (bit-exact, also under ``scaled(1.1)`` where float sums
are order-dependent), the category breakdown, ``DeviceStats``, LRU
order, dirty/unfenced sets, the recorded ``PersistEventLog``, live
contents and the SHA-256 of the durable image — under all three fault
modes, across a crash.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from repro.nvm.clock import ChargeMeter, Clock
from repro.nvm.device import AddressSpace, DramDevice, FaultMode, NvmDevice
from repro.nvm.latency import DEFAULT_LATENCY
from repro.nvm.persist import PersistDomain, PersistEventLog
from tests.nvm.reference_model import (RefAddressSpace, RefClock,
                                       RefDramDevice, RefNvmDevice,
                                       RefPersistDomain)

DRAM_BASE, DRAM_WORDS = 64, 512
NVM_BASE, NVM_WORDS = 4096, 1021       # not a multiple of 8: short last line
CACHE_LINES = 16                       # small, so the script evicts
CATEGORIES = ("metadata", "data", "gc", "transaction")
N_OPS = 2500
CHECK_EVERY = 250


class StubCertificate:
    """The slice of FlushElisionCertificate that commit_epoch consumes."""

    active = True

    def __init__(self) -> None:
        self.noted = []

    def covers_domain(self, name: str) -> bool:
        return True

    def note_elided(self, flushes: int = 0, fences: int = 0) -> None:
        self.noted.append((flushes, fences))


class Rig:
    """A clock, a DRAM and an NVM device behind one address space, a
    persist domain and an event log — from production or the reference."""

    def __init__(self, reference: bool, latency, mode: str, seed: int,
                 certified: bool) -> None:
        clock_cls, dram_cls, nvm_cls, space_cls, domain_cls = (
            (RefClock, RefDramDevice, RefNvmDevice, RefAddressSpace,
             RefPersistDomain) if reference else
            (Clock, DramDevice, NvmDevice, AddressSpace, PersistDomain))
        self.clock = clock_cls()
        self.dram = dram_cls(DRAM_WORDS, self.clock, latency, name="dram")
        self.nvm = nvm_cls(NVM_WORDS, self.clock, latency, name="nvm")
        for device in (self.dram, self.nvm):
            device.CACHE_LINES = CACHE_LINES
        self.nvm.set_fault_mode(mode, seed=seed)
        self.space = space_cls()
        self.space.map(NVM_BASE, self.nvm)     # mapped out of base order
        self.space.map(DRAM_BASE, self.dram)
        self.domain = domain_cls(self.nvm, name="rig")
        self.cert = StubCertificate() if certified else None
        self.domain.elision = self.cert
        self.log = PersistEventLog()
        self.meters = [ChargeMeter(), ChargeMeter()]
        self.entered = []      # context managers entered and not yet left
        self.results = []      # every value an op returned

    def run(self, op: tuple) -> None:
        kind, args = op[0], op[1:]
        clock, nvm, space, domain = (self.clock, self.nvm, self.space,
                                     self.domain)
        if kind == "read":
            self.results.append(space.read(*args))
        elif kind == "write":
            space.write(*args)
        elif kind == "read_block":
            self.results.append(space.read_block(*args).tolist())
        elif kind == "write_block":
            space.write_block(args[0], np.array(args[1], dtype=np.int64))
        elif kind == "dev_read":
            self.results.append(nvm.read(*args))
        elif kind == "dev_write":
            nvm.write(*args)
        elif kind == "fill":
            nvm.fill(*args)
        elif kind == "dram_fill":
            self.dram.fill(*args)
        elif kind == "clflush":
            nvm.clflush(args[0], args[1], asynchronous=args[2])
        elif kind == "fence":
            nvm.fence()
        elif kind == "flush":
            self.results.append(domain.flush(*args))
        elif kind == "commit":
            self.results.append(domain.commit_epoch())
        elif kind == "persist":
            domain.persist(*args)
        elif kind == "domain_fence":
            domain.fence()
        elif kind == "charge":
            clock.charge(*args)
        elif kind == "scope":
            manager = clock.scope(args[0])
            manager.__enter__()
            self.entered.append(manager)
        elif kind == "divert":
            manager = clock.divert(self.meters[args[0]])
            manager.__enter__()
            self.entered.append(manager)
        elif kind == "leave":
            self.entered.pop().__exit__(None, None, None)
        elif kind == "settle":
            clock.charge(self.meters[args[0]].take())
        elif kind == "log":
            nvm.event_log = self.log if args[0] else None
        elif kind == "crash":
            self.dram.crash()
            nvm.crash()
        else:  # pragma: no cover - script generator bug
            raise AssertionError(kind)

    def snapshot(self) -> dict:
        nvm, dram = self.nvm, self.dram
        return {
            "now_ns": self.clock.now_ns,
            "breakdown": self.clock.breakdown(),
            "diverted": self.clock.diverted,
            "meters": [meter.ns for meter in self.meters],
            "dram_stats": dram.stats.as_dict(),
            "nvm_stats": nvm.stats.as_dict(),
            "dram_lru": list(dram._hot),
            "nvm_lru": list(nvm._hot),
            "dirty": sorted(nvm._dirty_lines),
            "unfenced": {line: snap.tolist()
                         for line, snap in sorted(nvm._unfenced.items())},
            "unfenced_lines": sorted(nvm._unfenced_lines),
            "pending": sorted(self.domain._pending),
            "events": list(self.log.events),
            "elided": None if self.cert is None else list(self.cert.noted),
            "dram_live": hashlib.sha256(dram._words.tobytes()).hexdigest(),
            "nvm_live": hashlib.sha256(nvm._words.tobytes()).hexdigest(),
            "durable": hashlib.sha256(
                nvm.durable_image().tobytes()).hexdigest(),
            "results": list(self.results),
        }


def make_script(seed: int) -> list:
    """A seeded op script: word + block ops on both devices, persistence
    ops, nested scopes and diverts, event log on and off, one crash."""
    rng = random.Random(seed)
    depth = 0
    script = [("log", True)]

    def address() -> int:
        if rng.random() < 0.35:
            return DRAM_BASE + rng.randrange(DRAM_WORDS)
        # Cluster half of the NVM traffic so lines get re-touched,
        # re-dirtied and re-enqueued; spread the rest to force evictions.
        span = 64 if rng.random() < 0.5 else NVM_WORDS
        return NVM_BASE + rng.randrange(span)

    def nvm_range(max_count: int):
        offset = rng.randrange(NVM_WORDS)
        return offset, rng.randint(1, min(max_count, NVM_WORDS - offset))

    def value() -> int:
        return rng.choice((rng.randrange(-(1 << 63), 1 << 63),
                           rng.randrange(1 << 70), rng.randrange(256)))

    for step in range(N_OPS):
        if step == N_OPS // 2:
            script.append(("crash",))
            continue
        roll = rng.random()
        if roll < 0.22:
            script.append(("read", address()))
        elif roll < 0.40:
            script.append(("write", address(), value()))
        elif roll < 0.45:
            script.append(("dev_read", rng.randrange(NVM_WORDS)))
        elif roll < 0.50:
            script.append(("dev_write", rng.randrange(NVM_WORDS), value()))
        elif roll < 0.54:
            offset, count = nvm_range(40)
            script.append(("read_block", NVM_BASE + offset, count))
        elif roll < 0.58:
            offset, count = nvm_range(40)
            script.append(("write_block", NVM_BASE + offset,
                           [rng.randrange(1 << 40) for _ in range(count)]))
        elif roll < 0.60:
            script.append(("fill", *nvm_range(30), rng.randrange(4)))
        elif roll < 0.61:
            offset = rng.randrange(DRAM_WORDS - 20)
            script.append(("dram_fill", offset, rng.randint(1, 20), 7))
        elif roll < 0.66:
            script.append(("clflush", *nvm_range(20), rng.random() < 0.5))
        elif roll < 0.69:
            script.append(("fence",))
        elif roll < 0.78:
            script.append(("flush", *nvm_range(rng.choice((1, 1, 1, 24)))))
        elif roll < 0.83:
            script.append(("commit",))
        elif roll < 0.86:
            script.append(("persist", *nvm_range(12)))
        elif roll < 0.87:
            script.append(("domain_fence",))
        elif roll < 0.90:
            script.append(("charge", rng.choice((1.5, 0.1, 37.0, 0.0)),
                           rng.choice((None, None, "database"))))
        elif roll < 0.91:
            script.append(("charge", rng.randint(1, 9) * 1.5, None))
        elif roll < 0.95 and depth < 6:
            if rng.random() < 0.8:
                # Re-entering the category already on top is legal.
                script.append(("scope", rng.choice(CATEGORIES)))
            else:
                script.append(("divert", rng.randrange(2)))
            depth += 1
        elif roll < 0.98 and depth:
            script.append(("leave",))
            depth -= 1
        elif roll < 0.99:
            script.append(("settle", rng.randrange(2)))
        else:
            script.append(("log", rng.random() < 0.5))
    script.extend([("leave",)] * depth)
    script.extend([("settle", 0), ("settle", 1), ("commit",)])
    return script


@pytest.mark.parametrize("certified", [False, True],
                         ids=["plain", "certified"])
@pytest.mark.parametrize("mode", FaultMode.ALL)
@pytest.mark.parametrize("latency", [DEFAULT_LATENCY,
                                     DEFAULT_LATENCY.scaled(1.1)],
                         ids=["default", "scaled1.1"])
@pytest.mark.parametrize("seed", [0, 1])
def test_same_script_same_everything(seed, latency, mode, certified):
    script = make_script(seed)
    assert {op[0] for op in script} >= {
        "read", "write", "read_block", "write_block", "fill", "clflush",
        "fence", "flush", "commit", "persist", "scope", "divert", "crash"}
    real = Rig(False, latency, mode, seed, certified)
    ref = Rig(True, latency, mode, seed, certified)
    for index, op in enumerate(script):
        real.run(op)
        ref.run(op)
        if index % CHECK_EVERY == 0 or op[0] == "crash":
            assert real.snapshot() == ref.snapshot(), (index, op)
    final = real.snapshot()
    assert final == ref.snapshot()
    # The script did exercise what it claims to.
    assert final["nvm_stats"]["flushes"] and final["nvm_stats"]["epochs"]
    assert final["nvm_stats"]["flushes_deduped"]
    assert len(final["breakdown"]) >= 4 and final["events"]
    if certified:
        assert final["nvm_stats"]["flushes_elided"]


def test_script_evicts_and_tears():
    """The script is only a fair witness if the LRU overflows and a TORN
    crash finds dirty lines to tear."""
    rig = Rig(True, DEFAULT_LATENCY, FaultMode.TORN, 0, False)
    dirty_at_crash = None
    for op in make_script(0):
        if op[0] == "crash":
            dirty_at_crash = len(rig.nvm._dirty_lines)
        rig.run(op)
    assert len(rig.nvm._hot) == CACHE_LINES
    assert dirty_at_crash


ERROR_OPS = [
    ("dev_read", -1),
    ("dev_read", NVM_WORDS),
    ("dev_write", -1, 5),
    ("dev_write", NVM_WORDS, 5),
    ("read_block", NVM_BASE + NVM_WORDS - 2, 3),
    ("write_block", NVM_BASE + NVM_WORDS - 1, [1, 2]),
    ("fill", NVM_WORDS - 3, 4, 0),
    ("clflush", NVM_WORDS - 1, 2, False),
    ("clflush", -8, 8, True),
    ("read", 0),                           # null
    ("read", DRAM_BASE - 1),               # below every mapping
    ("read", DRAM_BASE + DRAM_WORDS),      # gap between the mappings
    ("write", NVM_BASE + NVM_WORDS, 1),    # past the last mapping
    ("read_block", NVM_BASE - 1, 2),
    ("write_block", 1 << 40, [1]),
    ("charge", -0.5, None),
    ("charge", -1, "gc"),
]


@pytest.mark.parametrize("op", ERROR_OPS, ids=lambda op: f"{op[0]}{op[1:]}")
def test_error_paths_match(op):
    outcomes = []
    for reference in (False, True):
        rig = Rig(reference, DEFAULT_LATENCY, FaultMode.ATOMIC, 0, False)
        rig.run(("write", NVM_BASE + 3, 9))        # warm the last-hit route
        with pytest.raises(Exception) as raised:
            rig.run(op)
        rig.run(("read", NVM_BASE + 3))            # still serviceable after
        outcomes.append((type(raised.value), str(raised.value),
                         rig.snapshot()))
    assert outcomes[0] == outcomes[1]


def test_diverted_negative_charge_still_raises():
    for clock in (Clock(), RefClock()):
        meter = ChargeMeter()
        with clock.divert(meter):
            with pytest.raises(ValueError, match="negative charge: -3"):
                clock.charge(-3)
        assert meter.ns == 0.0 and not clock.diverted
