"""Registered crash sweeps: one :class:`~repro.faults.harness.Sweep` per
persistence layer, in :data:`SWEEPS` by name.

The exhaustive walks carry ``@pytest.mark.sweep`` and run via ``make
sweep`` / ``python -m repro.faults.sweep_all``; the default test selection
runs each sweep's fast stride and cap.

Layers, with the bomb kind (each builder below tells its own story):

* ``pjh_alloc_gc`` [failpoint] — persistent allocation + persistent GC
* ``pjh_alloc_buffer`` [flush] — the per-mutator allocation-buffer claim
  protocol, over freshly-reclaimed (stale-image) space
* ``h2_sql`` [flush] — the SQL engine's WAL
* ``pjhlib`` [flush] — Java-level ACID collections
* ``pcj_nvml`` [flush] — PCJ's NVML-style undo-log transactions
* ``pjo_commit`` [flush] — the PJO commit path with dedup + field tracking
* ``mixed_domains`` [flush] — PJH allocation interleaved with H2 WAL
  commits, through coalescing persist domains on separate devices
* ``resume_task`` [failpoint] — a resumable task's persistent frame stack,
  resumed after restart to a byte-identical durable image
* ``fleet_failover`` [flush, victim device only] — one shard of a fleet
  power-failed mid-traffic while its siblings keep serving
* ``concurrent_kv`` [flush] — the concurrent mutator gang hammering the
  lock-free durable map

How to add a layer.  Write a ``_<layer>()`` function returning a
``Sweep`` and list it in :data:`SWEEPS`.  A layer that lives in a PJH
session calls :func:`_pjh_sweep`, which owns the temp dir, the traced
``GC_WORKERS`` session, crash + reopen + ``load_heap``, the fsck after
every recovery and teardown; the layer states only what is its own:

* ``heap`` and ``**session`` — the heap's name, extra ``EspressoConfig``
  fields;
* ``prepare(ctx)`` — define classes, ``create_heap``, pre-sweep churn,
  hanging what the workload needs on ``ctx`` (``ctx.jvm`` is the session);
* ``workload(ctx)`` — the operations being crashed;
* ``reattach(ctx, rctx)`` — rebuild library objects over the recovered
  ``rctx.jvm`` / ``rctx.heap`` and hang them on ``rctx``;
* ``invariant(rctx, completed)`` — assert the recovered state.

A layer on another substrate (a bare ``Database``, a ``MemoryPool``, a
fleet) builds its ``Sweep`` directly from the same five callbacks.
"""

from __future__ import annotations

import functools
import hashlib
import shutil
import tempfile
import zlib
from pathlib import Path
from types import SimpleNamespace
from typing import Dict

from repro.api import Espresso
from repro.errors import ShardDownError
from repro.faults.harness import Sweep, SweepReport
from repro.fleet.directory import DIRECTORY_HEAP, shard_heap_name
from repro.fleet.router import FleetConfig, FleetRouter
from repro.h2.engine import Database
from repro.jpab.model import BasicPerson
from repro.nvm.device import FaultMode
from repro.obs import Observatory
from repro.pcj import MemoryPool, PersistentLong
from repro.pjhlib import PjhHashmap, PjhLong, PjhTransaction
from repro.pjo import PjoEntityManager
from repro.runtime.klass import FieldKind, field
from repro.tools.fsck import fsck_heap
from repro.workloads.concurrent_kv import ConcurrentKvWorkload

#: Every sweep runs its JVMs with a parallel GC gang, so each induced
#: crash (and each recovery) exercises the worker scheduler's
#: protocol-state guarantees, not just the serial collector's.
GC_WORKERS = 3


def _image_hash(heap) -> str:
    return hashlib.sha256(heap.device.durable_image().tobytes()).hexdigest()


# ----------------------------------------------------------------------
# The PJH-session scaffold shared by seven of the ten layers
# ----------------------------------------------------------------------
def _power_cycle(ctx, open_session):
    ctx.jvm.crash()  # power loss: durable image saved, heap unmounted
    return open_session(ctx.tmp)


def _pjh_sweep(name: str, bomb: str, *, heap: str, prepare, workload,
               invariant, fast_stride: int, fast_max_points: int,
               reattach=None, reopen=_power_cycle, devices=None,
               **session) -> Sweep:
    """A sweep over one PJH heap in a traced session; see "How to add a
    layer" in the module docstring.  ``reopen(ctx, open_session)`` (crash
    the session, return its successor) and ``devices(ctx)`` are for the
    layers whose session is not alone in the world.
    """

    def open_session(tmp, **extra):
        return Espresso(tmp / "heaps", observatory=Observatory(),
                        gc_workers=GC_WORKERS, **session, **extra)

    def setup():
        tmp = Path(tempfile.mkdtemp(prefix=f"sweep-{name}-"))
        try:
            jvm = open_session(tmp)
            ctx = SimpleNamespace(tmp=tmp, jvm=jvm, obs=jvm.obs)
            prepare(ctx)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        return ctx

    def recover(ctx):
        jvm = reopen(ctx, open_session)
        jvm.load_heap(heap)
        rctx = SimpleNamespace(jvm=jvm, heap=jvm.heaps.heap(heap),
                               obs=jvm.obs)
        if reattach is not None:
            reattach(ctx, rctx)
        return rctx

    def fsck(rctx):
        report = fsck_heap(rctx.heap)
        assert report.frames_clean, report.frame_errors
        return report

    return Sweep(
        name, bomb=bomb, fast_stride=fast_stride,
        fast_max_points=fast_max_points,
        setup=setup, workload=workload, recover=recover,
        invariant=invariant, fsck=fsck,
        teardown=lambda ctx, rctx: shutil.rmtree(ctx.tmp,
                                                 ignore_errors=True),
        devices=devices or (lambda ctx: [ctx.jvm.heaps.heap(heap).device]),
        registry=lambda ctx: ctx.jvm.vm.failpoints)


# The subject four layers share: a linked chain of nodes stamped ``v``,
# newest first, each published (flush_reachable) before it is rooted.
_NODE_FIELDS = (field("v", FieldKind.INT), field("next", FieldKind.REF))


def _anchor(jvm, klass, v, keep):
    """Allocate node *v* ahead of *keep*, publish it, root it at "keep"."""
    n = jvm.pnew(klass)
    jvm.set_field(n, "v", v)
    if keep is not None:
        jvm.set_field(n, "next", keep)
    jvm.flush_reachable(n)
    jvm.set_root("keep", n)
    return n


def _chain(jvm, head):
    """The ``v`` stamps along a rooted ``next`` chain, head first."""
    values = []
    while head is not None:
        values.append(jvm.get_field(head, "v"))
        head = jvm.get_field(head, "next")
    return values


# ----------------------------------------------------------------------
# PJH allocation + persistent GC (failpoint sweep)
# ----------------------------------------------------------------------
def _pjh_alloc_gc() -> Sweep:
    CHURN = 18       # allocations before GC (most become garbage)
    POST_GC = 6      # allocations after GC (over the reclaimed tail)

    def anchors():
        committed = [i for i in range(CHURN) if i % 3 == 0]
        committed += list(range(CHURN, CHURN + POST_GC))
        return committed

    def prepare(ctx):
        ctx.node = ctx.jvm.define_class("SweepNode", _NODE_FIELDS)
        ctx.jvm.create_heap("h", 256 * 1024, region_words=128)

    def workload(ctx):
        jvm = ctx.jvm
        keep = None
        for i in range(CHURN):
            if i % 3 == 0:
                keep = _anchor(jvm, ctx.node, i, keep)
            else:
                n = jvm.pnew(ctx.node)
                jvm.set_field(n, "v", i)
                n.close()  # garbage for the collector
        jvm.persistent_gc()
        for i in range(CHURN, CHURN + POST_GC):
            keep = _anchor(jvm, ctx.node, i, keep)

    def invariant(rctx, completed):
        jvm = rctx.jvm
        allowed = anchors()
        head = jvm.get_root("keep")
        if completed or head is not None:
            assert head is not None, "committed root lost"
            chain = _chain(jvm, head)
            # The chain is exactly the committed anchors down from its head:
            # flush_reachable + setRoot published every link before the root.
            head_v = chain[0]
            assert head_v in allowed, chain
            expected = [v for v in reversed(allowed) if v <= head_v]
            assert chain == expected, (chain, expected)
            if completed:
                assert head_v == allowed[-1], chain

    return _pjh_sweep("pjh_alloc_gc", "failpoint", heap="h",
                      prepare=prepare, workload=workload,
                      invariant=invariant,
                      fast_stride=13, fast_max_points=10)


# ----------------------------------------------------------------------
# Per-mutator allocation buffers: the refill/retire claim protocol
# (flush-boundary sweep)
# ----------------------------------------------------------------------
def _pjh_alloc_buffer() -> Sweep:
    """Crash the TLAB claim protocol at every flush boundary.

    Tiny buffers (32 words) force a refill every couple of allocations,
    so the bomb lands inside partially-filled windows, between the
    durable zeroing / top bump / table-entry publish of a claim, and in
    the filler writes of retirement.  The workload GCs a batch of
    garbage first, so every buffer is claimed over reclaimed space that
    still holds stale object images — the exact shape where a sloppy
    tail truncation would resurrect dead objects.
    """
    BUF_WORDS = 32
    GARBAGE = 10
    ROUNDS = 10

    def prepare(ctx):
        jvm = ctx.jvm
        node = ctx.node = jvm.define_class("BufNode", _NODE_FIELDS)
        jvm.create_heap("h", 256 * 1024, region_words=128)
        # Pre-crash churn OUTSIDE the sweep window: garbage, then a
        # compacting GC, so the data tail is littered with stale images.
        _anchor(jvm, node, 0, None)
        for i in range(GARBAGE):
            dead = jvm.pnew(node)
            jvm.set_field(dead, "v", 1000 + i)
            dead.close()
        jvm.persistent_gc()

    def workload(ctx):
        jvm = ctx.jvm
        keep = jvm.get_root("keep")
        for i in range(1, ROUNDS + 1):
            keep = _anchor(jvm, ctx.node, i, keep)
        # An oversize array leaves the buffered path for a direct claim
        # mid-stream, then one more buffered node lands after it.
        jvm.pnew_array(jvm.vm.object_klass, 2 * BUF_WORDS)
        _anchor(jvm, ctx.node, ROUNDS + 1, keep)

    def invariant(rctx, completed):
        jvm, heap = rctx.jvm, rctx.heap
        # The rooted chain is a contiguous committed prefix.
        chain = _chain(jvm, jvm.get_root("keep"))
        assert chain == list(range(chain[0], -1, -1)), chain
        if completed:
            assert chain[0] == ROUNDS + 1, chain
        # No resurrected objects: every surviving BufNode is one the
        # post-GC workload wrote — never a 1000+ garbage stamp exposed
        # out of a stale image under a settled buffer tail.  An in-flight
        # allocation may survive with durably-zero fields (pnew only
        # guarantees the header, §3.5), so v=0 can repeat; a *written*
        # stamp cannot.
        values = []
        for address in heap.walk():
            if jvm.vm.access.klass_of(address).name == "BufNode":
                values.append(jvm.get_field(jvm.vm.handle(address), "v"))
        assert all(0 <= v <= ROUNDS + 1 for v in values), sorted(values)
        positive = [v for v in values if v > 0]
        assert len(positive) == len(set(positive)), sorted(values)
        assert set(chain) <= set(values)

    return _pjh_sweep("pjh_alloc_buffer", "flush", heap="h",
                      prepare=prepare, workload=workload,
                      invariant=invariant,
                      fast_stride=11, fast_max_points=10,
                      alloc_buffer_words=BUF_WORDS)


# ----------------------------------------------------------------------
# H2 SQL engine (flush-boundary sweep over the WAL protocol)
# ----------------------------------------------------------------------
def _h2_sql() -> Sweep:
    def expected_rows():
        rows = {i: f"v{i}" for i in range(6)}
        rows[2] = "updated"
        del rows[4]
        rows[100] = "uncommitted"
        rows[0] = "torn"
        return rows

    def setup():
        obs = Observatory()
        return SimpleNamespace(db=Database(size_words=1 << 18, obs=obs),
                               obs=obs)

    def workload(ctx):
        db = ctx.db
        db.execute("CREATE TABLE t (k BIGINT PRIMARY KEY, v VARCHAR)")
        for i in range(6):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, f"v{i}"))
        db.execute("UPDATE t SET v = 'updated' WHERE k = 2")
        db.execute("DELETE FROM t WHERE k = 4")
        # Read-only work logs nothing, so it adds no crash point.
        db.execute("SELECT v FROM t WHERE k = 2")
        db.execute("BEGIN")
        db.execute("SELECT COUNT(*) FROM t")
        db.execute("COMMIT")
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (100, 'uncommitted')")
        db.execute("UPDATE t SET v = 'torn' WHERE k = 0")
        db.execute("COMMIT")

    def recover(ctx):
        obs = Observatory()
        return SimpleNamespace(db=ctx.db.crash(obs=obs), obs=obs)

    def invariant(rctx, completed):
        db = rctx.db
        if completed:
            assert dict(db.execute("SELECT k, v FROM t").rows) \
                == expected_rows()
            return
        if not db.catalog.exists("t"):
            return  # crashed before CREATE committed: empty DB is valid
        rows = dict(db.execute("SELECT k, v FROM t").rows)
        for k, v in rows.items():
            if k == 100:
                assert v == "uncommitted"
                assert rows.get(0) == "torn"
            elif k == 0:
                assert v in ("v0", "torn")
            elif k == 2:
                assert v in ("v2", "updated")
            else:
                assert v == f"v{k}"
        # The final transaction is atomic: both or neither of its effects.
        assert (100 in rows) == (rows.get(0) == "torn")
        # And the engine still works after recovery.
        db.execute("INSERT INTO t VALUES (999, 'post')")
        assert dict(db.execute("SELECT k, v FROM t").rows)[999] == "post"

    return Sweep("h2_sql", bomb="flush", fast_stride=17, fast_max_points=10,
                 setup=setup, workload=workload, recover=recover,
                 invariant=invariant,
                 devices=lambda ctx: [ctx.db.device])


# ----------------------------------------------------------------------
# pjhlib ACID collections (flush-boundary sweep)
# ----------------------------------------------------------------------
def _pjhlib() -> Sweep:
    def expected_final():
        model = {i: i * 10 for i in range(8)}
        for i in range(0, 8, 2):
            model[i] = i * 100
        del model[3]
        del model[5]
        return model

    def prepare(ctx):
        jvm = ctx.jvm
        jvm.create_heap("kv", 2 * 1024 * 1024)
        ctx.txn = PjhTransaction(jvm)
        ctx.table = PjhHashmap(jvm, ctx.txn)
        jvm.set_root("table", ctx.table.h)
        jvm.set_root("txn_entries", ctx.txn._entries)
        jvm.set_root("txn_meta", ctx.txn._meta)

    def workload(ctx):
        jvm, txn, table = ctx.jvm, ctx.txn, ctx.table
        for i in range(8):
            table.put(PjhLong(jvm, txn, i), PjhLong(jvm, txn, i * 10))
        for i in range(0, 8, 2):
            table.put(PjhLong(jvm, txn, i), PjhLong(jvm, txn, i * 100))
        table.remove_raw(3)
        table.remove_raw(5)

    def reattach(ctx, rctx):
        jvm = rctx.jvm
        txn = PjhTransaction.reattach(jvm, jvm.get_root("txn_entries"),
                                      jvm.get_root("txn_meta"))
        txn.recover()  # roll back any torn multi-slot operation
        rctx.table = PjhHashmap(jvm, txn, handle=jvm.get_root("table"))

    def invariant(rctx, completed):
        jvm, table = rctx.jvm, rctx.table
        seen = {}
        for key_h, value_h in table.items():
            key = jvm.get_field(key_h, "value")
            value = jvm.get_field(value_h, "value")
            seen[key] = value
            allowed = {key * 10}
            if key % 2 == 0:
                allowed.add(key * 100)
            assert value in allowed, (key, value)
        assert table.size() == len(seen)
        if completed:
            assert seen == expected_final()

    return _pjh_sweep("pjhlib", "flush", heap="kv",
                      prepare=prepare, workload=workload,
                      reattach=reattach, invariant=invariant,
                      fast_stride=29, fast_max_points=10)


# ----------------------------------------------------------------------
# PCJ NVML undo-log transactions (flush-boundary sweep)
# ----------------------------------------------------------------------
def _pcj_nvml() -> Sweep:
    ROUNDS = 6

    def setup():
        obs = Observatory()
        pool = MemoryPool(256 * 1024, tx_log_words=8192, obs=obs)
        a = PersistentLong(pool, 0)
        b = PersistentLong(pool, 0)
        pool.set_root("a", a.offset)
        pool.set_root("b", b.offset)
        return SimpleNamespace(pool=pool, a=a, b=b, obs=obs)

    def workload(ctx):
        pool = ctx.pool
        # Two counters updated inside one transaction each round: after any
        # crash + recovery they must agree (the undo log's whole promise).
        for i in range(1, ROUNDS + 1):
            pool.tx_begin()
            pool._tx_write(ctx.a.offset, i)
            pool._tx_write(ctx.b.offset, i)
            pool.tx_commit()

    def recover(ctx):
        image = ctx.pool.crash_image()
        obs = Observatory()
        # MemoryPool.open runs recover(), replaying the undo log
        pool = MemoryPool.open(image, obs=obs)
        return SimpleNamespace(pool=pool, obs=obs)

    def invariant(rctx, completed):
        pool = rctx.pool
        assert not pool.in_transaction
        a = PersistentLong.from_offset(pool, pool.get_root("a")).long_value()
        b = PersistentLong.from_offset(pool, pool.get_root("b")).long_value()
        assert a == b, (a, b)
        assert 0 <= a <= ROUNDS
        if completed:
            assert a == ROUNDS

    return Sweep("pcj_nvml", bomb="flush", fast_stride=7, fast_max_points=10,
                 setup=setup, workload=workload, recover=recover,
                 invariant=invariant,
                 devices=lambda ctx: [ctx.pool.device])


# ----------------------------------------------------------------------
# PJO commit path: dedup + field tracking on (flush-boundary sweep)
# ----------------------------------------------------------------------
def _pjo_commit() -> Sweep:
    PEOPLE = 3
    ROUNDS = 3

    def prepare(ctx):
        ctx.jvm.create_heap("jpab", 4 * 1024 * 1024)
        # dedup + field tracking are the defaults
        ctx.em = PjoEntityManager(ctx.jvm)
        ctx.em.create_schema([BasicPerson])

    def workload(ctx):
        em = ctx.em
        tx = em.get_transaction()
        tx.begin()
        for i in range(1, PEOPLE + 1):
            em.persist(BasicPerson(i, "r0", "Sweep", "r0"))
        tx.commit()
        # Each round rewrites two fields of every person in ONE transaction;
        # first_name and phone must therefore never disagree after recovery.
        for rnd in range(1, ROUNDS + 1):
            em.clear()
            tx.begin()
            for i in range(1, PEOPLE + 1):
                person = em.find(BasicPerson, i)
                person.first_name = f"r{rnd}"
                person.phone = f"r{rnd}"
            tx.commit()

    def reattach(ctx, rctx):
        # the backend reattaches + recovers the log
        rctx.em = PjoEntityManager(rctx.jvm)

    def invariant(rctx, completed):
        em = rctx.em
        people = [em.find(BasicPerson, i) for i in range(1, PEOPLE + 1)]
        present = [p for p in people if p is not None]
        # The initial persist of all three is one transaction: all or none.
        assert len(present) in (0, PEOPLE), [p and p.id for p in people]
        stamps = set()
        for person in present:
            # Field-pair atomicity within one entity...
            assert person.first_name == person.phone, (
                person.id, person.first_name, person.phone)
            stamps.add(person.first_name)
        # ...and round atomicity across entities (one tx updates them all).
        assert len(stamps) <= 1, stamps
        if completed:
            assert stamps == {f"r{ROUNDS}"}

    return _pjh_sweep("pjo_commit", "flush", heap="jpab",
                      prepare=prepare, workload=workload,
                      reattach=reattach, invariant=invariant,
                      fast_stride=37, fast_max_points=8)


# ----------------------------------------------------------------------
# Mixed persist domains: PJH allocation + H2 WAL on separate devices
# ----------------------------------------------------------------------
def _mixed_domains() -> Sweep:
    """Epoch coalescing must hold when two domains interleave.

    Each round anchors a new PJH node (flush_reachable + setRoot, its own
    domain epochs) and then commits an H2 insert recording the round (one
    WAL epoch per record, on a different device).  The flush bomb counts
    clflush calls globally across both devices, so every interleaving of
    the two protocols gets crashed — a flush that leaked across an epoch
    boundary in either domain breaks a per-layer invariant, and the
    cross-layer ordering (row *i* durable implies anchor *i* durable)
    catches coalescing that reorders work between the subsystems.
    """
    ROUNDS = 5

    def prepare(ctx):
        jvm = ctx.jvm
        ctx.node = jvm.define_class("MixNode", _NODE_FIELDS)
        jvm.create_heap("h", 256 * 1024, region_words=128)
        # One observatory spans both domains: the dump shows PJH anchor
        # spans interleaved with WAL commit spans in one timeline.
        ctx.db = Database(size_words=1 << 18, clock=jvm.clock, obs=ctx.obs)

    def workload(ctx):
        jvm, db = ctx.jvm, ctx.db
        db.execute("CREATE TABLE log (k BIGINT PRIMARY KEY, v VARCHAR)")
        keep = None
        for i in range(ROUNDS):
            keep = _anchor(jvm, ctx.node, i, keep)
            db.execute("INSERT INTO log VALUES (?, ?)", (i, f"v{i}"))
        # A multi-statement transaction at the end: atomic or absent.
        db.execute("BEGIN")
        db.execute("UPDATE log SET v = 'x0' WHERE k = 0")
        db.execute("INSERT INTO log VALUES (100, 'tail')")
        db.execute("COMMIT")

    def reopen(ctx, open_session):
        ctx.jvm.crash()
        # Reuse the shared clock so the recovered JVM and DB keep one
        # coherent timeline (db.crash() rebinds obs to the same clock).
        return open_session(ctx.tmp, clock=ctx.db.clock)

    def reattach(ctx, rctx):
        rctx.db = ctx.db.crash(obs=rctx.obs)

    def invariant(rctx, completed):
        jvm, db = rctx.jvm, rctx.db
        # PJH side: the rooted chain is a contiguous anchored suffix.
        chain = _chain(jvm, jvm.get_root("keep"))
        if chain:
            assert chain == list(range(chain[0], -1, -1)), chain
        # H2 side: committed inserts form a prefix; the tx is atomic.
        rows = {}
        if db.catalog.exists("log"):
            rows = dict(db.execute("SELECT k, v FROM log").rows)
        keys = sorted(k for k in rows if k < 100)
        assert keys == list(range(len(keys))), keys
        assert (100 in rows) == (rows.get(0) == "x0")
        for k in keys[1:]:
            assert rows[k] == f"v{k}"
        if keys:
            assert rows[0] in ("v0", "x0")
            # Cross-domain ordering: insert i commits only after anchor i
            # was published, so a durable row implies a durable anchor.
            assert chain and chain[0] >= keys[-1], (chain, keys)
        if completed:
            assert chain and chain[0] == ROUNDS - 1, chain
            assert len(keys) == ROUNDS and 100 in rows, rows

    return _pjh_sweep("mixed_domains", "flush", heap="h",
                      prepare=prepare, workload=workload, reopen=reopen,
                      reattach=reattach, invariant=invariant,
                      devices=lambda ctx: [ctx.jvm.heaps.heap("h").device,
                                           ctx.db.device],
                      fast_stride=23, fast_max_points=10)


# ----------------------------------------------------------------------
# Crash-transparent execution (failpoint sweep over the resume protocol)
# ----------------------------------------------------------------------
def _resume_task() -> Sweep:
    """Crash a resumable task at every ``resume.*`` protocol point.

    The workload is a two-task program (``build`` pushes a persistent
    linked list one node per step; each iteration also ``call``s a child
    ``weigh`` frame) so every sweep walks pushes, checkpoints, child
    enters, pops and the finalize tail.  The invariant is the tentpole
    promise itself: after crash + restart + re-run, the heap's durable
    image is SHA-256-identical to the image an *uncrashed* run produces,
    and the task yields the same result.  The golden hash is computed
    once from a crash-free run of the sweep's own setup.
    """
    N = 5
    EXPECTED = sum(i * i for i in range(N))

    def _define(jvm):
        jvm.define_class("ResumeNode", _NODE_FIELDS)

    def _mk(s, i, prev):
        node = s.pnew("ResumeNode")
        s.set_field(node, "v", i)
        if prev is not None:
            s.set_field(node, "next", prev)
        s.flush_reachable(node)
        return node

    def prepare(ctx):
        jvm = ctx.jvm
        _define(jvm)

        @jvm.register_task("build")
        def build(task, s, n):
            prev = None
            total = 0
            for i in range(n):
                prev = task.step(_mk, s, i, prev)
                total += task.call("weigh", i)
            s.set_root("list", prev)
            return total

        @jvm.register_task("weigh")
        def weigh(task, s, i):
            return task.step(lambda: i * i)

        jvm.create_heap("h", 512 * 1024)

    @functools.cache
    def golden_hash():
        ctx = sweep.setup()
        try:
            assert ctx.jvm.resumable_task("build").run(N) == EXPECTED
            return _image_hash(ctx.jvm.heaps.heap("h"))
        finally:
            ctx.jvm.shutdown()
            sweep.teardown(ctx, None)

    def workload(ctx):
        ctx.jvm.resumable_task("build").run(N)

    def reopen(ctx, open_session):
        # restart(crash=True): durable image saved, fresh VM, same config
        # (the task registry rides along by reference) — a restarted JVM
        # must redefine its classes, exactly like a real one reloading
        # them.
        jvm = ctx.jvm.restart(crash=True)
        _define(jvm)
        return jvm

    def reattach(ctx, rctx):
        rctx.result = rctx.jvm.resumable_task("build").run(N)

    def invariant(rctx, completed):
        assert rctx.result == EXPECTED, rctx.result
        assert _image_hash(rctx.heap) == golden_hash(), (
            "resumed durable image diverged from the uncrashed run's")

    sweep = _pjh_sweep("resume_task", "failpoint", heap="h",
                       prepare=prepare, workload=workload, reopen=reopen,
                       reattach=reattach, invariant=invariant,
                       fast_stride=11, fast_max_points=10, resumable=True)
    return sweep


# ----------------------------------------------------------------------
# Fleet fail-over: one shard crashed mid-traffic, siblings keep serving
# ----------------------------------------------------------------------
def _fleet_failover() -> Sweep:
    """Flush-boundary sweep of a 3-shard fleet, bombing ONE shard.

    Only the victim shard's device is instrumented, so every injection
    point models a single-shard power failure under live multi-tenant
    traffic.  Recovery is the router's own fail-over path: assert the
    survivors serve (reads *and* writes) while the victim fails fast
    with :class:`~repro.errors.ShardDownError`, then bring the victim
    back on the recovery gang.  Afterwards: committed KV state is
    consistent on every shard, every request the victim served before
    the crash survived (``crash_shard`` drops only the unserved ones),
    no session silently migrated, every
    shard heap and the directory heap fsck clean, and the durable shard
    directory is byte-identical to an uncrashed fleet's — fail-over
    writes zero directory flushes by design.
    """
    SHARDS = 3
    VICTIM = 0
    ROUNDS = 3

    def _sessions():
        """Two session ids per shard, in deterministic order."""
        per_shard = {i: [] for i in range(SHARDS)}
        i = 0
        while any(len(v) < 2 for v in per_shard.values()):
            sid = f"tenant-{i}"
            home = zlib.crc32(sid.encode()) % SHARDS
            if len(per_shard[home]) < 2:
                per_shard[home].append(sid)
            i += 1
        return per_shard

    def _directory_image_hash(fleet):
        return _image_hash(fleet.directory_jvm.heaps.heap(DIRECTORY_HEAP))

    def setup():
        tmp = Path(tempfile.mkdtemp(prefix="sweep-fleet-"))
        fleet = FleetRouter.create(tmp / "fleet", config=FleetConfig(
            shards=SHARDS, shard_size_bytes=256 * 1024, max_in_flight=32,
            gc_workers=GC_WORKERS))
        return SimpleNamespace(tmp=tmp, fleet=fleet, sessions=_sessions(),
                               committed={}, inflight={},
                               obs=fleet.shards[VICTIM].jvm.obs)

    def teardown(ctx, rctx):
        shutil.rmtree(ctx.tmp, ignore_errors=True)

    @functools.cache
    def golden_hash():
        """Directory image of an uncrashed fleet with identical setup."""
        ctx = setup()
        try:
            return _directory_image_hash(ctx.fleet)
        finally:
            teardown(ctx, None)

    def workload(ctx):
        fleet = ctx.fleet
        for rnd in range(ROUNDS):
            ctx.inflight = {}
            for sids in ctx.sessions.values():
                for sid in sids:
                    value = f"{sid}.r{rnd}"
                    fleet.submit(sid, "put", "state", value)
                    ctx.inflight[sid] = value
            fleet.drain()   # the bomb fires here, mid-drain on the victim
            ctx.committed.update(ctx.inflight)
            ctx.inflight = {}

    def recover(ctx):
        fleet = ctx.fleet
        queued = list(fleet.shards[VICTIM].queue)
        dropped = fleet.crash_shard(VICTIM)
        # The drain served a prefix of the victim's queue before the
        # power failure: those requests are done, not dropped.
        assert dropped == sum(not r.done for r in queued), (dropped, queued)
        # Survivors keep serving while the victim is down: reads of
        # committed state and fresh writes both succeed...
        for shard_index in range(SHARDS):
            if shard_index == VICTIM:
                continue
            sid = ctx.sessions[shard_index][0]
            expected = ctx.committed.get(sid) or ctx.inflight.get(sid)
            got = fleet.get(sid, "state")
            if ctx.committed.get(sid) is not None and \
                    sid not in ctx.inflight:
                assert got == expected, (sid, got, expected)
            fleet.put(sid, "probe", "alive")
            assert fleet.get(sid, "probe") == "alive"
        # ...and the victim's traffic fails fast instead of landing on a
        # sibling that does not hold its data.
        victim_sid = ctx.sessions[VICTIM][0]
        try:
            fleet.submit(victim_sid, "get", "state")
            raise AssertionError("down shard accepted a request")
        except ShardDownError as exc:
            assert exc.shard == VICTIM
        placements_before = dict(fleet.placements)
        fleet.recover_shard(VICTIM)
        return SimpleNamespace(fleet=fleet,
                               sessions=ctx.sessions,
                               committed=dict(ctx.committed),
                               inflight=dict(ctx.inflight),
                               served={r.session_id: r.value for r in queued
                                       if r.done and r.op == "put"},
                               placements_before=placements_before,
                               obs=fleet.shards[VICTIM].jvm.obs)

    def invariant(rctx, completed):
        fleet = rctx.fleet
        # Committed KV state is intact on every shard; the crashed
        # round's writes are atomic per key: old value, new value, or
        # (first round) absent — never garbage.
        for sids in rctx.sessions.values():
            for sid in sids:
                got = fleet.get(sid, "state")
                allowed = set()
                if sid in rctx.inflight:
                    allowed.add(rctx.inflight[sid])
                    allowed.add(rctx.committed.get(sid))
                else:
                    allowed.add(rctx.committed.get(sid))
                assert got in allowed, (sid, got, allowed)
        if completed:
            for sid, value in rctx.committed.items():
                assert fleet.get(sid, "state") == value
        # A request the victim served before the crash was not dropped:
        # its write survived.
        for sid, value in rctx.served.items():
            assert fleet.get(sid, "state") == value, (sid, value)
        # Routing correctness: no session migrated across the fail-over.
        for sid, home in rctx.placements_before.items():
            assert fleet.route(sid) == home, (sid, home)
        # Zero directory writes during traffic, crash and fail-over: the
        # durable directory image matches an uncrashed fleet's, byte for
        # byte.
        assert _directory_image_hash(fleet) == golden_hash(), (
            "fleet directory image diverged from the uncrashed run's")

    def fsck(rctx):
        fleet = rctx.fleet
        report = fsck_heap(
            fleet.directory_jvm.heaps.heap(DIRECTORY_HEAP))
        assert report.clean, ("directory", report.errors)
        for shard in fleet.shards:
            report = fsck_heap(
                shard.jvm.heaps.heap(shard_heap_name(shard.index)))
            assert report.clean, (shard.index, report.errors)
        return report  # the last shard's; all were asserted above

    def victim_device(ctx):
        heap = ctx.fleet.shards[VICTIM].jvm.heaps.heap(
            shard_heap_name(VICTIM))
        return [heap.device]

    return Sweep("fleet_failover", bomb="flush",
                 fast_stride=19, fast_max_points=8,
                 setup=setup, workload=workload, recover=recover,
                 invariant=invariant, fsck=fsck, teardown=teardown,
                 devices=victim_device)


# ----------------------------------------------------------------------
# Concurrent mutator gang on the lock-free durable map (flush sweep)
# ----------------------------------------------------------------------
def _concurrent_kv() -> Sweep:
    """A 3-mutator contended KV workload, crashed at every flush boundary.

    Crashing after the N-th clflush lands at an arbitrary point of the
    seeded interleaving, so every boundary is a different cut through the
    contended multi-mutator schedule.  The recovered map must pass its
    protocol audit, satisfy durable linearizability against the gang's
    recorded history, and fsck clean.
    """
    MUTATORS = 3

    def prepare(ctx):
        ctx.jvm.create_heap("kv", 2 * 1024 * 1024)
        ctx.workload = ConcurrentKvWorkload(ctx.jvm, mutators=MUTATORS,
                                            ops_per_mutator=5, key_space=3,
                                            seed=7, buckets=4)

    def reattach(ctx, rctx):
        rctx.workload = ctx.workload  # it recorded the gang's history

    def invariant(rctx, completed):
        problems = rctx.workload.check_after_recovery(rctx.jvm, completed)
        assert not problems, problems

    return _pjh_sweep("concurrent_kv", "flush", heap="kv",
                      prepare=prepare,
                      workload=lambda ctx: ctx.workload.run(),
                      reattach=reattach, invariant=invariant,
                      fast_stride=23, fast_max_points=8,
                      mutators=MUTATORS)


SWEEPS: Dict[str, Sweep] = {sweep.name: sweep for sweep in (
    _pjh_alloc_gc(), _pjh_alloc_buffer(), _h2_sql(), _pjhlib(), _pcj_nvml(),
    _pjo_commit(), _mixed_domains(), _resume_task(), _fleet_failover(),
    _concurrent_kv())}


def run_sweep(name: str, fault_mode: str = FaultMode.ATOMIC, *,
              exhaustive: bool = True, seed: int = 0) -> SweepReport:
    """Run one registered sweep; ``exhaustive=False`` uses the fast stride."""
    return SWEEPS[name].run(fault_mode, exhaustive=exhaustive, seed=seed)
