"""Fleet router behaviour: routing, admission, fail-over, durability."""

import zlib

import pytest

from repro.errors import (
    FleetBusyError,
    HeapExistsError,
    IllegalArgumentException,
    ShardDownError,
)
from repro.fleet import (
    DIRECTORY_HEAP,
    FleetConfig,
    FleetRouter,
    SHARD_DOWN,
    SHARD_UP,
    shard_heap_name,
)
from repro.tools.fsck import fsck


def _fleet(tmp_path, shards=2, **kw):
    kw.setdefault("shard_size_bytes", 512 * 1024)
    return FleetRouter.create(tmp_path / "fleet",
                              config=FleetConfig(shards=shards, **kw))


class TestRouting:
    def test_routing_is_deterministic_crc32(self, tmp_path):
        fleet = _fleet(tmp_path, shards=4)
        for sid in ("a", "session-17", "x" * 40):
            expected = zlib.crc32(sid.encode()) % 4
            assert fleet.route(sid) == expected
            assert fleet.route(sid) == expected      # stable on re-route

    def test_sessions_spread_across_shards(self, tmp_path):
        fleet = _fleet(tmp_path, shards=4)
        hits = {fleet.route(f"session-{i}") for i in range(64)}
        assert hits == {0, 1, 2, 3}

    def test_placements_recorded(self, tmp_path):
        fleet = _fleet(tmp_path)
        fleet.put("alice", "k", "v")
        fleet.get("bob", "k")
        assert set(fleet.placements) == {"alice", "bob"}

    def test_unknown_op_rejected(self, tmp_path):
        fleet = _fleet(tmp_path)
        with pytest.raises(IllegalArgumentException):
            fleet.submit("alice", "scan", "k")

    def test_zero_shards_rejected(self, tmp_path):
        with pytest.raises(IllegalArgumentException):
            _fleet(tmp_path, shards=0)


class TestKv:
    def test_put_get_delete_roundtrip(self, tmp_path):
        fleet = _fleet(tmp_path)
        fleet.put("alice", "cart", "3 espressos")
        assert fleet.get("alice", "cart") == "3 espressos"
        assert fleet.delete("alice", "cart") is True
        assert fleet.get("alice", "cart") is None
        assert fleet.delete("alice", "cart") is False

    def test_keys_are_session_scoped(self, tmp_path):
        """Two tenants on one shard never see each other's keys."""
        fleet = _fleet(tmp_path, shards=1)
        fleet.put("alice", "cart", "espresso")
        fleet.put("bob", "cart", "ristretto")
        assert fleet.get("alice", "cart") == "espresso"
        assert fleet.get("bob", "cart") == "ristretto"
        fleet.delete("alice", "cart")
        assert fleet.get("bob", "cart") == "ristretto"

    def test_batch_commits_max_over_shards(self, tmp_path):
        """K shards serve a balanced batch in ~1/K the serial time."""
        fleet = _fleet(tmp_path, shards=2, max_in_flight=128)
        sids = [f"s-{i}" for i in range(32)]
        by_shard = {0: [], 1: []}
        for sid in sids:
            by_shard[fleet.route(sid)].append(sid)
        assert by_shard[0] and by_shard[1]
        before = fleet.clock.now_ns
        for sid in sids:
            fleet.submit(sid, "put", "k", "v")
        fleet.drain()
        batch_ns = fleet.clock.now_ns - before
        # the committed time is the slowest shard's busy time (its last
        # completion), not the sum over shards — shards are parallel
        busiest = max(s.latency.samples[-1] for s in fleet.shards)
        total = sum(s.latency.samples[-1] for s in fleet.shards)
        assert batch_ns == pytest.approx(busiest)
        assert batch_ns < total


class TestAdmission:
    def test_backpressure_at_max_in_flight(self, tmp_path):
        fleet = _fleet(tmp_path, shards=1, max_in_flight=4)
        for i in range(4):
            fleet.submit("alice", "put", f"k{i}", "v")
        with pytest.raises(FleetBusyError) as excinfo:
            fleet.submit("alice", "put", "k4", "v")
        assert excinfo.value.shard == 0
        assert excinfo.value.in_flight == 4
        fleet.drain()                                # drain frees the bound
        fleet.submit("alice", "put", "k4", "v")
        fleet.drain()
        assert fleet.get("alice", "k4") == "v"

    def test_bound_is_per_shard(self, tmp_path):
        fleet = _fleet(tmp_path, shards=2, max_in_flight=2)
        on0 = [f"a{i}" for i in range(40) if zlib.crc32(
            f"a{i}".encode()) % 2 == 0]
        on1 = [f"a{i}" for i in range(40) if zlib.crc32(
            f"a{i}".encode()) % 2 == 1]
        fleet.submit(on0[0], "put", "k", "v")
        fleet.submit(on0[1], "put", "k", "v")
        with pytest.raises(FleetBusyError):
            fleet.submit(on0[2], "put", "k", "v")
        fleet.submit(on1[0], "put", "k", "v")        # sibling unaffected


class TestFailover:
    def test_down_shard_fails_fast_survivors_serve(self, tmp_path):
        fleet = _fleet(tmp_path, shards=2)
        a0 = next(f"s{i}" for i in range(16)
                  if zlib.crc32(f"s{i}".encode()) % 2 == 0)
        a1 = next(f"s{i}" for i in range(16)
                  if zlib.crc32(f"s{i}".encode()) % 2 == 1)
        fleet.put(a0, "k", "v0")
        fleet.put(a1, "k", "v1")
        fleet.crash_shard(0)
        assert [s.state for s in fleet.shards] == [SHARD_DOWN, SHARD_UP]
        with pytest.raises(ShardDownError) as excinfo:
            fleet.submit(a0, "get", "k")
        assert excinfo.value.shard == 0
        assert fleet.get(a1, "k") == "v1"            # survivor untouched

    def test_crash_drops_queued_requests(self, tmp_path):
        fleet = _fleet(tmp_path, shards=1)
        r1 = fleet.submit("alice", "put", "k", "v")
        r2 = fleet.submit("alice", "put", "k2", "v2")
        dropped = fleet.crash_shard(0)
        assert dropped == 2
        assert not r1.done and not r2.done
        fleet.recover_shard(0)
        assert fleet.get("alice", "k") is None       # never committed

    def test_bombed_drain_charges_nothing_and_leaves_no_stale_time(
            self, tmp_path):
        """A drain that raises mid-queue abandons the whole phase: the
        clock does not move and no worker meter keeps the partial time
        for the next drain to charge."""
        from repro.errors import SimulatedCrash
        from repro.faults.harness import _FlushBomb

        fleet = _fleet(tmp_path, shards=3)
        home = {}
        for i in range(64):
            home.setdefault(fleet.route(f"s{i}"), f"s{i}")
        assert sorted(home) == [0, 1, 2]
        victim = 1          # shard 0 is fully served before the bomb
        for n in range(3):
            for sid in home.values():
                fleet.submit(sid, "put", f"k{n}", "v")
        device = fleet.shards[victim].jvm.heaps.heap(
            shard_heap_name(victim)).device
        before = fleet.clock.now_ns
        with _FlushBomb([device], 12), pytest.raises(SimulatedCrash):
            fleet.drain()
        assert fleet.clock.now_ns == before
        assert [w.meter.ns for w in fleet.drain_pool.workers] == [0.0] * 3

        fleet.crash_shard(victim)
        last = {0: fleet.submit(home[0], "put", "late", "v"),
                2: fleet.shards[2].queue[-1]}    # still queued from above
        batch_start = fleet.clock.now_ns
        fleet.drain()
        busy = {i: fleet.shards[i].latency.samples[-1]
                + request.arrival_ns - batch_start
                for i, request in last.items()}
        assert busy[2] > busy[0] > 0             # three puts against one
        assert fleet.clock.now_ns - batch_start == pytest.approx(busy[2])

    def test_recovery_restores_committed_state(self, tmp_path):
        fleet = _fleet(tmp_path, shards=2, gc_workers=3)
        for i in range(20):
            fleet.put(f"s{i}", f"k{i}", f"v{i}")
        fleet.crash_shard(1)
        recovery_ns = fleet.recover_shard(1)
        assert recovery_ns > 0
        assert fleet.shards[1].state == SHARD_UP
        for i in range(20):
            assert fleet.get(f"s{i}", f"k{i}") == f"v{i}"
        assert len(fleet.recovery) == 1

    def test_recovered_shard_sessions_stay_put(self, tmp_path):
        """No silent migration: placement survives the fail-over."""
        fleet = _fleet(tmp_path, shards=2)
        fleet.put("alice", "k", "v")
        home = fleet.placements["alice"]
        fleet.crash_shard(home)
        fleet.recover_shard(home)
        fleet.put("alice", "k2", "v2")
        assert fleet.placements["alice"] == home


class TestDurability:
    def test_load_restores_fleet_from_directory(self, tmp_path):
        fleet = _fleet(tmp_path, shards=4)
        for i in range(12):
            fleet.put(f"s{i}", "k", f"v{i}")
        fleet.shutdown()
        # the directory, not the config, dictates the shape on load
        reloaded = FleetRouter.load(
            tmp_path / "fleet",
            config=FleetConfig(shards=1, gc_workers=2))
        assert len(reloaded.shards) == 4
        assert reloaded.config.shards == 4
        for i in range(12):
            assert reloaded.get(f"s{i}", "k") == f"v{i}"

    def test_directory_lists_every_shard(self, tmp_path):
        fleet = _fleet(tmp_path, shards=3)
        records = fleet.directory.shards()
        assert [r.index for r in records] == [0, 1, 2]
        assert all(r.size_bytes == 512 * 1024 for r in records)

    def test_shard_heaps_and_directory_fsck_clean(self, tmp_path):
        fleet = _fleet(tmp_path, shards=2)
        fleet.put("alice", "k", "v")
        fleet.crash_shard(fleet.placements["alice"])
        fleet.recover_shard(fleet.placements["alice"])
        fleet.shutdown()
        for name in (DIRECTORY_HEAP, shard_heap_name(0), shard_heap_name(1)):
            report = fsck(tmp_path / "fleet", name)
            assert report.clean, (name, report.errors)

    def test_fleet_names_collide_with_user_heaps(self, tmp_path):
        """The shard namespace is ordinary PJH names — duplicates refuse."""
        fleet = _fleet(tmp_path, shards=1)
        with pytest.raises(HeapExistsError):
            fleet.shards[0].jvm.create_heap(DIRECTORY_HEAP, 256 * 1024)


class TestObservability:
    def test_report_shape(self, tmp_path):
        fleet = _fleet(tmp_path, shards=2)
        for i in range(10):
            fleet.put(f"s{i}", "k", "v")
        fleet.crash_shard(0)
        fleet.recover_shard(0)
        report = fleet.report()
        assert report["requests"] == 10
        assert report["p99_ns"] >= report["p50_ns"] > 0
        assert set(report["per_shard"]) == {"0", "1"}
        assert report["recovery"]["count"] == 1
        assert report["sessions"] == 10
        assert sum(report["served"].values()) == 10

    def test_shards_have_independent_observatories(self, tmp_path):
        fleet = _fleet(tmp_path, shards=2)
        assert fleet.shards[0].jvm.obs is not fleet.shards[1].jvm.obs


class TestSessionApi:
    def test_session_creates_then_reenters(self, tmp_path):
        """Fleet.session is the one front door: first use creates, later
        uses load from the durable directory, same call shape."""
        from repro.fleet import Fleet

        with Fleet.session(tmp_path / "fleet",
                           config=FleetConfig(
                               shards=2,
                               shard_size_bytes=512 * 1024)) as fleet:
            fleet.put("alice", "k", "v1")
            fleet.shutdown()
        with Fleet.session(tmp_path / "fleet") as reloaded:
            assert len(reloaded.shards) == 2
            assert reloaded.get("alice", "k") == "v1"
            reloaded.shutdown()

    def test_fleet_alias_is_the_router(self):
        from repro.fleet import Fleet

        assert Fleet is FleetRouter

    def test_mutators_knob_reaches_every_shard(self, tmp_path):
        fleet = _fleet(tmp_path, mutators=4)
        for shard in fleet.shards:
            assert shard.jvm.config.mutators == 4
        gang = fleet.shards[0].jvm.mutator_gang()
        assert gang.n == 4

    def test_too_many_positionals_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            FleetRouter.create(tmp_path / "fleet", FleetConfig(shards=1))
        with pytest.raises(TypeError):
            FleetRouter.load(tmp_path / "fleet", FleetConfig(shards=1))
