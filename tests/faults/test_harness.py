"""Unit tests for the generic crash :class:`Sweep`.

The subject is a toy two-word protocol over a bare NvmDevice: word 0 and
word 64 (different cache lines) are updated together under a tiny
log-free "both-or-detect" discipline, which is intentionally broken so the
tests can watch the sweep catch it.
"""

from types import SimpleNamespace

import pytest

from repro.faults import Sweep, SweepReport
from repro.nvm.clock import Clock
from repro.nvm.device import FaultMode, NvmDevice
from repro.nvm.failpoints import FailpointRegistry

A, B = 0, 64  # two words on different cache lines


def _correct_sweep(bomb="flush", rounds=4, teardowns=None, fsck=None,
                   **fast):
    """A sweep over a fenced two-word protocol: invariant always holds."""

    def setup():
        return SimpleNamespace(device=NvmDevice(256, Clock()),
                               registry=FailpointRegistry())

    def workload(ctx):
        d = ctx.device
        for i in range(1, rounds + 1):
            d.write(A, i)
            d.clflush(A)
            d.fence()
            ctx.registry.hit("toy.a_persisted")
            d.write(B, i)
            d.clflush(B)
            d.fence()
            ctx.registry.hit("toy.b_persisted")

    def recover(ctx):
        ctx.device.crash()
        return ctx

    def invariant(rctx, completed):
        a = rctx.device.read(A)
        b = rctx.device.read(B)
        assert a - b in (0, 1), (a, b)  # B trails A by at most one round
        if completed:
            assert a == b == rounds

    return Sweep(
        "toy", bomb=bomb, **fast,
        setup=setup, workload=workload, recover=recover,
        invariant=invariant, fsck=fsck,
        teardown=(lambda ctx, rctx: teardowns.append((ctx, rctx)))
        if teardowns is not None else None,
        devices=lambda ctx: [ctx.device],
        registry=lambda ctx: ctx.registry)


class TestFlushSweep:
    def test_exhausts_and_reports(self):
        report = _correct_sweep().run()
        assert isinstance(report, SweepReport)
        assert report.exhausted
        # 8 flushes total: 8 crash points, then one clean completion.
        assert report.crash_points == 8
        assert len(report.iterations) == 9
        assert report.iterations[-1].completed
        assert "exhausted" in report.summary()

    def test_max_points_caps_the_walk(self):
        report = _correct_sweep(fast_max_points=3).run(exhaustive=False)
        assert len(report.iterations) == 3
        assert not report.exhausted
        assert "capped" in report.summary()

    def test_stride_skips_points(self):
        report = _correct_sweep(fast_stride=3).run(exhaustive=False)
        assert [it.point for it in report.iterations] == [1, 4, 7, 10]

    def test_clflush_restored_after_each_iteration(self):
        teardowns = []
        sweep = _correct_sweep(teardowns=teardowns, fast_max_points=2)
        sweep.run(exhaustive=False)
        # The bomb restores the real method on exit: no instance-level
        # wrapper may survive an iteration.
        for ctx, _rctx in teardowns:
            assert "clflush" not in vars(ctx.device)

    def test_detects_unfenced_protocol_under_torn_mode(self):
        # Break the protocol: write both words, flush only the first.
        def setup():
            return SimpleNamespace(device=NvmDevice(256, Clock()))

        def workload(ctx):
            d = ctx.device
            for i in range(1, 5):
                d.write(A, i)
                d.write(B, i)
                d.clflush(A)
                d.fence()

        def recover(ctx):
            ctx.device.crash()
            return ctx

        def invariant(rctx, completed):
            assert rctx.device.read(A) == rctx.device.read(B)

        sweep = Sweep(
            "broken", bomb="flush", setup=setup, workload=workload,
            recover=recover, invariant=invariant,
            devices=lambda ctx: [ctx.device])
        with pytest.raises(AssertionError):
            sweep.run(FaultMode.ATOMIC)


class TestFailpointSweep:
    def test_global_sweep_exhausts(self):
        report = _correct_sweep("failpoint", rounds=3).run()
        assert report.exhausted
        assert report.crash_points == 6  # 2 sites x 3 rounds
        assert report.strategy == "failpoint-global"

    def test_site_sweep_only_counts_one_site(self):
        report = _correct_sweep("failpoint", rounds=3).run_site(
            "toy.b_persisted")
        assert report.exhausted
        assert report.crash_points == 3
        assert report.strategy == "failpoint-site:toy.b_persisted"

    def test_registry_disarmed_after_each_iteration(self):
        teardowns = []
        _correct_sweep("failpoint", rounds=2, teardowns=teardowns).run()
        for ctx, _rctx in teardowns:
            assert not ctx.registry._armed  # finally-clause cleared it


class TestCallbacks:
    def test_teardown_runs_for_every_iteration(self):
        teardowns = []
        _correct_sweep(rounds=2, teardowns=teardowns).run()
        assert len(teardowns) == 5  # 4 crash points + 1 completion
        # Crashing iterations still got a recovered context.
        assert all(rctx is not None for _, rctx in teardowns)

    def test_teardown_runs_when_invariant_fails(self):
        teardowns = []

        def bad_invariant(rctx, completed):
            raise AssertionError("always wrong")

        sweep = _correct_sweep(rounds=2, teardowns=teardowns)
        sweep.invariant = bad_invariant
        with pytest.raises(AssertionError):
            sweep.run()
        assert len(teardowns) == 1
        # Recovery ran, the invariant blew up afterwards.
        assert teardowns[0][1] is not None

    def test_dirty_fsck_fails_the_iteration(self):
        def dirty_fsck(rctx):
            return SimpleNamespace(clean=False, errors=["boom"])

        sweep = _correct_sweep(fsck=dirty_fsck)
        with pytest.raises(AssertionError, match="fsck dirty"):
            sweep.run()

    def test_clean_fsck_recorded_on_iterations(self):
        def clean_fsck(rctx):
            return SimpleNamespace(clean=True, errors=[])

        report = _correct_sweep(rounds=2, fsck=clean_fsck).run()
        assert all(it.fsck_clean for it in report.iterations)

    def test_unknown_fault_mode_rejected(self):
        with pytest.raises(ValueError, match="fault mode"):
            _correct_sweep().run("lava")

    def test_unknown_bomb_kind_rejected(self):
        with pytest.raises(ValueError, match="bomb kind"):
            _correct_sweep(bomb="meteor")


class TestBackstop:
    """Hitting DEFAULT_MAX_POINTS without completion is an error, not a
    quietly "capped" report — the fast cap opts into partial coverage, the
    default backstop does not."""

    def test_default_cap_raises_when_workload_never_completes(self,
                                                              monkeypatch):
        import repro.faults.harness as harness_mod
        monkeypatch.setattr(harness_mod, "DEFAULT_MAX_POINTS", 3)
        with pytest.raises(RuntimeError, match="backstop"):
            _correct_sweep(rounds=100).run()

    def test_explicit_max_points_still_returns_capped_report(self,
                                                             monkeypatch):
        import repro.faults.harness as harness_mod
        monkeypatch.setattr(harness_mod, "DEFAULT_MAX_POINTS", 3)
        report = _correct_sweep(rounds=100, fast_max_points=3).run(
            exhaustive=False)
        assert len(report.iterations) == 3
        assert not report.exhausted
        assert "capped" in report.summary()

    def test_default_cap_quiet_when_workload_completes(self, monkeypatch):
        import repro.faults.harness as harness_mod
        # 2 rounds = 4 flushes: exhausts on iteration 5, inside the cap.
        monkeypatch.setattr(harness_mod, "DEFAULT_MAX_POINTS", 8)
        report = _correct_sweep(rounds=2).run()
        assert report.exhausted


class TestTimelineDump:
    """A failing check ships the traced contexts' span timelines."""

    @staticmethod
    def _traced_sweep(invariant, **fast):
        from repro.obs import Observatory

        def setup():
            clock = Clock()
            obs = Observatory(clock)
            return SimpleNamespace(device=NvmDevice(256, clock),
                                   obs=obs, clock=clock)

        def workload(ctx):
            d = ctx.device
            for i in range(1, 4):
                with ctx.obs.span("toy.round", i=i):
                    d.write(A, i)
                    d.clflush(A)
                    d.fence()

        def recover(ctx):
            ctx.device.crash()
            with ctx.obs.span("toy.recover"):
                ctx.clock.charge(1)
            return ctx

        return Sweep(
            "traced-toy", bomb="flush", **fast,
            setup=setup, workload=workload, recover=recover,
            invariant=invariant, devices=lambda ctx: [ctx.device])

    def test_failure_includes_timelines(self):
        def bad_invariant(rctx, completed):
            raise AssertionError("wrong state")

        sweep = self._traced_sweep(bad_invariant)
        with pytest.raises(AssertionError) as excinfo:
            sweep.run()
        message = str(excinfo.value)
        assert "wrong state" in message
        assert "crashed context timeline" in message
        assert "toy.round" in message
        assert "toy.recover" in message

    def test_passing_sweep_has_no_dump_overhead(self):
        report = self._traced_sweep(lambda rctx, completed: None).run()
        assert report.exhausted

    def test_untraced_context_fails_plainly(self):
        def bad_invariant(rctx, completed):
            raise AssertionError("plain failure")

        sweep = _correct_sweep(rounds=2)
        sweep.invariant = bad_invariant
        with pytest.raises(AssertionError) as excinfo:
            sweep.run()
        assert "timeline" not in str(excinfo.value)

    def test_simulated_crash_from_recovery_not_wrapped(self):
        def recover(ctx):
            from repro.errors import SimulatedCrash
            raise SimulatedCrash("recovery hit the bomb")

        sweep = self._traced_sweep(lambda rctx, completed: None,
                                   fast_max_points=1)
        sweep.recover = recover
        from repro.errors import SimulatedCrash
        with pytest.raises(SimulatedCrash):
            sweep.run(exhaustive=False)
