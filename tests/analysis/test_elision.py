"""Flush/fence-elision analysis: the prover, the certificate, the
commit-time consumption in PersistDomain, and the revocation rules."""

import pytest

from repro.analysis.elision import (
    PJH_SCOPES,
    FlushElisionCertificate,
    analyze_elision,
    certify_elision,
)
from repro.nvm.clock import Clock
from repro.nvm.device import LINE_WORDS, NvmDevice
from repro.nvm.persist import PersistDomain, PersistEventLog


def _log(*events):
    log = PersistEventLog(name="synthetic")
    log.events.extend(events)
    return log


# ----------------------------------------------------------------------
# The trace prover (ESP401/ESP402)
# ----------------------------------------------------------------------
class TestAnalyzeElision:
    def test_reflush_without_store_is_redundant(self):
        report = analyze_elision(_log(
            ("store", 0, 8), ("flush", 0), ("fence",),
            ("flush", 0), ("fence",)))
        assert report.redundant_flushes == {0: 1}
        assert report.redundant_fences == 0
        assert report.flushes == 2 and report.fences == 2

    def test_store_between_flushes_clears_redundancy(self):
        report = analyze_elision(_log(
            ("store", 0, 1), ("flush", 0), ("fence",),
            ("store", 3, 1),            # same line: durable copy stale again
            ("flush", 0), ("fence",)))
        assert report.redundant_flushes == {}

    def test_store_spanning_lines_invalidates_all_of_them(self):
        report = analyze_elision(_log(
            ("flush", 0), ("flush", 1), ("fence",),
            ("store", LINE_WORDS - 1, 2),   # crosses the line-0/1 boundary
            ("flush", 0), ("flush", 1)))
        assert report.redundant_flushes == {}

    def test_fence_with_no_flush_since_previous_is_redundant(self):
        report = analyze_elision(_log(
            ("flush", 0), ("fence",), ("fence",), ("store", 0, 1),
            ("fence",)))
        assert report.redundant_fences == 2

    def test_mutator_tagged_events_are_understood(self):
        # Multi-mutator traces carry a trailing mutator index on stores,
        # flushes and publishes; the replay must not trip on it.
        report = analyze_elision(_log(
            ("store", 0, 8, 0), ("flush", 0, 0), ("fence",),
            ("flush", 0, 1), ("fence",)))
        assert report.redundant_flushes == {0: 1}

    def test_diagnostics_codes_and_determinism(self):
        report = analyze_elision(_log(
            ("flush", 3), ("flush", 3), ("flush", 1), ("flush", 1),
            ("fence",), ("fence",)))
        diags = report.diagnostics()
        assert [d.code for d in diags] == ["ESP401", "ESP401", "ESP402"]
        assert [d.where for d in diags[:2]] == ["line 1", "line 3"]
        assert all(d.severity == "info" for d in diags)


# ----------------------------------------------------------------------
# The certificate object
# ----------------------------------------------------------------------
class TestCertificate:
    def test_scope_matching_covers_forks_not_siblings(self):
        cert = FlushElisionCertificate(["pjh:acct"])
        assert cert.covers_domain("pjh:acct")
        assert cert.covers_domain("pjh:acct:gc-w0")
        assert not cert.covers_domain("pjh:acct2")
        assert not cert.covers_domain("pjh-meta")

    def test_revocation_is_permanent_and_audited(self):
        cert = FlushElisionCertificate(["pjh:h"])
        cert.revoke("premise violated", "pjh:h")
        assert not cert.active
        assert not cert.covers_domain("pjh:h")
        assert cert.revocations == [("premise violated", "pjh:h")]

    def test_fingerprint_depends_on_scopes_and_evidence(self):
        a = FlushElisionCertificate(["pjh:h"], trace_name="t",
                                    evidence={"flushes": 10})
        b = FlushElisionCertificate(["pjh:h"], trace_name="t",
                                    evidence={"flushes": 10})
        c = FlushElisionCertificate(["pjh:h"], trace_name="t",
                                    evidence={"flushes": 11})
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != c.fingerprint

    def test_report_certificate_carries_evidence(self):
        report = analyze_elision(_log(
            ("store", 0, 8), ("flush", 0), ("fence",), ("flush", 0),
            ("fence",), ("fence",)))
        cert = report.certificate(["pjh:h"])
        assert cert.evidence == {"flushes": 2, "fences": 3,
                                 "redundant_flushes": 1,
                                 "redundant_fences": 1}
        assert cert.trace_name == "synthetic"


# ----------------------------------------------------------------------
# Commit-time consumption in PersistDomain
# ----------------------------------------------------------------------
@pytest.fixture
def device():
    return NvmDevice(1 << 12, Clock())


@pytest.fixture
def domain(device):
    domain = PersistDomain(device, name="pjh:t")
    domain.elision = FlushElisionCertificate(["pjh:t"])
    return domain


class TestCommitEpochElision:
    def test_durably_equal_line_is_elided_with_its_fence(self, device,
                                                         domain):
        device.write(0, 7)
        domain.persist(0)                      # makes line 0 durable
        flushes, fences = device.stats.flushes, device.stats.fences
        device.write(0, 7)                     # rewrite the same value
        domain.flush(0)
        assert domain.commit_epoch() == 1      # drained, but by proof
        assert device.stats.flushes == flushes
        assert device.stats.fences == fences
        assert device.stats.flushes_elided == 1
        assert device.stats.fences_elided == 1
        assert domain.elision.flushes_elided == 1
        assert domain.elision.fences_elided == 1
        assert domain.pending_lines == 0

    def test_changed_line_still_flushes(self, device, domain):
        device.write(0, 7)
        domain.persist(0)
        device.write(0, 8)                     # durable copy now stale
        domain.flush(0)
        domain.commit_epoch()
        assert device.stats.flushes_elided == 0
        assert domain.read_durable(0) == 8

    def test_mixed_epoch_elides_only_the_redundant_line(self, device,
                                                        domain):
        device.write(0, 1)
        device.write(LINE_WORDS, 2)
        domain.persist(0)
        domain.persist(LINE_WORDS)
        fences = device.stats.fences
        device.write(0, 1)                     # redundant
        device.write(LINE_WORDS, 3)            # genuinely new
        domain.flush(0)
        domain.flush(LINE_WORDS)
        domain.commit_epoch()
        assert device.stats.flushes_elided == 1
        # The epoch still had real work, so its fence was issued.
        assert device.stats.fences == fences + 1
        assert device.stats.fences_elided == 0
        assert domain.read_durable(LINE_WORDS) == 3

    def test_fence_kept_when_an_unfenced_flush_awaits_ordering(
            self, device, domain):
        device.write(0, 1)
        domain.persist(0)
        device.write(LINE_WORDS, 5)
        device.clflush(LINE_WORDS, 1, asynchronous=True)  # no fence yet
        fences = device.stats.fences
        device.write(0, 1)                     # redundant epoch
        domain.flush(0)
        domain.commit_epoch()
        assert device.stats.flushes_elided == 1
        # The fully-elided epoch still fenced: an earlier flush needed it.
        assert device.stats.fences == fences + 1
        assert device.stats.fences_elided == 0

    def test_elision_suspended_while_event_log_traces(self, device, domain):
        device.write(0, 7)
        domain.persist(0)
        device.event_log = PersistEventLog("tap")
        flushes = device.stats.flushes
        device.write(0, 7)
        domain.flush(0)
        domain.commit_epoch()
        assert device.stats.flushes == flushes + 1   # traced = uncertified
        assert device.stats.flushes_elided == 0
        assert [e[0] for e in device.event_log.events] == \
            ["store", "flush", "fence"]

    def test_revoked_certificate_changes_nothing(self, device, domain):
        device.write(0, 7)
        domain.persist(0)
        domain.elision.revoke("test")
        flushes = device.stats.flushes
        device.write(0, 7)
        domain.flush(0)
        domain.commit_epoch()
        assert device.stats.flushes == flushes + 1
        assert device.stats.flushes_elided == 0

    def test_fork_inherits_the_certificate(self, domain):
        child = domain.fork("gc-w0")
        assert child.elision is domain.elision
        assert child.elision.covers_domain(child.name)

    def test_uncovered_domain_never_elides(self, device):
        other = PersistDomain(device, name="h2-wal")
        other.elision = FlushElisionCertificate(["pjh:t"])
        device.write(0, 7)
        other.persist(0)
        device.write(0, 7)
        other.flush(0)
        other.commit_epoch()
        assert device.stats.flushes_elided == 0


# ----------------------------------------------------------------------
# certify_elision: the hazard gate and session installation
# ----------------------------------------------------------------------
class TestCertifyElision:
    def test_refuses_a_trace_with_hazard_errors(self):
        # A pointer made durable while its target never was: ESP201.
        log = _log(("store", 0, 8),
                   ("publish", 16 * LINE_WORDS, 0),
                   ("flush", 16), ("fence",))
        with pytest.raises(ValueError, match="hazard error"):
            certify_elision(None, log, scopes=("pjh:t",), install=False)

    def test_reads_the_trace_once(self):
        """The hazard gate and the elision proof come from one replay."""
        class CountingLog:
            name = "counted"
            reads = 0

            @property
            def events(self):
                self.reads += 1
                return [("store", 0, 8), ("flush", 0), ("fence",),
                        ("flush", 0), ("fence",)]

        log = CountingLog()
        cert = certify_elision(None, log, scopes=("pjh:t",), install=False)
        assert log.reads == 1
        assert cert.evidence["redundant_flushes"] == 1

    def test_explicit_scopes_need_no_session(self):
        log = _log(("store", 0, 8), ("flush", 0), ("fence",),
                   ("flush", 0), ("fence",))
        cert = certify_elision(None, log,
                               scopes=("pjh:t",) + PJH_SCOPES,
                               install=False)
        assert cert.active
        assert cert.covers_domain("pjh:t")
        assert cert.evidence["redundant_flushes"] == 1

    def test_session_install_reaches_every_component_domain(self, tmp_path):
        from repro.api import Espresso

        jvm = Espresso(tmp_path)
        jvm.create_heap("h", 256 * 1024)
        heap = jvm.heaps.heap("h")
        log = heap.enable_event_log("probe")
        from repro.runtime.klass import FieldKind, field
        jvm.define_class("Box", [field("v", FieldKind.INT)])
        box = jvm.pnew("Box")
        jvm.flush_reachable(box)
        jvm.flush_reachable(box)            # provably redundant
        heap.disable_event_log()
        cert = certify_elision(jvm, log)
        assert jvm.vm.elision_certificate is cert
        assert jvm.config.elision_certificate is cert
        for component in (heap.persist, heap.metadata.persist,
                          heap.name_table.persist,
                          heap.klass_segment.persist, heap.frames.persist):
            assert component.elision is cert
            assert cert.covers_domain(component.name)

    def test_certificate_survives_restart_via_config(self, tmp_path):
        from repro.api import Espresso
        from repro.runtime.klass import FieldKind, field

        jvm = Espresso(tmp_path)
        jvm.create_heap("h", 256 * 1024)
        jvm.define_class("Box", [field("v", FieldKind.INT)])
        heap = jvm.heaps.heap("h")
        log = heap.enable_event_log("probe")
        box = jvm.pnew("Box")
        jvm.flush_reachable(box)
        heap.disable_event_log()
        cert = certify_elision(jvm, log)
        jvm = jvm.restart()
        jvm.load_heap("h")
        assert jvm.vm.elision_certificate is cert
        assert jvm.heaps.heap("h").persist.elision is cert
