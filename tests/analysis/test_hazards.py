"""Persist-order hazard analysis over recorded event traces.

Raw traces seed the three hazard classes; a live session's recorded
trace (the real allocation + publication protocol) must come back clean.
"""

import json

from repro.analysis.hazards import analyze_trace
from repro.api import Espresso
from repro.nvm.persist import PersistEventLog
from repro.runtime.klass import FieldKind, field
from tests.analysis.test_srclint import run_cli

# Offsets are device-relative words; LINE_WORDS is 8, so offset 0 is
# line 0 and offset 64 is line 8.
TARGET = 0      # object header at line 0
SLOT = 64       # pointer slot at line 8


def codes(report):
    return [d.code for d in report.findings]


class TestSeededTraces:
    def test_publish_before_persist_flagged(self):
        """The seeded hazard: pointer durable, target header not."""
        trace = [
            ("store", TARGET, 2),          # init target header
            ("store", SLOT, 1),            # write the pointer
            ("publish", SLOT, TARGET),
            ("flush", SLOT // 8),          # flush only the slot line
            ("fence",),                    # pointer durable, header not
        ]
        report = analyze_trace(trace)
        assert codes(report) == ["ESP201"]
        assert f"slot {SLOT} -> target {TARGET}" in report.findings[0].where

    def test_same_fence_publication_is_still_a_hazard(self):
        """Header and pointer in one epoch: REORDERED may persist the
        pointer first, so 'same fence' does not satisfy happens-before."""
        trace = [
            ("store", TARGET, 2),
            ("store", SLOT, 1),
            ("publish", SLOT, TARGET),
            ("flush", TARGET // 8),
            ("flush", SLOT // 8),
            ("fence",),
        ]
        assert codes(analyze_trace(trace)) == ["ESP201"]

    def test_header_persisted_first_is_clean(self):
        trace = [
            ("store", TARGET, 2),
            ("flush", TARGET // 8),
            ("fence",),                    # header durable in epoch 1
            ("store", SLOT, 1),
            ("publish", SLOT, TARGET),
            ("flush", SLOT // 8),
            ("fence",),                    # pointer durable in epoch 2
        ]
        report = analyze_trace(trace)
        assert report.clean
        assert report.stats["publishes"] == 1

    def test_fenceless_flush_flagged(self):
        trace = [
            ("store", TARGET, 1),
            ("flush", TARGET // 8),        # flushed, never fenced
        ]
        assert codes(analyze_trace(trace)) == ["ESP202"]

    def test_flush_of_clean_line_ignored(self):
        trace = [("flush", 3)]             # nothing dirty on line 3
        assert analyze_trace(trace).clean

    def test_write_after_publish_flagged(self):
        trace = [
            ("store", TARGET, 2),
            ("flush", TARGET // 8),
            ("fence",),
            ("store", SLOT, 1),
            ("publish", SLOT, TARGET),
            ("flush", SLOT // 8),
            ("fence",),
            ("store", TARGET, 1),          # rewrite the published header
        ]
        report = analyze_trace(trace)
        assert "ESP203" in codes(report)

    def test_rewritten_header_repersisted_is_clean(self):
        trace = [
            ("store", TARGET, 2),
            ("flush", TARGET // 8),
            ("fence",),
            ("store", SLOT, 1),
            ("publish", SLOT, TARGET),
            ("flush", SLOT // 8),
            ("fence",),
            ("store", TARGET, 1),
            ("flush", TARGET // 8),
            ("fence",),                    # re-persisted: no hazard
        ]
        assert analyze_trace(trace).clean

    def test_unpublished_slot_never_flagged(self):
        """A flush-before-publish of the slot line must not count as the
        pointer's persistence (the flush snapshotted a pre-store value)."""
        trace = [
            ("store", SLOT, 1),
            ("flush", SLOT // 8),
            ("fence",),
            ("store", TARGET, 2),
            ("store", SLOT, 1),
            ("publish", SLOT, TARGET),
        ]
        report = analyze_trace(trace)
        # Slot never re-flushed after publish: the pointer never became
        # durable, so no ESP201 — but the dirty lines were never fenced.
        assert "ESP201" not in codes(report)


class TestRecordingStartedLate:
    """A trace may begin after its objects were allocated and persisted."""

    def test_publish_to_a_never_stored_target_is_clean(self):
        """No store of the trace touched the header: it was durable
        before recording began (fence 0), so the publish is ordered."""
        trace = [
            ("store", SLOT, 1),
            ("publish", SLOT, TARGET),
            ("flush", SLOT // 8),
            ("fence",),
        ]
        report = analyze_trace(trace)
        assert report.clean, [d.render() for d in report.findings]
        assert report.stats["publishes"] == 1

    def test_header_stored_in_the_trace_and_left_unfenced_is_flagged(self):
        """A header the trace did store is judged exactly as before."""
        trace = [
            ("store", SLOT, 1),
            ("publish", SLOT, TARGET),
            ("store", TARGET, 2),          # header rewritten, never flushed
            ("flush", SLOT // 8),
            ("fence",),
        ]
        assert "ESP201" in codes(analyze_trace(trace))


class TestFrameTraces:
    """ESP204: the resume protocol's frame-top publish ordering."""

    FRAME = 128     # frame record at line 16, 64 words = lines 16..23
    TOP = 42        # metadata frame-top word at line 5

    def test_record_persisted_first_is_clean(self):
        trace = [
            ("store", self.FRAME, 64),
            *[("flush", line) for line in range(16, 24)],
            ("fence",),                    # whole record durable, epoch 1
            ("frame", self.TOP, self.FRAME, 64),
            ("store", self.TOP, 1),
            ("flush", self.TOP // 8),
            ("fence",),                    # top durable, epoch 2
        ]
        report = analyze_trace(trace)
        assert report.clean, [d.render() for d in report.findings]
        assert report.stats["frame_publishes"] == 1

    def test_top_before_record_flagged(self):
        """Publishing the top in the same epoch as (or before) the frame
        record is the hazard the push protocol exists to avoid."""
        trace = [
            ("store", self.FRAME, 64),
            ("frame", self.TOP, self.FRAME, 64),
            ("store", self.TOP, 1),
            ("flush", self.TOP // 8),
            ("fence",),                    # top durable, record not
        ]
        report = analyze_trace(trace)
        assert codes(report) == ["ESP204"]
        assert f"frame-top {self.TOP} -> frame {self.FRAME}" \
            in report.findings[0].where

    def test_partially_persisted_record_flagged(self):
        """Every line of the record counts, not just the first."""
        trace = [
            ("store", self.FRAME, 64),
            ("flush", 16),                 # only the record's first line
            ("fence",),
            ("frame", self.TOP, self.FRAME, 64),
            ("store", self.TOP, 1),
            ("flush", self.TOP // 8),
            ("fence",),
        ]
        assert codes(analyze_trace(trace)) == ["ESP204"]

    def test_checkpoint_rewrite_of_published_frame_is_exempt(self):
        """Checkpoints rewrite published frames by design: no ESP203."""
        trace = [
            ("store", self.FRAME, 64),
            *[("flush", line) for line in range(16, 24)],
            ("fence",),
            ("frame", self.TOP, self.FRAME, 64),
            ("store", self.TOP, 1),
            ("flush", self.TOP // 8),
            ("fence",),
            # A checkpoint: step slot + pc rewritten in the record...
            ("store", self.FRAME + 26, 2),
            ("store", self.FRAME + 21, 1),
            ("flush", (self.FRAME + 26) // 8),
            ("flush", (self.FRAME + 21) // 8),
            ("fence",),
        ]
        assert analyze_trace(trace).clean

    def test_object_publish_rewrite_still_flagged(self):
        """The exemption is frame-specific: an object publish followed by
        an unpersisted header rewrite keeps firing ESP203."""
        trace = [
            ("store", TARGET, 2),
            ("flush", TARGET // 8),
            ("fence",),
            ("store", SLOT, 1),
            ("publish", SLOT, TARGET),
            ("flush", SLOT // 8),
            ("fence",),
            ("store", TARGET, 1),          # header rewritten, never fenced
        ]
        assert codes(analyze_trace(trace)) == ["ESP203"]


class TestEventLogRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        log = PersistEventLog("t")
        log.record_store(TARGET, 2)
        log.record_flush(0)
        log.record_fence()
        log.record_publish(SLOT, TARGET)
        path = tmp_path / "trace.json"
        log.save(path)
        loaded = PersistEventLog.load(path)
        assert loaded.events == log.events


class TestTraceCli:
    """``python -m repro.analysis --trace FILE [--elision]``."""

    @staticmethod
    def _saved_log(tmp_path):
        log = PersistEventLog("cli")
        log.record_store(TARGET, 2)
        log.record_store(SLOT, 1)
        log.record_publish(SLOT, TARGET)
        log.record_flush(SLOT // 8)
        log.record_fence()             # ESP201: pointer durable, header not
        log.record_flush(SLOT // 8)    # ESP401: nothing stored since
        log.record_fence()
        log.record_fence()             # ESP402: no flush since
        log.record_store(TARGET, 1)    # ESP203: published header rewritten
        log.record_flush(TARGET // 8)  # ESP202: never fenced
        path = tmp_path / "trace.json"
        log.save(path)
        (tmp_path / "empty").mkdir()   # lint root with nothing to lint
        return path, tmp_path / "empty"

    def test_trace_reports_hazards(self, tmp_path):
        path, empty = self._saved_log(tmp_path)
        proc = run_cli("--paths", empty, "--trace", path)
        assert proc.returncode == 1
        found = {code for code in ("ESP201", "ESP202", "ESP203", "ESP401",
                                   "ESP402") if code in proc.stdout}
        assert found == {"ESP201", "ESP202", "ESP203"}

    def test_elision_adds_the_redundancy_pass(self, tmp_path):
        path, empty = self._saved_log(tmp_path)
        proc = run_cli("--paths", empty, "--trace", path, "--elision",
                       "--json")
        assert proc.returncode == 1
        passes = json.loads(proc.stdout)["passes"]
        assert set(passes) == {"lint", "hazards", "elision"}
        assert {d["code"] for d in passes["hazards"]} \
            == {"ESP201", "ESP202", "ESP203"}
        assert {d["code"] for d in passes["elision"]} == {"ESP401", "ESP402"}

    def test_elision_without_trace_is_a_usage_error(self, tmp_path):
        proc = run_cli("--paths", tmp_path, "--elision")
        assert proc.returncode == 2
        assert "--elision needs --trace FILE" in proc.stderr


class TestLiveTrace:
    def test_real_session_protocol_is_hazard_free(self, tmp_path):
        """pnew + set_field + flush_reachable replays clean: the heap's
        allocation protocol persists every header before any pointer to
        it can be published."""
        jvm = Espresso(tmp_path)
        node = jvm.define_class("Node", [field("v", FieldKind.INT),
                                         field("next", FieldKind.REF)])
        jvm.create_heap("h", 256 * 1024)
        heap = jvm.heaps.heap("h")
        log = heap.enable_event_log()
        head = jvm.pnew(node)
        for i in range(5):
            n = jvm.pnew(node)
            jvm.set_field(n, "v", i)
            jvm.set_field(n, "next", jvm.get_field(head, "next"))
            jvm.set_field(head, "next", n)
            jvm.flush_reachable(head)
        jvm.set_root("head", head)
        heap.disable_event_log()
        report = analyze_trace(log)
        assert report.stats["publishes"] >= 5
        assert report.findings == [], [d.render() for d in report.findings]

    def test_elision_suspended_while_tracing(self, tmp_path):
        """An installed certificate must not hide publishes from the
        trace: the publish tap disables elision."""
        from repro.analysis.closure import certify_session
        jvm = Espresso(tmp_path)
        jvm.define_class("Person", [
            field("name", FieldKind.REF, declared="java.lang.String")])
        jvm.create_heap("h", 256 * 1024)
        certify_session(jvm, persist_only={"Person"})
        heap = jvm.heaps.heap("h")
        log = heap.enable_event_log()
        p = jvm.pnew("Person")
        jvm.set_field(p, "name", jvm.pnew_string("x"))
        jvm.flush_reachable(p)
        heap.disable_event_log()
        assert any(e[0] == "publish" for e in log.events)
        assert analyze_trace(log).clean

    def test_resume_protocol_is_hazard_free(self, tmp_path):
        """A resumable task's full lifetime — pushes, checkpoints, child
        frames, pops, finalize — replays with zero ESP2xx findings: the
        frame protocol persists every record before publishing the top."""
        from repro.api import EspressoConfig

        jvm = Espresso(tmp_path,
                       config=EspressoConfig(resumable=True))
        jvm.define_class("RNode", [field("v", FieldKind.INT),
                                   field("next", FieldKind.REF)])
        jvm.create_heap("h", 512 * 1024)

        @jvm.register_task("build")
        def build(task, s, n):
            prev = None
            total = 0
            for i in range(n):
                prev = task.step(_mk_node, s, i, prev)
                total += task.call("weigh", i)
            s.set_root("list", prev)
            return total

        @jvm.register_task("weigh")
        def weigh(task, s, i):
            return task.step(lambda: i * i)

        heap = jvm.heaps.heap("h")
        log = heap.enable_event_log()
        assert jvm.resumable_task("build").run(3) == 5
        heap.disable_event_log()
        report = analyze_trace(log)
        # One root + three child frames published through the log.
        assert report.stats["frame_publishes"] >= 4
        assert report.findings == [], [d.render() for d in report.findings]


def _mk_node(s, i, prev):
    node = s.pnew("RNode")
    s.set_field(node, "v", i)
    if prev is not None:
        s.set_field(node, "next", prev)
    s.flush_reachable(node)
    return node


class TestRacyPublish:
    """ESP205: cross-mutator publishes need a persist edge."""

    def test_cross_mutator_publish_same_epoch_is_racy(self):
        """Mutator 1 publishes a pointer whose target only mutator 0
        flushed, with no fence between: under another interleaving the
        publish may land before the flush."""
        trace = [
            ("store", TARGET, 2, 0),
            ("flush", TARGET // 8, 0),     # m0 flushed the header...
            ("store", SLOT, 1, 1),
            ("publish", SLOT, TARGET, 1),  # ...but m1 publishes, no fence
            ("flush", SLOT // 8, 1),
            ("fence",),
        ]
        report = analyze_trace(trace)
        assert "ESP205" in codes(report)
        esp205 = [d for d in report.findings if d.code == "ESP205"][0]
        assert "mutator 1" in esp205.message
        assert report.stats["mutators"] == 2

    def test_same_mutator_program_order_is_clean(self):
        trace = [
            ("store", TARGET, 2, 0),
            ("flush", TARGET // 8, 0),
            ("fence",),
            ("store", SLOT, 1, 0),
            ("publish", SLOT, TARGET, 0),  # same mutator: program order
            ("flush", SLOT // 8, 0),
            ("fence",),
        ]
        assert analyze_trace(trace).clean

    def test_fence_between_flush_and_publish_is_clean(self):
        trace = [
            ("store", TARGET, 2, 0),
            ("flush", TARGET // 8, 0),
            ("fence",),                    # global persist edge
            ("store", SLOT, 1, 1),
            ("publish", SLOT, TARGET, 1),  # cross-mutator, but ordered
            ("flush", SLOT // 8, 1),
            ("fence",),
        ]
        assert analyze_trace(trace).clean

    def test_untagged_traces_never_fire_esp205(self):
        """Single-mutator (legacy) traces carry no tags; the racy-publish
        rule stays out of their way even when the shape matches."""
        trace = [
            ("store", TARGET, 2),
            ("flush", TARGET // 8),
            ("store", SLOT, 1),
            ("publish", SLOT, TARGET),
            ("flush", SLOT // 8),
            ("fence",),
        ]
        report = analyze_trace(trace)
        assert "ESP205" not in codes(report)
        assert report.stats["mutators"] == 0

    def test_live_gang_trace_is_hazard_free(self, tmp_path):
        """The shipped lock-free map protocol under a contended 3-mutator
        gang replays with zero findings — including ESP205."""
        from repro.workloads.concurrent_kv import ConcurrentKvWorkload

        jvm = Espresso(tmp_path / "heaps", mutators=3)
        jvm.create_heap("kv", 2 * 1024 * 1024)
        heap = jvm.heaps.heap("kv")
        log = heap.enable_event_log()
        workload = ConcurrentKvWorkload(jvm, mutators=3,
                                        ops_per_mutator=6, seed=4)
        workload.run(event_log=log)
        heap.disable_event_log()
        report = analyze_trace(log)
        assert report.stats["mutators"] == 3
        assert report.stats["publishes"] > 0
        assert report.findings == [], [d.render() for d in report.findings]
