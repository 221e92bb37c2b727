"""The session core is fully re-entrant: many live Espresso instances.

The fleet layer (repro.fleet) mounts K shard sessions in one process, so
two concurrently open sessions must share *nothing* unless explicitly
told to (a common Clock is the one sanctioned shared object).  Pinned
here: device stats, persist-domain epochs, observatories, clocks,
safety certificates and @persistent_type registries are all
per-instance, and the lint gate (ESP305) keeps the session/core layers
free of module-level mutable state.
"""

from pathlib import Path

from repro.analysis.srclint import lint_paths
from repro.api import Espresso, EspressoConfig
from repro.nvm.clock import Clock
from repro.obs import Observatory
from repro.runtime.klass import FieldKind, field

SRC = Path(__file__).resolve().parents[2] / "src"


def _session(root, name, obs=None):
    cfg = EspressoConfig(observatory=obs)
    jvm = Espresso(root / name, config=cfg)
    jvm.define_class("Node", [field("v", FieldKind.INT),
                              field("next", FieldKind.REF)])
    jvm.create_heap("h", 256 * 1024)
    return jvm


def _churn(jvm, n=8):
    prev = None
    for i in range(n):
        node = jvm.pnew("Node")
        jvm.set_field(node, "v", i)
        if prev is not None:
            jvm.set_field(node, "next", prev)
        jvm.flush_reachable(node)
        prev = node
    jvm.set_root("list", prev)


def test_two_sessions_have_independent_device_stats_and_epochs(tmp_path):
    a = _session(tmp_path, "a")
    b = _session(tmp_path, "b")
    before = b.heaps.heap("h").device.stats.snapshot()

    _churn(a)

    stats_a = a.heaps.heap("h").device.stats
    delta_b = b.heaps.heap("h").device.stats.delta(before)
    assert stats_a.flushes > 0 and stats_a.epochs > 0
    # b saw none of a's traffic: no writes, no flushes, no fence epochs.
    assert delta_b.as_dict() == {"reads": 0, "writes": 0, "flushes": 0,
                                 "fences": 0, "flushes_deduped": 0,
                                 "epochs": 0, "flushes_elided": 0,
                                 "fences_elided": 0}


def test_two_sessions_have_independent_clocks_and_observatories(tmp_path):
    obs_a, obs_b = Observatory(), Observatory()
    a = _session(tmp_path, "a", obs_a)
    b = _session(tmp_path, "b", obs_b)
    assert a.clock is not b.clock
    b_now = b.clock.now_ns
    b_counters = obs_b.metrics.counters_snapshot()

    _churn(a)
    a.persistent_gc()

    assert a.clock.now_ns > 0
    assert b.clock.now_ns == b_now                      # b's time unmoved
    assert obs_b.metrics.counters_since(b_counters) == {}
    assert any(k.startswith("gc.") or k.startswith("pgc.")
               for k in obs_a.metrics.counters_snapshot())


def test_shared_clock_is_opt_in(tmp_path):
    clock = Clock()
    a = Espresso(tmp_path / "a", config=EspressoConfig(clock=clock))
    b = Espresso(tmp_path / "b", config=EspressoConfig(clock=clock))
    assert a.clock is clock and b.clock is clock


def test_type_registries_are_per_session(tmp_path):
    a = _session(tmp_path, "a")
    b = _session(tmp_path, "b")
    a.persistent_type("Node")
    assert "Node" not in b.config.persistent_types
    assert a.config.persistent_types is not b.config.persistent_types


def test_esp305_clean_on_session_and_core_layers():
    """The re-entrancy contract is lint-enforced, not just test-enforced."""
    findings = lint_paths([SRC], rules=("ESP305",))
    assert findings == []
