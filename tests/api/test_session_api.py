"""The Espresso session API: surface, constructor, config carry.

Three contracts pinned here:

* the public surface (names + signatures) is a reviewed artifact —
  adding, removing or reshaping a method must show up as a diff in
  ``EXPECTED_SURFACE`` — and every concept has exactly one entry point
  (no Java-spelled alias, positional shim or forwarding module);
* ``Espresso(dir, config=cfg, **overrides)`` takes any
  ``EspressoConfig`` field by name, the keyword wins, and the caller's
  config object is never mutated by an override;
* ``restart()`` / ``restart(crash=True)`` carry the *full* session
  config — clock, latency, heap config, alias awareness, observatory,
  ``gc_workers``, ``mutators`` — instead of silently resetting knobs to
  defaults.
"""

import inspect
import warnings
from pathlib import Path

import pytest

from repro.api import Espresso, EspressoConfig
from repro.nvm.clock import Clock
from repro.nvm.latency import LatencyConfig
from repro.obs import NULL_OBS, Observatory
from repro.runtime.dram_heap import HeapConfig
from repro.runtime.klass import FieldKind, field

# The public surface: method name -> parameter names (self excluded).
EXPECTED_SURFACE = {
    "open": ["heap_dir", "name", "size_bytes", "safety",
             "region_words", "config"],
    "session": ["heap_dir", "name", "size_bytes", "safety",
                "region_words", "config"],
    "define_class": ["name", "fields", "super_klass"],
    "new": ["klass"],
    "new_array": ["element", "length"],
    "new_string": ["text"],
    "new_multi_array": ["element", "dims"],
    "pnew": ["klass", "heap"],
    "pnew_array": ["element", "length", "heap"],
    "pnew_string": ["text", "heap"],
    "pnew_multi_array": ["element", "dims", "heap"],
    "get_declared_field": ["handle", "field_name"],
    "set_field": ["handle", "name", "value"],
    "get_field": ["handle", "name"],
    "array_get": ["handle", "index"],
    "array_set": ["handle", "index", "value"],
    "array_length": ["handle"],
    "read_string": ["handle"],
    "checkcast": ["handle", "target"],
    "instance_of": ["handle", "target"],
    "create_heap": ["name", "size_bytes", "safety", "region_words"],
    "load_heap": ["name", "safety", "salvage"],
    "exists_heap": ["name"],
    "set_root": ["root_name", "value", "heap"],
    "get_root": ["root_name", "heap"],
    "flush_field": ["handle", "field_name"],
    "flush_array_element": ["handle", "index"],
    "flush_object": ["handle"],
    "flush_reachable": ["handle"],
    "system_gc": [],
    "persistent_gc": ["heap"],
    "persistent_type": ["target"],
    "register_task": ["name", "fn"],
    "resumable_task": ["name", "heap"],
    "shutdown": [],
    "crash": [],
    "restart": ["crash"],
    "mutator_gang": ["seed", "mutators"],
}

#: Second entry points deleted for good; none may come back.
REMOVED_NAMES = ("createHeap", "loadHeap", "existsHeap", "setRoot",
                 "getRoot", "crash_and_restart",
                 "reset_deprecation_warnings", "_warn_alias",
                 "_accept_legacy")


def _params(func):
    return [p for p in inspect.signature(func).parameters if p != "self"]


def test_api_surface_snapshot():
    surface = {}
    for name, member in vars(Espresso).items():
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            continue
        func = member.__func__ if isinstance(member, classmethod) else member
        if callable(func):
            params = _params(func)
            if isinstance(member, classmethod):
                params = [p for p in params if p != "cls"]
            surface[name] = params
    assert surface == EXPECTED_SURFACE


def test_one_entry_point_per_concept():
    import repro.tools
    from repro.fleet import FleetRouter
    for owner in (Espresso, FleetRouter):
        for name in REMOVED_NAMES:
            assert not hasattr(owner, name), (owner.__name__, name)
        for method in ("__init__", "open", "create", "load"):
            func = getattr(owner, method, None)
            if func is not None:
                assert "legacy" not in inspect.signature(func).parameters
    tools = Path(repro.tools.__file__).parent
    assert sorted(p.name for p in tools.glob("*.py")) \
        == ["__init__.py", "fsck.py", "heapdump.py"]


def test_properties_exposed():
    assert isinstance(Espresso.clock, property)
    assert isinstance(Espresso.obs, property)


def test_config_dataclass_fields():
    assert [f.name for f in EspressoConfig.__dataclass_fields__.values()] \
        == ["clock", "latency", "heap_config", "alias_aware", "observatory",
            "gc_workers", "mutators", "elision_certificate",
            "alloc_buffer_words", "resumable",
            "task_registry", "persistent_types"]


def test_keyword_override_wins_over_config(tmp_path):
    cfg = EspressoConfig(gc_workers=1, mutators=2)
    jvm = Espresso(tmp_path / "heaps", gc_workers=3, config=cfg)
    assert jvm.config.gc_workers == 3
    assert jvm.vm.gc_workers == 3
    assert jvm.config.mutators == 2                 # the rest is carried
    # the caller's object is copied, not edited
    assert jvm.config is not cfg
    assert cfg.gc_workers == 1
    assert cfg.persistent_types is None


def test_no_override_keeps_config_identity(tmp_path):
    cfg = EspressoConfig(gc_workers=2)
    assert Espresso(tmp_path / "heaps", config=cfg).config is cfg


def test_every_config_field_is_a_constructor_keyword(tmp_path):
    jvm = Espresso(tmp_path / "heaps", alloc_buffer_words=0, resumable=True)
    assert jvm.vm.alloc_buffer_words == 0
    assert jvm.config.resumable is True


def test_unknown_keyword_and_positional_config_rejected(tmp_path):
    with pytest.raises(TypeError, match="gc_wrokers"):
        Espresso(tmp_path / "heaps", gc_wrokers=3)
    with pytest.raises(TypeError):
        Espresso(tmp_path / "heaps", Clock())
    with pytest.raises(TypeError):
        Espresso.open(tmp_path / "heaps", "box", 128 * 1024)


def test_snake_case_calls_never_warn(tmp_path):
    jvm = Espresso(tmp_path / "heaps")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        jvm.create_heap("h", 64 * 1024)
        jvm.exists_heap("h")
        node = jvm.define_class("N", [field("v", FieldKind.INT)])
        n = jvm.pnew(node)
        jvm.set_root("r", n)
        jvm.get_root("r")
    assert [w for w in caught
            if issubclass(w.category, DeprecationWarning)] == []


def test_open_creates_then_loads(tmp_path):
    jvm = Espresso.open(tmp_path / "heaps", "box", size_bytes=128 * 1024)
    node = jvm.define_class("N", [field("v", FieldKind.INT)])
    n = jvm.pnew(node)
    jvm.set_field(n, "v", 41)
    jvm.flush_reachable(n)
    jvm.set_root("r", n)
    jvm.shutdown()

    jvm2 = Espresso.open(tmp_path / "heaps", "box")  # exists: no size needed
    jvm2.define_class("N", [field("v", FieldKind.INT)])
    assert jvm2.get_field(jvm2.get_root("r"), "v") == 41


def test_open_missing_heap_without_size_raises(tmp_path):
    from repro.errors import IllegalArgumentException
    with pytest.raises(IllegalArgumentException):
        Espresso.open(tmp_path / "heaps", "nope")


def test_session_context_manager_creates_then_loads(tmp_path):
    with Espresso.session(tmp_path / "heaps", "box",
                          size_bytes=128 * 1024) as jvm:
        node = jvm.define_class("N", [field("v", FieldKind.INT)])
        n = jvm.pnew(node)
        jvm.set_field(n, "v", 43)
        jvm.flush_reachable(n)
        jvm.set_root("r", n)
    # clean exit shut the session down; reopening sees the data
    with Espresso.session(tmp_path / "heaps", "box") as jvm2:
        jvm2.define_class("N", [field("v", FieldKind.INT)])
        assert jvm2.get_field(jvm2.get_root("r"), "v") == 43


def test_open_heap_is_the_way_in(tmp_path):
    import repro
    with repro.open_heap(tmp_path / "heaps", "box",
                         size_bytes=128 * 1024) as jvm:
        assert jvm.exists_heap("box")


def test_restart_carries_full_config(tmp_path):
    clock = Clock()
    latency = LatencyConfig(nvm_read_ns=999, nvm_write_ns=999,
                            clflush_ns=999, sfence_ns=999)
    heap_config = HeapConfig(eden_words=4096)
    obs = Observatory()
    jvm = Espresso(tmp_path / "heaps",
                   config=EspressoConfig(clock=clock, latency=latency,
                                         heap_config=heap_config,
                                         alias_aware=False,
                                         observatory=obs))
    jvm.create_heap("h", 64 * 1024)
    jvm2 = jvm.restart()
    assert jvm2.clock is clock                      # explicit clock: shared
    assert jvm2.config.latency is latency
    assert jvm2.config.heap_config is heap_config
    assert jvm2.config.alias_aware is False
    assert jvm2.obs is obs                          # observatory carried
    assert jvm2.vm.alias_aware is False


def test_crash_restart_carries_full_config(tmp_path):
    obs = Observatory()
    latency = LatencyConfig(nvm_read_ns=7, nvm_write_ns=7,
                            clflush_ns=7, sfence_ns=7)
    jvm = Espresso(tmp_path / "heaps", latency=latency, alias_aware=False,
                   observatory=obs, gc_workers=3, mutators=4)
    jvm.create_heap("h", 64 * 1024)
    jvm2 = jvm.restart(crash=True)
    assert jvm2.config.latency is latency
    assert jvm2.config.alias_aware is False
    assert jvm2.obs is obs
    assert jvm2.config.gc_workers == 3
    assert jvm2.config.mutators == 4
    # the carried knob sizes the default gang of the restarted session
    assert jvm2.mutator_gang().n == 4
    assert jvm2.mutator_gang(mutators=2).n == 2


def test_restart_carries_mutators_without_crash(tmp_path):
    jvm = Espresso(tmp_path / "heaps", mutators=8)
    jvm.create_heap("h", 64 * 1024)
    jvm2 = jvm.restart()
    assert jvm2.config.mutators == 8
    assert jvm2.mutator_gang().n == 8


def test_restarted_observatory_rebinds_to_new_clock(tmp_path):
    obs = Observatory()
    jvm = Espresso(tmp_path / "heaps", observatory=obs)
    jvm.create_heap("h", 64 * 1024)
    jvm2 = jvm.restart()
    # config.clock was None, so the successor made a fresh Clock; the
    # carried observatory must follow it (last-bind-wins).
    assert obs.clock is jvm2.clock


def test_default_session_uses_null_obs(tmp_path):
    jvm = Espresso(tmp_path / "heaps")
    assert jvm.obs is NULL_OBS
    assert jvm.obs.enabled is False


def test_heap_dir_kept_as_path(tmp_path):
    jvm = Espresso(str(tmp_path / "heaps"))
    assert isinstance(jvm.heap_dir, Path)
