"""Espresso: the user-facing facade tying the VM and PJH together.

One :class:`Espresso` object plays the role of one JVM process with the
paper's extensions: ``new``/``pnew``, the Table 1 heap-management APIs
(snake_case: ``create_heap`` is the paper's ``createHeap``), the §3.5
flush APIs, an :class:`~repro.obs.Observatory` at ``jvm.obs``, and
restart/crash simulation for exercising recovery.

Quickstart (the paper's Figure 11)::

    from repro import Espresso, FieldKind, field

    jvm = Espresso(heap_dir="/tmp/heaps")
    Person = jvm.define_class("Person", [field("id", FieldKind.INT),
                                         field("name", FieldKind.REF)])
    if jvm.exists_heap("Jimmy"):
        jvm.load_heap("Jimmy")
        p = jvm.checkcast(jvm.get_root("Jimmy_info"), "Person")
    else:
        jvm.create_heap("Jimmy", 1024 * 1024)
        p = jvm.pnew(Person)
        jvm.set_field(p, "id", 1)
        jvm.set_field(p, "name", jvm.pnew_string("Jimmy"))
        jvm.set_root("Jimmy_info", p)

or, with the create-or-load convenience (``repro.open_heap`` is *the*
recommended way in — keyword-only, context-managed)::

    with repro.open_heap("/tmp/heaps", "Jimmy",
                         size_bytes=1024 * 1024) as jvm:
        ...
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.core.flush_api import (
    FlushReport,
    flush_array_element,
    flush_field,
    flush_object,
    flush_reachable,
)
from repro.core.heap_manager import HeapManager
from repro.core.persistent_heap import PersistentHeap
from repro.core.safety import PersistentTypeRegistry, SafetyLevel
from repro.nvm.clock import Clock
from repro.nvm.latency import DEFAULT_LATENCY, LatencyConfig
from repro.obs import NULL_OBS, Observatory
from repro.runtime.dram_heap import HeapConfig
from repro.runtime.klass import FieldDescriptor, FieldKind, Klass
from repro.runtime.objects import ObjectHandle
from repro.runtime.resume import ResumableTask, TaskRegistry
from repro.runtime.vm import EspressoVM

@dataclass
class EspressoConfig:
    """Everything that shapes one Espresso session, bundled.

    Passing a config (or letting :meth:`Espresso.restart` carry one
    forward) guarantees no knob is silently dropped across restarts.
    ``observatory=None`` means the zero-cost no-op recorder.
    """

    clock: Optional[Clock] = None
    latency: LatencyConfig = DEFAULT_LATENCY
    heap_config: HeapConfig = dataclass_field(default_factory=HeapConfig)
    alias_aware: bool = True
    observatory: Optional[Observatory] = None
    #: Simulated GC gang width: old GC (DRAM and PJH), crash recovery and
    #: the zeroing load scan all fan out over this many workers.  The
    #: durable heap image is byte-identical for any value; only the
    #: simulated pause (max over workers) changes.
    gc_workers: int = 1
    #: Simulated mutator gang width (mirroring ``gc_workers``): the
    #: default size of :meth:`Espresso.mutator_gang`.  Like the GC knob
    #: it never changes *what* a seeded run computes — interleavings are
    #: chosen by the gang's seed, not by this count — only how many
    #: simulated threads the work fans out over.
    mutators: int = 1
    #: Analyzer-issued flush/fence-elision certificate (a
    #: :class:`repro.analysis.elision.FlushElisionCertificate`, kept
    #: untyped to avoid a hard dependency).  Installed on the VM and
    #: carried across restart/restart(crash=True); consumed by each
    #: heap's :class:`~repro.nvm.persist.PersistDomain` at
    #: ``commit_epoch`` time; see
    #: :func:`repro.analysis.elision.certify_elision`.
    elision_certificate: Optional[object] = None
    #: Per-mutator allocation-buffer size in 8-byte words (§17).  Each
    #: simulated mutator bump-allocates from a private buffer this big,
    #: persisting the replicated ``top`` once per refill instead of once
    #: per ``pnew``.  ``0`` disables buffering (every allocation claims
    #: and persists ``top`` directly, the pre-§17 behaviour).  The durable
    #: image is byte-identical for any value after
    #: ``canonicalize_durable_image()`` / shutdown.
    alloc_buffer_words: int = 256
    #: Opt into crash-transparent execution (§14): unlocks
    #: :meth:`Espresso.register_task` / :meth:`Espresso.resumable_task`,
    #: whose frame stacks live in the PJH frame segment and survive
    #: ``restart(crash=True)``.
    resumable: bool = False
    #: The session's :class:`~repro.runtime.resume.TaskRegistry`.  Shared
    #: by reference across restarts (``replace(config)`` keeps it), so a
    #: resumed process sees the same task functions.
    task_registry: Optional[TaskRegistry] = None
    #: The session's ``@persistent_type`` annotation registry (type-based
    #: safety, §3.4).  Per-session so concurrently open sessions never see
    #: each other's annotations; carried by reference across restarts.
    #: ``None`` means a fresh empty registry is made at construction.
    persistent_types: Optional[PersistentTypeRegistry] = None


class Espresso:
    """One simulated JVM with Espresso's persistence extensions."""

    def __init__(self, heap_dir: Union[str, Path], *,
                 config: Optional[EspressoConfig] = None,
                 **overrides) -> None:
        """*overrides* are :class:`EspressoConfig` fields by name
        (``Espresso(dir, gc_workers=3)``); they win over *config*, which
        is copied, not mutated.  An unknown name is a ``TypeError``.
        """
        config = config if config is not None else EspressoConfig()
        if overrides:
            config = replace(config, **overrides)
        self.config = config
        if config.persistent_types is None:
            config.persistent_types = PersistentTypeRegistry()
        obs = config.observatory if config.observatory is not None else NULL_OBS
        self.vm = EspressoVM(clock=config.clock, latency=config.latency,
                             heap_config=config.heap_config,
                             alias_aware=config.alias_aware, obs=obs,
                             gc_workers=config.gc_workers)
        self.vm.elision_certificate = config.elision_certificate
        self.vm.alloc_buffer_words = config.alloc_buffer_words
        self.vm.persistent_types = config.persistent_types
        self.heaps = HeapManager(self.vm, heap_dir)
        self.heap_dir = Path(heap_dir)

    @classmethod
    def open(cls, heap_dir: Union[str, Path], name: str, *,
             size_bytes: Optional[int] = None,
             safety: SafetyLevel = SafetyLevel.USER_GUARANTEED,
             region_words: int = 1024,
             config: Optional[EspressoConfig] = None) -> "Espresso":
        """Create-or-load convenience: a session with ``name`` mounted.

        Loads the heap if it exists (``size_bytes`` is then ignored —
        the stored geometry wins), creates it otherwise.  Creating a
        heap that does not exist yet requires ``size_bytes``.  This is
        the one keyword-only config path shared with
        :meth:`FleetRouter.load <repro.fleet.FleetRouter.load>`; prefer
        :func:`repro.open_heap` / :meth:`session` as the way in.
        """
        jvm = cls(heap_dir, config=config)
        if jvm.exists_heap(name):
            jvm.load_heap(name, safety)
        else:
            if size_bytes is None:
                from repro.errors import IllegalArgumentException
                raise IllegalArgumentException(
                    f"heap {name!r} does not exist and no size_bytes was "
                    f"given to create it")
            jvm.create_heap(name, size_bytes, safety, region_words)
        return jvm

    @classmethod
    def session(cls, heap_dir: Union[str, Path],
                name: Optional[str] = None, *,
                size_bytes: Optional[int] = None,
                safety: SafetyLevel = SafetyLevel.USER_GUARANTEED,
                region_words: int = 1024,
                config: Optional[EspressoConfig] = None) -> "Espresso":
        """Context-managed session: ``with Espresso.session(...) as jvm:``.

        With *name* the heap is mounted create-or-load (like
        :meth:`open`); without, the session starts with no heap mounted.
        Exiting the ``with`` block shuts down cleanly — or crashes the
        session (losing unflushed lines) if the body raised, exactly
        like the plain constructor's context manager.
        """
        if name is None:
            return cls(heap_dir, config=config)
        return cls.open(heap_dir, name, size_bytes=size_bytes,
                        safety=safety, region_words=region_words,
                        config=config)

    # -- class definition ---------------------------------------------------
    def define_class(self, name: str,
                     fields: Sequence[FieldDescriptor] = (),
                     super_klass: Optional[Klass] = None) -> Klass:
        return self.vm.define_class(name, fields, super_klass)

    # -- allocation -----------------------------------------------------------
    def new(self, klass: Union[Klass, str]) -> ObjectHandle:
        return self.vm.new(klass)

    def new_array(self, element: Union[Klass, FieldKind],
                  length: int) -> ObjectHandle:
        return self.vm.new_array(element, length)

    def new_string(self, text: str) -> ObjectHandle:
        return self.vm.new_string(text)

    def pnew(self, klass: Union[Klass, str],
             heap: Optional[str] = None) -> ObjectHandle:
        return self.vm.pnew(klass, heap)

    def pnew_array(self, element: Union[Klass, FieldKind], length: int,
                   heap: Optional[str] = None) -> ObjectHandle:
        return self.vm.pnew_array(element, length, heap)

    def pnew_string(self, text: str,
                    heap: Optional[str] = None) -> ObjectHandle:
        return self.vm.pnew_string(text, heap)

    def new_multi_array(self, element, dims) -> ObjectHandle:
        return self.vm.new_multi_array(element, dims)

    def pnew_multi_array(self, element, dims,
                         heap: Optional[str] = None) -> ObjectHandle:
        return self.vm.pnew_multi_array(element, dims, heap)

    def get_declared_field(self, handle: ObjectHandle, field_name: str):
        """Figure 12's reflective field access: returns an object with
        .flush(obj)/.get(obj)/.set(obj, v)."""
        from repro.core.flush_api import get_declared_field
        return get_declared_field(self.vm, handle, field_name)

    # -- object access (delegation) ---------------------------------------------
    def set_field(self, handle, name, value):
        self.vm.set_field(handle, name, value)

    def get_field(self, handle, name):
        return self.vm.get_field(handle, name)

    def array_get(self, handle, index):
        return self.vm.array_get(handle, index)

    def array_set(self, handle, index, value):
        self.vm.array_set(handle, index, value)

    def array_length(self, handle):
        return self.vm.array_length(handle)

    def read_string(self, handle):
        return self.vm.read_string(handle)

    def checkcast(self, handle, target):
        return self.vm.checkcast(handle, target)

    def instance_of(self, handle, target):
        return self.vm.instance_of(handle, target)

    # -- Table 1 heap management APIs ----------------------------------------
    def create_heap(self, name: str, size_bytes: int,
                    safety: SafetyLevel = SafetyLevel.USER_GUARANTEED,
                    region_words: int = 1024) -> PersistentHeap:
        return self.heaps.create_heap(name, size_bytes, safety, region_words)

    def load_heap(self, name: str,
                  safety: SafetyLevel = SafetyLevel.USER_GUARANTEED,
                  salvage: bool = False) -> PersistentHeap:
        return self.heaps.load_heap(name, safety, salvage)

    def exists_heap(self, name: str) -> bool:
        return self.heaps.exists_heap(name)

    def set_root(self, root_name: str, value: Optional[ObjectHandle],
                 heap: Optional[str] = None) -> None:
        self.heaps.set_root(root_name, value, heap)

    def get_root(self, root_name: str,
                 heap: Optional[str] = None) -> Optional[ObjectHandle]:
        return self.heaps.get_root(root_name, heap)

    # -- type-based safety annotations (§3.4) --------------------------------
    def persistent_type(self, target):
        """Annotate a class (or class-name string) as persistable under
        this session's type-based safety.  Usable as a decorator; returns
        *target*.  The registry lives in the session config
        (``persistent_types``), so annotations never leak into other
        concurrently open sessions and survive ``restart``.
        """
        return self.config.persistent_types.add(target)

    # -- §3.5 flush APIs --------------------------------------------------------------
    def flush_field(self, handle: ObjectHandle, field_name: str) -> None:
        flush_field(self.vm, handle, field_name)

    def flush_array_element(self, handle: ObjectHandle, index: int) -> None:
        flush_array_element(self.vm, handle, index)

    def flush_object(self, handle: ObjectHandle) -> None:
        flush_object(self.vm, handle)

    def flush_reachable(self, handle: ObjectHandle) -> "FlushReport":
        """Transitively persist the closure; one line flush per cache line.

        Returns a :class:`~repro.core.flush_api.FlushReport` (object and
        line counts).
        """
        return flush_reachable(self.vm, handle)

    # -- GC --------------------------------------------------------------------------------
    def system_gc(self) -> None:
        """java.lang.System.gc(): collect the DRAM heap."""
        self.vm.full_gc()

    def persistent_gc(self, heap: Optional[str] = None):
        """Force a collection of a PJH instance (System.gc() on PJH)."""
        service = self.vm._service_for(heap)
        return service.collect()

    # -- crash-transparent tasks (§14; requires resumable=True) --------------
    def register_task(self, name: str, fn=None):
        """Register a deterministic task function ``fn(task, jvm, *args)``.

        Usable as a decorator (``@jvm.register_task("sum")``).  The
        registry lives in the session config, so ``restart(crash=True)``
        carries it into the resumed process.
        """
        self._require_resumable()
        if self.config.task_registry is None:
            self.config.task_registry = TaskRegistry()
        if fn is None:
            return self.config.task_registry.task(name)
        return self.config.task_registry.register(name, fn)

    def resumable_task(self, name: str,
                       heap: Optional[str] = None) -> ResumableTask:
        """A handle for running task ``name`` crash-transparently.

        ``run(*args)`` executes to completion, checkpointing at every
        frame boundary; after ``restart(crash=True)`` (and
        :meth:`load_heap`), calling ``run`` again resumes at the last
        persisted boundary instead of starting over.
        """
        self._require_resumable()
        service = self.vm._service_for(heap)
        registry = self.config.task_registry
        if registry is None:
            registry = self.config.task_registry = TaskRegistry()
        return ResumableTask(self, service, name, registry)

    def _require_resumable(self) -> None:
        if not self.config.resumable:
            from repro.errors import IllegalStateException
            raise IllegalStateException(
                "crash-transparent tasks need "
                "EspressoConfig(resumable=True)")

    # -- restart / crash simulation ------------------------------------------------------------
    def shutdown(self) -> None:
        """Gracefully persist and unload every mounted heap."""
        with self.obs.span("session.shutdown"):
            for name in list(self.heaps.mounted_names()):
                self.heaps.unload_heap(name)

    def crash(self) -> None:
        """Power loss: every mounted heap loses its unflushed lines."""
        with self.obs.span("session.crash"):
            for name in list(self.heaps.mounted_names()):
                self.heaps.unload_heap(name, crash=True)

    def restart(self, crash: bool = False) -> "Espresso":
        """Come back as a fresh 'JVM process' with the same session
        config (clock, latency, heap config, observatory, ``gc_workers``,
        ``mutators``, ...).

        ``crash=False`` shuts down gracefully first; ``crash=True``
        simulates power loss — every mounted heap drops its unflushed
        lines — before the new process starts.
        """
        if crash:
            self.crash()
        else:
            self.shutdown()
        return Espresso(self.heap_dir, config=replace(self.config))

    # -- context manager: `with Espresso(...) as jvm:` shuts down cleanly ----
    def __enter__(self) -> "Espresso":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.shutdown()
        else:
            # Something went wrong mid-flight: persist only what was
            # explicitly flushed, exactly like a crash would.
            self.crash()

    # -- concurrent mutation (§16) -------------------------------------------
    def mutator_gang(self, seed: int = 0,
                     mutators: Optional[int] = None):
        """A :class:`~repro.runtime.mutators.MutatorGang` on this
        session's clock: *mutators* simulated threads (default the
        config's ``mutators`` knob) interleaved by a schedule seeded
        with *seed* — same seed, same interleaving, same durable image.
        """
        from repro.runtime.mutators import MutatorGang
        width = self.config.mutators if mutators is None else mutators
        return MutatorGang(self.clock, mutators=width, seed=seed,
                           obs=self.obs, vm=self.vm)

    @property
    def clock(self) -> Clock:
        return self.vm.clock

    @property
    def obs(self) -> Observatory:
        """The session's observability recorder (NULL_OBS when disabled)."""
        return self.vm.obs


def open_heap(heap_dir: Union[str, Path], name: str, *,
              size_bytes: Optional[int] = None,
              safety: SafetyLevel = SafetyLevel.USER_GUARANTEED,
              region_words: int = 1024,
              config: Optional[EspressoConfig] = None) -> Espresso:
    """THE way into a single-heap session: create-or-load ``name``.

    Keyword-only beyond ``(heap_dir, name)`` and usable as a context
    manager::

        with repro.open_heap("/tmp/heaps", "Jimmy",
                             size_bytes=1024 * 1024) as jvm:
            ...

    Equivalent to :meth:`Espresso.open` with the redesigned keyword-only
    signature; multi-shard sessions use
    :meth:`repro.fleet.FleetRouter.session` the same way.
    """
    return Espresso.open(heap_dir, name, size_bytes=size_bytes,
                         safety=safety, region_words=region_words,
                         config=config)
