"""Crash-transparent task execution over a persistent frame stack (§14).

Espresso (the paper) makes the *heap* survive power loss; a crash still
kills the running computation.  This module closes that gap for marked
tasks: their frame stack lives in the PJH frame segment
(:mod:`repro.core.frame_segment`) and is incrementally checkpointed at
frame-boundary safepoints, so ``Espresso.restart(crash=True)`` resumes the
task at the last persisted boundary instead of rerunning it — the
persistent-stack execution model of Aksenov et al. (PAPERS.md).

A task is a registered deterministic function ``fn(task, jvm, *args)``.
It interacts with persistence through exactly two primitives on its
:class:`TaskContext`:

* ``task.step(fn, *args)`` — run ``fn`` and checkpoint its value.  On
  replay after a crash, steps whose checkpoint survived are *skipped* and
  their recorded value returned, so their side effects never re-execute.
* ``task.call(name, *args)`` — invoke another registered task in a child
  frame.  The call's frame is durable, so a crash deep in a sub-task
  resumes inside that sub-task, not at the top.

Step and call values are limited to ``None``, ``int`` and PJH object
handles (checkpointed as heap-relative offsets); the task's final result
to ``None``/``int`` (objects are published via roots).  A step's heap
writes must be made durable through the §3.5 flush APIs before the step
returns — the engine fences the heap's persist domain and then
checkpoints, exactly the user-guaranteed discipline ``pnew`` follows.

Two constraints follow from checkpoints recording object offsets: a task
must be deterministic (replay re-executes unfinished steps), and no
persistent GC may run mid-task (it would move checkpointed referents —
size the heap for the task, or collect between tasks).  The engine runs
one persistent GC in :meth:`ResumeEngine._finalize` and scrubs every
nondeterministic durable area, which is why a resumed run's durable image
is byte-identical to an uncrashed run's (the resume sweep pins this).

This module is deliberately ignorant of :mod:`repro.core`: it drives any
heap object exposing ``frames``/``metadata``/``collect()``/
``canonicalize_durable_image()``/``fence()``/``in_heap_range()`` — the
mirror constants below are pinned against the core definitions in
``tests/runtime/test_resume.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import IllegalArgumentException, ResumeProtocolError

# Durable encodings, mirrored from repro.core.metadata /
# repro.core.frame_segment (this module must not import repro.core).
TASK_NONE = 0
TASK_RUNNING = 1
TASK_DONE = 2

KIND_NONE = 0
KIND_INT = 1
KIND_REF = 2

#: Human-readable task states, indexed by the durable status word.
STATUS_NAMES = {TASK_NONE: "none", TASK_RUNNING: "running",
                TASK_DONE: "done"}

TaskFn = Callable[..., object]


class TaskRegistry:
    """Name -> task function mapping carried in the session config."""

    def __init__(self, functions: Optional[Dict[str, TaskFn]] = None) -> None:
        self._functions: Dict[str, TaskFn] = dict(functions or {})

    def register(self, name: str, fn: TaskFn) -> TaskFn:
        self._functions[name] = fn
        return fn

    def task(self, name: str) -> Callable[[TaskFn], TaskFn]:
        """Decorator form: ``@registry.task("sum")``."""
        return lambda fn: self.register(name, fn)

    def resolve(self, name: str) -> TaskFn:
        try:
            return self._functions[name]
        except KeyError:
            raise ResumeProtocolError(
                f"no task named {name!r} is registered in this session "
                f"(known: {sorted(self._functions)})") from None

    def __contains__(self, name: str) -> bool:
        return name in self._functions


class TaskContext:
    """Handed to a task function; mediates steps and sub-calls.

    ``_pc`` is the frame's durable count of completed steps, ``_site``
    the volatile replay cursor, ``_chain`` the durable descendant frames
    (outermost first) still to be re-entered on this path.
    """

    def __init__(self, engine: "ResumeEngine", offset: int, pc: int,
                 chain: List) -> None:
        self._engine = engine
        self.offset = offset
        self._pc = pc
        self._site = 0
        self._chain = chain

    def step(self, fn: Callable[..., object], *args: object) -> object:
        site = self._site
        self._site += 1
        eng = self._engine
        if site < self._pc:
            eng.obs.inc("resume.steps_skipped")
            return eng.decode(*eng.frames.slot(self.offset, site))
        if self._chain:
            raise ResumeProtocolError(
                f"frame at {self.offset} ran a plain step at site {site} "
                f"but the durable stack recorded a sub-call there — the "
                f"task is not replaying deterministically")
        with eng.obs.span("task.step", site=site):
            value = fn(*args)
        kind, word = eng.encode(value)
        # The step's own flushes become final before its checkpoint can
        # claim it happened.
        eng.heap.fence()
        with eng.obs.span("task.checkpoint", site=site):
            eng.frames.checkpoint(self.offset, site, kind, word)
        eng.obs.inc("resume.steps_executed")
        eng.obs.inc("resume.checkpoints")
        return value

    def call(self, name: str, *args: object) -> object:
        site = self._site
        self._site += 1
        eng = self._engine
        if site < self._pc:
            eng.obs.inc("resume.steps_skipped")
            return eng.decode(*eng.frames.slot(self.offset, site))
        return eng.enter_child(self, site, name, args)


class ResumeEngine:
    """Drives one resumable task over one mounted PJH."""

    def __init__(self, heap, registry: TaskRegistry, session) -> None:
        self.heap = heap
        self.registry = registry
        self.session = session
        self.frames = heap.frames
        self.metadata = heap.metadata
        self.obs = heap.vm.obs

    # ------------------------------------------------------------------
    # Value encoding (durable <kind, word> pairs)
    # ------------------------------------------------------------------
    def encode(self, value: object) -> Tuple[int, int]:
        if value is None:
            return KIND_NONE, 0
        if isinstance(value, bool) or isinstance(value, int):
            return KIND_INT, int(value)
        address = getattr(value, "address", None)
        if address is not None and self.heap.in_heap_range(address):
            return KIND_REF, address - self.heap.base_address
        raise ResumeProtocolError(
            f"checkpointed values must be None, int or a handle to an "
            f"object in this PJH, got {value!r}")

    def decode(self, kind: int, word: int) -> object:
        if kind == KIND_NONE:
            return None
        if kind == KIND_INT:
            return int(word)
        return self.heap.vm.handle(self.heap.base_address + word)

    # ------------------------------------------------------------------
    # Entry: run to completion, resuming whatever the durable state says
    # ------------------------------------------------------------------
    def ensure_completed(self, name: str, args: Sequence[object]) -> object:
        md = self.metadata
        status = md.task_status
        if status == TASK_DONE:
            return self.decode(*md.task_result())
        if status == TASK_RUNNING:
            if self.frames.top > self.frames.offset:
                return self._resume(name, args)
            if md.task_gc_mark != -1:
                # The result was captured and the stack popped; only the
                # finalize tail (GC / scrub / DONE) is left to replay.
                self._finalize(name)
                return self.decode(*md.task_result())
            # Crashed before the root frame was published: start over.
            return self._start(name, args)
        return self._start(name, args)

    def _start(self, name: str, args: Sequence[object]) -> object:
        fn = self.registry.resolve(name)
        encoded = [self.encode(a) for a in args]
        self._init_task()
        with self.obs.span("task.run", task=name):
            offset = self.frames.push(name, encoded, parent=-1, call_pc=-1,
                                      birth_epoch=self.metadata.task_epoch)
            self.obs.inc("resume.frames_pushed")
            ctx = TaskContext(self, offset, pc=0, chain=[])
            result = fn(ctx, self.session, *args)
            self._complete_root(ctx, result)
            self._finalize(name)
        return self.decode(*self.metadata.task_result())

    def _resume(self, name: str, args: Sequence[object]) -> object:
        fn = self.registry.resolve(name)
        encoded = [self.encode(a) for a in args]
        chain = [self.frames.read_frame(off)
                 for off in self.frames.frame_offsets()]
        root = chain[0]
        if root.name != name:
            raise ResumeProtocolError(
                f"heap {self.heap.name!r} has task {root.name!r} in "
                f"flight; cannot run {name!r} until it completes "
                f"(or reset() discards it)")
        if list(root.args) != encoded:
            raise ResumeProtocolError(
                f"task {name!r} was started with arguments "
                f"{list(root.args)} but is being resumed with {encoded}")
        if root.finished:
            # Crash fell between the root seal and the result capture.
            self._finalize(name)
            return self.decode(*self.metadata.task_result())
        with self.obs.span("task.resume", task=name, depth=len(chain)):
            self.obs.inc("resume.frames_replayed")
            ctx = TaskContext(self, root.offset, pc=root.pc, chain=chain[1:])
            result = fn(ctx, self.session, *args)
            self._complete_root(ctx, result)
            self._finalize(name)
        return self.decode(*self.metadata.task_result())

    # ------------------------------------------------------------------
    # Child frames (task.call)
    # ------------------------------------------------------------------
    def enter_child(self, parent: TaskContext, site: int, name: str,
                    args: Sequence[object]) -> object:
        fn = self.registry.resolve(name)
        encoded = [self.encode(a) for a in args]
        if parent._chain:
            child = parent._chain[0]
            if child.parent != parent.offset or child.call_pc != site:
                raise ResumeProtocolError(
                    f"replay called {name!r} at site {site} of the frame "
                    f"at {parent.offset}, but the durable child frame at "
                    f"{child.offset} was pushed from site {child.call_pc}")
            if child.name != name or list(child.args) != encoded:
                raise ResumeProtocolError(
                    f"durable child frame holds {child.name!r}{list(child.args)} "
                    f"but replay called {name!r}{encoded}")
            ctx = TaskContext(self, child.offset, pc=child.pc,
                              chain=parent._chain[1:])
            parent._chain = []
            self.obs.inc("resume.frames_replayed")
        else:
            offset = self.frames.push(name, encoded, parent=parent.offset,
                                      call_pc=site,
                                      birth_epoch=self.metadata.task_epoch)
            self.obs.inc("resume.frames_pushed")
            ctx = TaskContext(self, offset, pc=0, chain=[])
        with self.obs.span("task.call", task=name, site=site):
            result = fn(ctx, self.session, *args)
        kind, word = self.encode(result)
        self.heap.fence()
        # Pop protocol: seal the child, checkpoint the caller from the
        # sealed value, then retreat the top — each boundary resumable.
        self.frames.finish(ctx.offset, kind, word)
        self.frames.checkpoint(parent.offset, site, kind, word,
                               failpoint="resume.pop_checkpointed")
        self.obs.inc("resume.checkpoints")
        self.frames.pop_to(ctx.offset)
        return result

    # ------------------------------------------------------------------
    # Task lifecycle
    # ------------------------------------------------------------------
    def _init_task(self) -> None:
        """Idempotent fresh-task setup; publishing RUNNING comes last."""
        md = self.metadata
        md.set_task_gc_mark(-1)
        md.set_task_result(KIND_NONE, 0)
        self.frames.reset()
        md.set_task_status(TASK_RUNNING)

    def _complete_root(self, ctx: TaskContext, result: object) -> None:
        kind, word = self.encode(result)
        if kind == KIND_REF:
            raise ResumeProtocolError(
                "a task's final result must be None or int — the finalize "
                "GC moves objects, so publish them via set_root instead")
        self.heap.fence()
        self.frames.finish(ctx.offset, kind, word)

    def _finalize(self, name: str) -> None:
        """Converge the durable image and mark the task DONE.

        Every stage is idempotent or guarded by durable state, so the
        whole tail replays after a crash at any point:

        1. capture the sealed root's result, mark the pre-GC timestamp
           (``task_gc_mark``), pop the root;
        2. run exactly one persistent GC (skipped on replay once the
           timestamp moved past the mark);
        3. scrub every durably-divergent area
           (:meth:`~repro.core.persistent_heap.PersistentHeap.canonicalize_durable_image`);
        4. publish ``TASK_DONE`` (single persisted word).
        """
        md = self.metadata
        frames = self.frames
        with self.obs.span("task.finalize", task=name):
            if frames.top > frames.offset:
                root = frames.read_frame(frames.offset)
                if not root.finished:
                    raise ResumeProtocolError(
                        f"finalize reached with an unsealed root frame at "
                        f"{root.offset} (task {root.name!r})")
                md.set_task_result(*root.ret)
                md.set_task_gc_mark(md.global_timestamp)
                frames.pop_to(frames.offset)
            if md.global_timestamp == md.task_gc_mark:
                self.heap.collect()
            self.heap.canonicalize_durable_image()
            md.set_task_status(TASK_DONE)
        self.obs.inc("resume.tasks_completed")


class ResumableTask:
    """Session-level handle for one named task on one heap.

    ``run(*args)`` has *ensure-completed* semantics: it resumes an
    in-flight invocation, returns the stored result of a completed one,
    and only starts fresh when the heap records no task.  ``reset()``
    discards a completed (or in-flight) invocation so the next ``run``
    starts over.
    """

    def __init__(self, session, heap, name: str,
                 registry: TaskRegistry) -> None:
        self.session = session
        self.heap = heap
        self.name = name
        self._engine = ResumeEngine(heap, registry, session)

    @property
    def status(self) -> str:
        return STATUS_NAMES.get(self.heap.metadata.task_status, "corrupt")

    def run(self, *args: object) -> object:
        return self._engine.ensure_completed(self.name, args)

    def reset(self) -> None:
        md = self.heap.metadata
        md.set_task_status(TASK_NONE)
        md.set_task_gc_mark(-1)
        md.set_task_result(KIND_NONE, 0)
        self.heap.frames.reset()

    def result(self) -> object:
        if self.heap.metadata.task_status != TASK_DONE:
            raise IllegalArgumentException(
                f"task {self.name!r} has not completed "
                f"(status: {self.status})")
        return self._engine.decode(*self.heap.metadata.task_result())
