"""Java-flavoured exception hierarchy for the Espresso reproduction.

The original system is a modified JVM, so the error conditions it raises are
Java exceptions.  We mirror the ones that matter for the paper's semantics
(e.g. the alias-Klass discussion hinges on when ``ClassCastException`` is or
is not thrown) plus the runtime errors our substrates need.
"""

from __future__ import annotations


class EspressoError(Exception):
    """Base class for every error raised by this library."""


class JavaThrowable(EspressoError):
    """Base class for the Java-exception lookalikes."""


class ClassCastException(JavaThrowable):
    """Raised by ``checkcast`` when the target type does not match.

    The alias-Klass machinery exists precisely to avoid raising this for
    logically-identical classes that live both in DRAM and NVM (paper §3.2).
    """


class NullPointerException(JavaThrowable):
    """Raised when dereferencing a null reference.

    Under zeroing safety, stale NVM->DRAM pointers are nullified at load time
    so a careless access raises this instead of corrupting memory (§3.4).
    """


class OutOfMemoryError(JavaThrowable):
    """Raised when a heap space cannot satisfy an allocation."""


class IllegalStateException(JavaThrowable):
    """Raised on API misuse (e.g. commit without an active transaction)."""


class IllegalArgumentException(JavaThrowable):
    """Raised on malformed arguments to public APIs."""


class ArrayIndexOutOfBoundsException(JavaThrowable):
    """Raised on out-of-range array element access."""


class NoSuchFieldException(JavaThrowable):
    """Raised when reflective field lookup fails (flush API, enhancer)."""


class HeapExistsError(EspressoError):
    """Raised by ``createHeap`` when the name is already taken."""


class HeapNotFoundError(EspressoError):
    """Raised by ``loadHeap`` when the name manager has no such heap."""


class HeapCorruptionError(EspressoError):
    """Raised when a persistent image fails validation on load."""


class CorruptHeapError(HeapCorruptionError):
    """Structured corruption report: names the failing region.

    ``region`` is a dotted path identifying what failed integrity checking
    (e.g. ``"metadata.layout"``, ``"name_table.entry[3]"``, ``"klass-segment"``),
    ``detail`` the human-readable reason.  Subclasses
    :class:`HeapCorruptionError` so existing ``except HeapCorruptionError``
    handlers keep working.
    """

    def __init__(self, region: str, detail: str) -> None:
        super().__init__(f"{region}: {detail}")
        self.region = region
        self.detail = detail


class SimulatedCrash(EspressoError):
    """Raised by a failpoint to model a machine crash.

    Everything not yet flushed to the durable domain of the NVM device is
    lost; tests catch this, reload the heap and run recovery.
    """


class ResumeProtocolError(EspressoError):
    """Raised when a resumable task's replay diverges from its durable stack.

    On resume, the task function re-executes from the top and must request
    the same call sequence (names, arguments, step sites) that built the
    persisted frames.  A mismatch means the task is not deterministic — or
    the registry maps its name to different code — and blind replay would
    corrupt the image, so the engine refuses instead.
    """


class TransactionAbort(EspressoError):
    """Raised to roll back an ACID transaction (PCJ, PJO, H2)."""


class SqlError(EspressoError):
    """Raised by the H2 substrate on parse or execution errors."""


class UnsafePointerError(EspressoError):
    """Raised by the type-based safety checker on an NVM->DRAM store."""


class ShardDownError(EspressoError):
    """Raised by the fleet router when a request targets a crashed shard.

    Sessions hash to exactly one shard and never migrate silently; while
    that shard is down its traffic fails fast instead of landing on a
    sibling whose heap does not hold the session's data.
    """

    def __init__(self, shard: int, session_id: str) -> None:
        super().__init__(
            f"shard {shard} is down (session {session_id!r} routes there)")
        self.shard = shard
        self.session_id = session_id


class FleetBusyError(EspressoError):
    """Raised by fleet admission control when a shard's queue is full.

    Backpressure, not buffering: beyond ``max_in_flight`` queued requests
    per shard the router refuses new work so one hot shard cannot grow an
    unbounded backlog.
    """

    def __init__(self, shard: int, in_flight: int) -> None:
        super().__init__(
            f"shard {shard} at admission limit ({in_flight} in flight)")
        self.shard = shard
        self.in_flight = in_flight
