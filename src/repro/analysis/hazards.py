"""Persist-order hazard analysis over recorded NVM event traces.

The crash-sweep harness discovers ordering bugs *empirically* by failing
a run at every epoch boundary.  This pass finds the same bugs from a
single fault-free run: a :class:`~repro.nvm.persist.PersistEventLog`
records every store, flush, fence and pointer publish the device saw,
and :func:`repro.analysis.events.replay` checks happens-before against
five rules:

* **ESP201 publish-before-persist** — a pointer store became durable at
  a fence, but the pointed-to object's header lines had not become
  durable at any *strictly earlier* fence.  Within one epoch the
  reordered fault model may persist the pointer and drop the header, so
  same-fence durability is still a hazard; a crash in the window
  recovers a reference to an uninterpretable object (paper §3.1).  A
  header line no store of the trace touched before that fence counts as
  durable from before the trace (fence 0): the object was allocated
  before recording began.
* **ESP202 fence-less flush** — a line was flushed after the last fence
  of the trace; under :class:`~repro.nvm.device.FaultMode.REORDERED`
  that flush is revocable at crash time.
* **ESP203 write-after-publish** — a published object's header words
  were rewritten later in the trace and never flushed+fenced again, so
  the durable image holds a stale header behind a durable pointer.
* **ESP204 frame-top-before-frame** — the resume protocol's variant of
  ESP201: a ``("frame", top, frame, words)`` event publishes the
  persistent stack top, whose target span is the *whole frame record*,
  not an object header.  Every line of the record must be durable at a
  strictly earlier fence than the top word.  Frame publishes are exempt
  from ESP203: checkpoints legitimately rewrite a published frame's
  slots, and replay never reads a slot the durable ``pc`` has not
  admitted.
* **ESP205 racy publish without persist edge** — the concurrent-trace
  rule.  Multi-mutator traces tag stores, flushes and publishes with the
  issuing mutator (see :meth:`PersistEventLog.mutator`); the replay then
  has a *per-mutator program order* in addition to the global order of
  the recorded schedule.  A publish by mutator M whose target line was
  last flushed by a different mutator N, with **no fence between N's
  flush and M's publish**, is racy: the recorded schedule happened to
  order the flush first, but nothing synchronises the two mutators, so
  another legal interleaving (or the hardware's write-back timing)
  orders M's publish before N's flush completes — publish-before-persist
  in disguise.  The persist edge must be in M's own program order (M
  flushed the destination itself before linking it — the Zuriel/
  NVTraverse discipline) or separated from the publish by a global
  fence.  Lines never flushed before the publish are left to ESP201,
  which already checks the durability ordering at fence time.

Word offsets in the log are heap-relative, so reports are deterministic
across runs, ``gc_workers`` and ``mutators`` settings (the mutator
gang's schedule is seeded, so the trace itself is replayable).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.diagnostics import Diagnostic, sort_key
from repro.analysis.events import replay


class HazardReport:
    """Hazard findings plus trace statistics."""

    def __init__(self, findings: Sequence[Diagnostic],
                 stats: Dict[str, int]) -> None:
        self.findings = sorted(findings, key=sort_key)
        self.stats = dict(stats)

    def diagnostics(self) -> List[Diagnostic]:
        return list(self.findings)

    @property
    def clean(self) -> bool:
        return not self.findings

    def summary(self) -> dict:
        out = dict(self.stats)
        out["hazards"] = len(self.findings)
        return out

    def to_dict(self) -> dict:
        return {
            "findings": [d.to_dict() for d in self.findings],
            "summary": self.summary(),
        }


def analyze_trace(trace, line_words: Optional[int] = None,
                  header_words: Optional[int] = None) -> HazardReport:
    """The ESP2xx verdicts of one :func:`~repro.analysis.events.replay`
    of a :class:`PersistEventLog` or raw event list."""
    seen = replay(trace, line_words, header_words)
    return HazardReport(seen.hazards, seen.stats)
