"""repro.analysis — static persist-safety analysis for Espresso.

Four passes behind one CLI (``python -m repro.analysis``, ``make
analyze``), all reporting stable ``ESPxxx`` rule codes through the shared
:mod:`repro.analysis.diagnostics` framework:

1. **Persistent closure** (:mod:`repro.analysis.closure`, ESP1xx) —
   classifies every REF field of a persistable class as *closed*,
   *escaping* or *open*; closed class graphs yield a
   :class:`~repro.analysis.certificate.SafetyCertificate` that licenses
   the runtime to elide the per-store safety barrier.
2. **Trace replay** (:mod:`repro.analysis.events`) — one walk of a
   recorded :class:`~repro.nvm.persist.PersistEventLog` yields the
   persist-order hazards (:mod:`repro.analysis.hazards`, ESP2xx) and the
   provably redundant flushes and fences (:mod:`repro.analysis.elision`,
   ESP4xx), whose revocable
   :class:`~repro.analysis.elision.FlushElisionCertificate`
   :class:`~repro.nvm.persist.PersistDomain` consumes at commit time.
3. **Source lint** (:mod:`repro.analysis.srclint`, ESP3xx) — AST rules
   replacing the historical regex greps.
4. **Static persist order** (:mod:`repro.analysis.static_order`,
   ESP5xx) — CFG dataflow with call summaries over the durable
   subsystems' source, on the call table the lint reads too.
"""

from repro.analysis.certificate import SafetyCertificate
from repro.analysis.closure import (
    ClosureReport,
    FieldClassification,
    analyze_closure,
    analyze_vm,
    certify_session,
)
from repro.analysis.diagnostics import (
    AnalysisReport,
    Diagnostic,
    RULE_CATALOGUE,
)
from repro.analysis.elision import (
    ElisionReport,
    FlushElisionCertificate,
    analyze_elision,
    certify_elision,
)
from repro.analysis.hazards import HazardReport, analyze_trace
from repro.analysis.srclint import LintFinding, lint_paths

__all__ = [
    "AnalysisReport",
    "ClosureReport",
    "Diagnostic",
    "ElisionReport",
    "FieldClassification",
    "FlushElisionCertificate",
    "HazardReport",
    "LintFinding",
    "RULE_CATALOGUE",
    "SafetyCertificate",
    "analyze_closure",
    "analyze_elision",
    "analyze_trace",
    "analyze_vm",
    "certify_elision",
    "certify_session",
    "lint_paths",
]
