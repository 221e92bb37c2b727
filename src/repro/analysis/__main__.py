"""CLI for the persist-safety analyzer: ``python -m repro.analysis``.

Three passes behind one entry point (``make analyze`` runs all that
apply):

* **lint** — AST source rules ESP301/ESP302/ESP303 over ``src/`` and
  ``examples/`` (or ``--paths``); restrict with ``--rules``.
* **closure** — ``--closure-schema`` boots a throwaway Espresso session,
  defines the JPAB BasicTest DBPersistable schema and classifies every
  reference field (ESP101 escaping fields fail the run; ``--verbose``
  adds the informational ESP102-105).
* **hazards** — ``--trace FILE`` replays a recorded
  :class:`~repro.nvm.persist.PersistEventLog` through the
  happens-before checker (ESP201-ESP205).
* **elision** — ``--trace FILE --elision`` also reports the
  flush/fence redundancy the same replay proves (ESP401/ESP402).
* **static order** — ``--static-order`` runs the CFG + call-summary
  persist-order verifier (ESP501-505) over the in-tree durable
  subsystems (or ``--paths``); ``--assumptions FILE`` supplies justified
  suppressions/contracts.

Findings print one per line (``CODE where: message``); ``--json`` emits
the full report.  A baseline file of finding fingerprints suppresses
known findings (``--baseline``).
``--update-baseline`` regenerates the baseline *family-aware*: only the
fingerprints of rule families whose passes actually ran are replaced,
and the update is refused outright while error-severity findings are
present (errors are fixed or justified in the assumptions file, never
baselined).  Exit codes: 0 clean, 1 findings remain, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.diagnostics import (
    RULE_CATALOGUE,
    AnalysisReport,
    Baseline,
)

_REPO_ROOT = Path(__file__).resolve().parents[3]


def _default_lint_roots() -> list:
    roots = [_REPO_ROOT / "src"]
    examples = _REPO_ROOT / "examples"
    if examples.is_dir():
        roots.append(examples)
    return roots


def _parse_rules(spec):
    from repro.analysis.srclint import ALL_RULES
    if spec is None:
        return None
    rules = tuple(code.strip().upper() for code in spec.split(",")
                  if code.strip())
    unknown = [code for code in rules if code not in ALL_RULES]
    if unknown:
        raise SystemExit(f"unknown lint rule(s): {', '.join(unknown)} "
                         f"(have: {', '.join(ALL_RULES)})")
    return rules


def _run_lint(report: AnalysisReport, paths, rules) -> None:
    from repro.analysis.srclint import lint_paths
    findings = lint_paths(paths, rules=rules)
    by_code: dict = {}
    for f in findings:
        by_code[f.code] = by_code.get(f.code, 0) + 1
    report.add_pass("lint", [f.to_diagnostic() for f in findings],
                    {"files_scanned_from": [str(p) for p in paths],
                     "by_code": by_code})


def _run_closure(report: AnalysisReport, verbose: bool) -> None:
    """Define the BasicTest dbp schema in a scratch session and analyze it."""
    import tempfile

    from repro.analysis.closure import analyze_vm
    from repro.runtime.klass import CHAR_ARRAY_KLASS_NAME, STRING_KLASS_NAME

    with tempfile.TemporaryDirectory(prefix="repro-analyze-") as tmp:
        from repro.api import Espresso
        from repro.jpab import BASIC_TEST
        from repro.pjo.provider import PjoEntityManager
        jvm = Espresso(Path(tmp))
        jvm.create_heap("jpab", 8 * 1024 * 1024)
        em = PjoEntityManager(jvm)
        em.create_schema(BASIC_TEST.entities)
        db_names = {name for name in jvm.vm.metaspace.names()
                    if name.startswith("db.")}
        persist_only = (db_names | jvm.config.persistent_types.names()
                        | {STRING_KLASS_NAME, CHAR_ARRAY_KLASS_NAME})
        closure = analyze_vm(jvm.vm, persist_only=persist_only)
    summary = closure.summary()
    summary["certified_fields"] = len(closure.certificate())
    report.add_pass("closure", closure.diagnostics(include_open=verbose),
                    summary)


def _run_trace(report: AnalysisReport, trace_path: Path,
               elision: bool) -> None:
    """Load the log once and replay it once, for one or both passes."""
    from repro.analysis.elision import ElisionReport
    from repro.analysis.events import replay
    from repro.analysis.hazards import HazardReport
    from repro.nvm.persist import PersistEventLog
    seen = replay(PersistEventLog.load(trace_path))
    passes = {"hazards": HazardReport(seen.hazards, seen.stats)}
    if elision:
        passes["elision"] = ElisionReport.of(seen)
    for name, result in passes.items():
        summary = result.summary()
        summary["trace"] = trace_path.name
        report.add_pass(name, result.diagnostics(), summary)


def _run_static_order(report: AnalysisReport, paths,
                      assumptions_path) -> None:
    from repro.analysis.static_order import (Assumptions, analyze_paths,
                                             load_assumptions)
    if assumptions_path is not None and assumptions_path.exists():
        assumptions = load_assumptions(assumptions_path)
    else:
        assumptions = Assumptions.empty()
    result = analyze_paths(paths=paths, repo_root=_REPO_ROOT,
                           assumptions=assumptions)
    report.add_pass("static_order", result.diagnostics(), result.summary())


#: Rule family (the ESP digit) each pass owns, for family-aware baseline
#: regeneration: --update-baseline only replaces fingerprints of families
#: whose passes actually ran, so e.g. the elision-pass entries survive a
#: run that did not load a trace.
_PASS_FAMILY = {"lint": "3", "closure": "1", "hazards": "2",
                "elision": "4", "static_order": "5"}


def _fingerprint_family(fingerprint: str) -> str:
    return fingerprint[3] if fingerprint.startswith("ESP") \
        and len(fingerprint) > 3 else "?"


def _update_baseline(report: AnalysisReport, path: Path) -> int:
    errors = report.errors()
    if errors:
        for diag in errors:
            print(diag.render())
        print(f"repro.analysis: refusing to update {path}: "
              f"{len(errors)} error-severity finding(s) present — fix "
              f"them or justify them in the assumptions file")
        return 2
    old = Baseline.load(path) if path.exists() else Baseline()
    ran = {_PASS_FAMILY.get(name) for name in report.passes}
    kept = {fp for fp in old.fingerprints
            if _fingerprint_family(fp) not in ran}
    new = {d.fingerprint for d in report.findings}
    added = sorted(new - old.fingerprints)
    removed = sorted(fp for fp in old.fingerprints
                     if _fingerprint_family(fp) in ran and fp not in new)
    Baseline(kept | new).save(path)
    print(f"updated {path}: +{len(added)} -{len(removed)} "
          f"({len(kept | new)} total)")
    for fp in added:
        print(f"  + {fp}")
    for fp in removed:
        print(f"  - {fp}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static persist-safety analyzer (lint / closure / "
                    "hazard passes).")
    parser.add_argument("--paths", nargs="*", type=Path, default=None,
                        help="lint these roots instead of src/ + examples/")
    parser.add_argument("--rules", default=None, metavar="CSV",
                        help="comma-separated lint rule codes (e.g. "
                             "ESP301,ESP302)")
    parser.add_argument("--closure-schema", action="store_true",
                        help="run the persistent-closure pass over the "
                             "JPAB BasicTest DBPersistable schema")
    parser.add_argument("--trace", type=Path, default=None, metavar="FILE",
                        help="replay a saved PersistEventLog through the "
                             "persist-order hazard pass")
    parser.add_argument("--elision", action="store_true",
                        help="with --trace: also run the flush/fence-"
                             "elision pass (ESP401/ESP402 redundancy "
                             "findings)")
    parser.add_argument("--static-order", action="store_true",
                        help="run the static persist-order verifier "
                             "(ESP501-505) over the in-tree durable "
                             "subsystems, or over --paths when given")
    parser.add_argument("--assumptions", type=Path, default=None,
                        metavar="FILE",
                        help="with --static-order: justified suppressions "
                             "and defers-fence contracts (JSON; every "
                             "entry must carry a 'why')")
    parser.add_argument("--update-baseline", action="store_true",
                        help="regenerate the --baseline file from this "
                             "run's findings (family-aware: only rule "
                             "families whose passes ran are replaced); "
                             "refused while error findings are present")
    parser.add_argument("--verbose", action="store_true",
                        help="include informational closure diagnostics "
                             "(ESP102-105)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the full report as JSON")
    parser.add_argument("--baseline", type=Path, default=None, metavar="FILE",
                        help="suppress findings whose fingerprints appear "
                             "in this baseline file")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args(argv)
    if args.elision and args.trace is None:
        parser.error("--elision needs --trace FILE")

    if args.list_rules:
        for code in sorted(RULE_CATALOGUE):
            severity, description = RULE_CATALOGUE[code]
            print(f"{code}  {severity:<8} {description}")
        return 0

    report = AnalysisReport()
    _run_lint(report, args.paths or _default_lint_roots(),
              _parse_rules(args.rules))
    if args.closure_schema:
        _run_closure(report, args.verbose)
    if args.trace is not None:
        _run_trace(report, args.trace, args.elision)
    if args.static_order:
        _run_static_order(report, args.paths, args.assumptions)

    if args.update_baseline:
        baseline_path = args.baseline \
            or (_REPO_ROOT / "analysis-baseline.json")
        return _update_baseline(report, baseline_path)

    suppressed = 0
    if args.baseline is not None and args.baseline.exists():
        suppressed = report.apply_baseline(Baseline.load(args.baseline))

    if args.as_json:
        sys.stdout.write(report.to_json())
    else:
        for diag in report.findings:
            print(diag.render())
        passes = ", ".join(sorted(report.passes)) or "none"
        tail = f" ({suppressed} suppressed by baseline)" if suppressed else ""
        errors = len(report.errors())
        total = len(report.findings)
        if total:
            print(f"repro.analysis: {total} finding(s), {errors} error(s) "
                  f"[passes: {passes}]{tail}")
        else:
            print(f"repro.analysis: clean [passes: {passes}]{tail}")
    return 1 if report.findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
