"""What every experiment shares: the :class:`Experiment` record and tables.

Results are *simulated* time from the deterministic clock, so repeated runs
are bit-identical; the paper's absolute numbers are not reproduced (its
substrate was a Xeon + NVDIMM, ours is a simulator) — the shapes are, and
each experiment's ``check`` says which.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Sequence,
                    Tuple)


@dataclass(frozen=True)
class Experiment:
    """One paper experiment, declared once beside its ``run()``.

    ``run(heap_dir=<scratch dir>, **size)`` returns the module's result
    object.  ``full`` is the documented size ``python -m repro.bench``
    runs, ``ci`` the size tier-1 runs.  ``table`` renders the result as
    the paper's rows; ``check`` asserts the paper's shape claim on it —
    each assertion names the claim, like a ``Sweep`` invariant — and must
    hold at both sizes; ``payload`` flattens the result into the
    JSON-able dict ``--json`` writes.
    """

    name: str
    title: str
    run: Callable[..., Any]
    full: Mapping[str, Any]
    ci: Mapping[str, Any]
    table: Callable[[Any], str]
    check: Callable[[Any], None]
    payload: Callable[[Any], Dict[str, Any]]


def slash_keys(cells: Mapping[Tuple[str, ...], Any]) -> Dict[str, Any]:
    """JSON has no tuple keys: ``("H2-PJO", "Create")`` becomes
    ``"H2-PJO/Create"``."""
    return {"/".join(key): value for key, value in cells.items()}


def shares_table(shares: Mapping[str, float], paper: Mapping[str, float],
                 label: str, title: str) -> str:
    """A breakdown figure: one row per category of *paper*, measured share
    beside the paper's."""
    return format_table(
        [label, "Measured", "Paper"],
        [(category.capitalize(), f"{shares.get(category, 0.0):.1f}%",
          f"{reference:.1f}%") for category, reference in paper.items()],
        title=title)


def per_op_ns(clock, action: Callable[[int], Any], count: int) -> float:
    """Mean simulated ns of ``action(i)`` over ``i in range(count)``."""
    start = clock.now_ns
    for i in range(count):
        action(i)
    return (clock.now_ns - start) / count


def format_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: str = "") -> str:
    """Plain ASCII table (no external deps)."""
    rendered_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in rendered_rows:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)


def breakdown_percentages(breakdown: Dict[str, float],
                          order: Sequence[str]) -> Dict[str, float]:
    """Normalise a clock breakdown into percentages over *order* + Other."""
    total = sum(breakdown.values())
    if total <= 0:
        return {key: 0.0 for key in list(order) + ["other"]}
    known = {key: 100.0 * breakdown.get(key, 0.0) / total for key in order}
    known["other"] = 100.0 * (
        total - sum(breakdown.get(key, 0.0) for key in order)) / total
    return known


_ELISION_LEGS = ("coalesced", "baseline", "certified")


def flush_elision_summary(counters: Mapping[str, Mapping[str, int]],
                          images: Mapping[str, Any],
                          fsck_clean: Mapping[str, bool],
                          cert, probe_log) -> Dict[str, object]:
    """clflush/sfence totals and reductions of a flush-elision bench, plus
    the safety evidence.  *counters* / *images* / *fsck_clean* map the
    three legs to device counter dicts, durable images and fsck verdicts.

    ``reduction`` (the pinned number) compares the certified run against
    the *coalesced* leg — PR 2's epoch-coalescing protocol with neither
    TLABs nor a certificate — so it captures the whole buffered+elided
    delta.  ``elision_reduction`` isolates the certificate's share
    (certified vs the buffered-uncertified baseline); that pair runs the
    identical allocation protocol, so its durable images must match byte
    for byte (SHA-256).  The hazard verdict is the probe trace's
    ESP201-205 pass.
    """
    from repro.analysis.hazards import analyze_trace

    summary: Dict[str, object] = {
        label: {key: counters[label][key]
                for key in ("flushes", "fences",
                            "flushes_elided", "fences_elided")}
        for label in _ELISION_LEGS}
    totals = {label: summary[label]["flushes"] + summary[label]["fences"]
              for label in _ELISION_LEGS}
    summary["reduction"] = (1.0 - totals["certified"] / totals["coalesced"]
                            if totals["coalesced"] else 0.0)
    summary["elision_reduction"] = (
        1.0 - totals["certified"] / totals["baseline"]
        if totals["baseline"] else 0.0)
    hazard_diags = analyze_trace(probe_log).diagnostics()
    summary["hazards"] = {
        "errors": sum(1 for d in hazard_diags if d.severity == "error"),
        "warnings": sum(1 for d in hazard_diags if d.severity == "warning"),
    }
    digests = {label: hashlib.sha256(images[label].tobytes()).hexdigest()
               for label in _ELISION_LEGS}
    summary["durable_image_equal"] = (digests["baseline"]
                                      == digests["certified"])
    summary["durable_image_sha256"] = digests
    summary["fsck_clean"] = dict(fsck_clean)
    summary["certificate"] = cert.to_dict()
    return summary


def flush_elision_line(fe: Mapping[str, Any]) -> str:
    """The one-line rendering of a :func:`flush_elision_summary`."""
    return (f"flush elision: clflush+sfence "
            f"{fe['coalesced']['flushes'] + fe['coalesced']['fences']} "
            f"(coalesced) -> "
            f"{fe['certified']['flushes'] + fe['certified']['fences']} "
            f"({fe['reduction']:.1%} reduction, of which "
            f"{fe['elision_reduction']:.1%} from the certificate: "
            f"{fe['certified']['flushes_elided']} flushes + "
            f"{fe['certified']['fences_elided']} fences elided); "
            f"durable image equal: {fe['durable_image_equal']}")
