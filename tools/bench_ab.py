#!/usr/bin/env python3
"""Alternating parent/change runs of the perf ledger, with a verdict.

    python3 tools/bench_ab.py --base HEAD~1                  # verify_sweep
    python3 tools/bench_ab.py --base 733230e --workload all --pairs 10
    make bench-ab BASE=HEAD~1 [W=verify_sweep] [N=10]

The committed files of ``--base`` are exported (``git archive``) into a
temporary directory, which is removed afterwards; the change is the
working tree this script sits in.  For seeds 1..N each side runs
``python3 bench-ledger/run.py --workload W --seed i --seconds S`` in its
own tree, S being ``BENCHMARK.json``'s ``run_seconds`` on both sides, and
which side goes first alternates from pair to pair.  This
script reads no clock: every number is parsed from ``run.py``'s one-line
result.

Per end-to-end metric it prints each side's median and quartiles, the
pairs the change won, and a verdict by the choosing-metrics rule: a
*gain* needs at least nine tenths of the pairs (ties count for neither
side) and medians further apart than the parent's own quartile distance;
*worse* means the change's median is worse by more than the metric's
bound in ``BENCHMARK.json``; a parent whose quartile distance exceeds
that bound is *unresolved*, not unchanged.  ``sim_ms`` and
``nvm_flush_fence`` are deterministic per seed and must be equal on
every pair.  Exit status 1 when any operation failed, any exact metric
differs or any metric is worse.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
EXACT_METRICS = ("sim_ms", "nvm_flush_fence")
GAIN_SHARE = 0.9


def export_rev(rev: str, into: Path) -> None:
    """Unpack the committed files of *rev* under *into*."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev],
                               cwd=REPO_ROOT, stdout=subprocess.PIPE)
    unpack = subprocess.run(["tar", "-x", "-C", str(into)],
                            stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or unpack.returncode != 0:
        raise SystemExit(f"bench-ab: cannot export {rev!r}")


def run_ledger(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ledger run in *tree*; its result line as a dict."""
    done = subprocess.run(
        [sys.executable, "bench-ledger/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"bench-ab: {workload} seed {seed} failed in {tree}")
    return json.loads(lines[-1])


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def judge(parent: Sequence[float], change: Sequence[float], better: str,
          bound: float) -> Tuple[int, int, str]:
    """(pairs the change won, pairs it lost, verdict) for one metric."""
    sign = -1.0 if better == "lower" else 1.0   # gain = sign * (c - p) > 0
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    won = sum(g > 0 for g in gains)
    lost = sum(g < 0 for g in gains)
    p_q1, p_median, p_q3 = quartiles(parent)
    c_median = quartiles(change)[1]
    spread = p_q3 - p_q1
    gain = sign * (c_median - p_median)
    if won >= GAIN_SHARE * len(gains) and gain > spread:
        return won, lost, "gain"
    allowed = bound * abs(p_median)
    if -gain > allowed:
        return won, lost, "WORSE"
    clear_win = all(sign * (c - p) > 0 for p in parent for c in change)
    if spread > allowed and not clear_win:
        return won, lost, "unresolved"
    return won, lost, "within bound"


def compare(workload: str, parent: List[dict], change: List[dict],
            spec: List[dict]) -> bool:
    """Print the table for one workload; False on any failure."""
    ok = True
    print(f"== {workload}: {len(parent)} pairs, parent | change")
    print(f"  {'metric':<16} {'median':>12} {'q1..q3':>25}   "
          f"{'median':>12} {'q1..q3':>25}  {'ratio':>6}  won/lost  verdict")
    for metric in spec:
        name = metric["name"]
        p = [run["metrics"][name]["value"] for run in parent]
        c = [run["metrics"][name]["value"] for run in change]
        if name in EXACT_METRICS:
            equal = sum(a == b for a, b in zip(p, c))
            ok &= equal == len(p)
            print(f"  {name:<16} equal on {equal}/{len(p)} seeds"
                  f"{'' if equal == len(p) else '  EXACT MISMATCH'}")
            continue
        won, lost, verdict = judge(p, c, metric["better"], metric["bound"])
        ok &= verdict != "WORSE"
        (p_q1, p_med, p_q3), (c_q1, c_med, c_q3) = quartiles(p), quartiles(c)
        ratio = c_med / p_med if p_med else float("nan")
        print(f"  {name:<16} {p_med:>12.4f} {p_q1:>12.4f}..{p_q3:<11.4f}   "
              f"{c_med:>12.4f} {c_q1:>12.4f}..{c_q3:<11.4f}  {ratio:>6.3f}  "
              f"{won:>3}/{lost:<3}   {verdict}")
    for side, runs in (("parent", parent), ("change", change)):
        failed = sum(run["failed"] for run in runs)
        attempted = sum(run["attempted"] for run in runs)
        wrong = sum(not run["correct"] for run in runs)
        ok &= failed == 0 and wrong == 0
        print(f"  {side}: {failed} of {attempted} operations failed, "
              f"{wrong} of {len(runs)} runs incorrect")
    return ok


def main(argv=None) -> int:
    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True,
                        help="the parent revision (any git rev)")
    parser.add_argument("--workload", default="verify_sweep",
                        choices=names + ["all"])
    parser.add_argument("--pairs", type=int, default=10,
                        help="parent/change pairs, seeds 1..N")
    args = parser.parse_args(argv)
    workloads = names if args.workload == "all" else [args.workload]

    base_tree = Path(tempfile.mkdtemp(prefix="bench-ab-"))
    ok = True
    try:
        export_rev(args.base, base_tree)
        for workload in workloads:
            runs: Dict[str, List[dict]] = {"parent": [], "change": []}
            for seed in range(1, args.pairs + 1):
                order = ("parent", "change") if seed % 2 else \
                    ("change", "parent")
                for side in order:
                    tree = base_tree if side == "parent" else REPO_ROOT
                    run = run_ledger(tree, workload, seed,
                                     benchmark["run_seconds"])
                    runs[side].append(run)
                    print(f"{workload} seed {seed} {side}: " + ", ".join(
                        f"{name}={metric['value']:.9g}"
                        for name, metric in run["metrics"].items()),
                        flush=True)
            ok &= compare(workload, runs["parent"], runs["change"],
                          benchmark["end_to_end"])
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
