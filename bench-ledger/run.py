#!/usr/bin/env python3
"""The perf ledger: one command, every workload, every metric by name.

    python bench-ledger/run.py                      # all six, seed 0
    python bench-ledger/run.py --workload pjh_read  # one workload
    python bench-ledger/run.py --traced --out L.json  # + per-layer numbers
    python bench-ledger/run.py --aa                 # A/A: same code twice

Each workload runs in a fresh ``worker.py`` subprocess (see its docstring
for the measurement protocol), checks its outputs against an oracle and
reports five end-to-end metrics; ``--traced`` adds a second, profiled
subprocess per workload for the per-layer metrics.  End-to-end numbers
always come from the untraced subprocess.

With ``--workload`` the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
for ``--trace 0``, the per-layer metrics for ``--trace 1``.  That is the
form ``BENCHMARK.json``'s driver calls, with ``--seconds`` as the
measuring budget (as many repetitions as fit, never fewer than three).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

LEDGER_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(LEDGER_DIR))

from metrics import (END_TO_END, EXACT_METRICS, REPO_ROOT,  # noqa: E402
                     WORKLOADS, load_bounds, per_layer_names)

SCHEMA = 1
WORK_ROOT = LEDGER_DIR / ".work"   # inside the checkout, git-ignored
WORKER_TIMEOUT_S = 170

#: What the worker's environment pins so that two runs measure the same
#: program, and why:
#: * ``PYTHONHASHSEED`` - ``runtime/vm.py`` stores ``hash(text)`` into
#:   heaps, so an unpinned seed changes simulated state across processes.
#: * ``MALLOC_MMAP_THRESHOLD_`` - glibc's mmap threshold otherwise creeps
#:   up to 32 MiB as heap images are freed; from then on a fresh 16 MiB
#:   image is carved out of recycled heap memory and zeroed by hand, and
#:   peak RSS jumps by 60-130 MiB on whichever repetition that first
#:   happens.  Pinned, every image is a lazily-zeroed mapping.
#: * ``NUMPY_MADVISE_HUGEPAGE`` - numpy asks for transparent huge pages
#:   for its images; one stored word then commits (and the kernel zeroes)
#:   2 MiB, and whether it does depends on where ASLR put the array: peak
#:   RSS came out 47 or 55 MiB for the same process, at random.
PINNED_ENV = {"PYTHONHASHSEED": "0",
              "MALLOC_MMAP_THRESHOLD_": str(1 << 20),
              "NUMPY_MADVISE_HUGEPAGE": "0"}


def run_worker(workload: str, seed: int, scale: float, trace: int,
               reps: int, seconds: Optional[float]) -> dict:
    """One workload in one fresh interpreter; returns its result dict."""
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    env = dict(os.environ, TMPDIR=str(workdir),
               PYTHONPATH=str(REPO_ROOT / "src"), **PINNED_ENV)
    command = [sys.executable, str(LEDGER_DIR / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--scale", repr(scale), "--trace", str(trace),
               "--reps", str(reps), "--workdir", str(workdir)]
    if seconds is not None:
        command += ["--seconds", repr(seconds)]
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: worker exited with "
                         f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def new_suite(seed: int, scale: float) -> dict:
    return {"schema": SCHEMA, "seed": seed, "scale": scale, "workloads": {}}


def run_suite(workloads: List[str], seed: int, scale: float, traced: bool,
              reps: int, seconds: Optional[float] = None,
              echo: bool = True) -> dict:
    """Every workload untraced, then (``traced``) once more profiled."""
    suite = new_suite(seed, scale)
    for workload in workloads:
        result = run_worker(workload, seed, scale, 0, reps, seconds)
        if traced:
            profiled = run_worker(workload, seed, scale, 1, reps, seconds)
            for key in ("per_layer", "spans", "obs_spans", "traced_body_s"):
                result[key] = profiled[key]
            result["ops_attempted"] += profiled["ops_attempted"]
            result["ops_failed"] += profiled["ops_failed"]
            result["failures"] += profiled["failures"]
        suite["workloads"][workload] = result
        if echo:
            print_workload(workload, result, traced)
    return suite


def print_workload(workload: str, result: dict, traced: bool) -> None:
    units = dict(END_TO_END)
    print(f"== {workload}  (seed {result['seed']}, {result['reps']} "
          f"repetitions, ops {result['ops_attempted']} attempted / "
          f"{result['ops_failed']} failed)")
    for name, value in result["end_to_end"].items():
        print(f"  {workload}/{name:<18} {value:>16.6f} {units[name]}")
    q1, median, q3 = result["host_s_quartiles"]
    print(f"  host_s repetitions: median {median:.4f} s, quartiles "
          f"{q1:.4f}..{q3:.4f} s, all "
          f"{[round(s, 4) for s in result['samples']['host_s']]}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    units = dict(per_layer_names())
    for name, value in result["per_layer"].items():
        if value or (traced and name.endswith((".host_self_s", ".calls"))):
            print(f"    {name:<32} {value:>16.6f} {units[name]}")


def driver_line(result: dict, trace: int) -> str:
    """The one-object result line ``BENCHMARK.json``'s driver reads."""
    units = dict(per_layer_names() if trace else END_TO_END)
    values = result["per_layer"] if trace else result["end_to_end"]
    return json.dumps({
        "correct": result["ops_failed"] == 0,
        "attempted": result["ops_attempted"],
        "failed": result["ops_failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    })


def relative_gap(first: float, second: float) -> float:
    if first == second:
        return 0.0
    return abs(second - first) / max(abs(first), abs(second))


def aa_check(first: dict, second: dict, bounds: Dict[str, float]) -> bool:
    """Print both runs of every ``<workload>/<metric>``; True if all pass."""
    ok = True
    print(f"{'metric':<32} {'run A':>16} {'run B':>16} {'gap':>9} "
          f"{'bound':>7}  verdict")
    for workload in first["workloads"]:
        a = first["workloads"][workload]
        b = second["workloads"][workload]
        for name, _unit in END_TO_END:
            va, vb = a["end_to_end"][name], b["end_to_end"][name]
            gap = relative_gap(va, vb)
            passed = gap <= bounds[name] and (
                name not in EXACT_METRICS or va == vb)
            ok &= passed
            print(f"{workload + '/' + name:<32} {va:>16.6f} {vb:>16.6f} "
                  f"{gap:>8.3%} {bounds[name]:>7.1%}  "
                  f"{'PASS' if passed else 'FAIL'}")
        for run in (a, b):
            if run["ops_failed"]:
                ok = False
                print(f"{workload}: {run['ops_failed']} ops failed  FAIL")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run only this workload (default: all six)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload (tests use 0.1)")
    parser.add_argument("--reps", type=int, default=5,
                        help="repetitions when --seconds is not given")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring budget per workload instead of "
                             "--reps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 runs only the traced "
                             "pass and reports the per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="untraced pass, then a traced pass")
    parser.add_argument("--aa", action="store_true",
                        help="run the suite twice and compare against the "
                             "bounds in BENCHMARK.json")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the full result JSON here")
    args = parser.parse_args(argv)
    if args.trace and not args.workload:
        parser.error("--trace 1 needs --workload (use --traced for all)")
    workloads = [args.workload] if args.workload else list(WORKLOADS)

    if args.aa:
        first = run_suite(workloads, args.seed, args.scale, False,
                          args.reps, args.seconds, echo=False)
        second = run_suite(workloads, args.seed, args.scale, False,
                           args.reps, args.seconds, echo=False)
        ok = aa_check(first, second, load_bounds())
        if args.out:
            args.out.write_text(json.dumps({"A": first, "B": second},
                                           indent=1) + "\n")
        print("A/A:", "PASS" if ok else "FAIL")
        return 0 if ok else 1

    if args.workload and args.trace:
        suite = new_suite(args.seed, args.scale)
        suite["workloads"][args.workload] = run_worker(
            args.workload, args.seed, args.scale, 1, args.reps, args.seconds)
    else:
        suite = run_suite(workloads, args.seed, args.scale, args.traced,
                          args.reps, args.seconds)
    if args.out:
        args.out.write_text(json.dumps(suite, indent=1) + "\n")
    failed = sum(r["ops_failed"] for r in suite["workloads"].values())
    if args.workload:
        print(driver_line(suite["workloads"][args.workload], args.trace))
    return 0 if failed == 0 or args.workload else 1


if __name__ == "__main__":
    raise SystemExit(main())
