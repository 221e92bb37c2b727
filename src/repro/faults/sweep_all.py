"""Run every registered crash sweep under every fault mode.

Usage::

    python -m repro.faults.sweep_all            # exhaustive (same as `make sweep`)
    python -m repro.faults.sweep_all --fast     # strided smoke pass
    python -m repro.faults.sweep_all --sweep h2_sql --mode torn
    python -m repro.faults.sweep_all --fast --json sweeps.json

Prints one summary line per (sweep, mode) pair; exits non-zero if any
sweep fails — a failed invariant or fsck assertion, or any other exception
out of it — after running every remaining pair.  ``--json PATH`` also
writes a machine-readable summary with per-layer point counts (total
injection points, crash points, fsck-checked recoveries, exhaustion),
so a CI run's sweep coverage is diffable without scraping stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from repro.faults.sweeps import SWEEPS, run_sweep
from repro.nvm.device import FaultMode


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.sweep_all",
        description="Crash-sweep every persistence layer under every "
                    "fault mode.")
    parser.add_argument("--fast", action="store_true",
                        help="strided sweep with a small point cap instead "
                             "of the exhaustive walk")
    parser.add_argument("--seed", type=int, default=0,
                        help="base RNG seed for torn/reordered tearing")
    parser.add_argument("--sweep", choices=sorted(SWEEPS), default=None,
                        help="run only this sweep")
    parser.add_argument("--mode", choices=FaultMode.ALL, default=None,
                        help="run only this fault mode")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write a JSON summary with per-layer "
                             "point counts")
    args = parser.parse_args(argv)

    names = [args.sweep] if args.sweep else sorted(SWEEPS)
    modes = [args.mode] if args.mode else list(FaultMode.ALL)
    failures = 0
    layers: List[dict] = []
    for name in names:
        for mode in modes:
            try:
                report = run_sweep(name, mode, exhaustive=not args.fast,
                                   seed=args.seed)
            except Exception as exc:
                # Not only a failed invariant: the backstop's RuntimeError,
                # a raising setup() or a plain bug in a workload is one
                # failed layer, never the end of the run — the remaining
                # pairs still sweep and the JSON is still written.
                failures += 1
                error = f"{type(exc).__name__}: {exc}"
                layers.append({"name": name, "fault_mode": mode,
                               "failed": True, "error": error})
                print(f"{name}[{mode}]: FAILED: {error}")
                continue
            layers.append(dict(report.to_dict(), failed=False))
            print(report.summary())
    if args.json:
        summary = {
            "fast": bool(args.fast),
            "seed": args.seed,
            "failures": failures,
            "layers": layers,
            "total_points": sum(l.get("points", 0) for l in layers),
            "total_crash_points": sum(l.get("crash_points", 0)
                                      for l in layers),
        }
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    if failures:
        print(f"{failures} sweep(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
