"""The one front end: ``python -m repro.bench [NAME ...] [--json DIR]``.

Runs the named experiments (all of :data:`EXPERIMENTS` by default) at their
full, documented size; prints each table and checks each claim.  ``--json
DIR`` also writes each one's ``DIR/BENCH_<name>.json`` — ``{"bench",
"params", **payload}``.  Exit codes: 0 all claims hold, 1 a claim failed or
a run raised, 2 unknown experiment name.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import traceback
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.bench import (ablation_latency, ablation_pjo, concurrent_bench,
                         fig04_jpa_breakdown, fig06_pcj_breakdown,
                         fig15_pjh_vs_pcj, fig16_jpab,
                         fig17_basictest_breakdown, fig18_heap_loading,
                         fleet_bench, gc_cost, resume_bench, tpcc_bench)
from repro.bench.harness import Experiment

#: Every paper experiment by name, in DESIGN.md §4's order.  Never mutated.
EXPERIMENTS: Dict[str, Experiment] = {exp.name: exp for exp in (
    fig04_jpa_breakdown.EXPERIMENT, fig06_pcj_breakdown.EXPERIMENT,
    fig15_pjh_vs_pcj.EXPERIMENT, fig16_jpab.EXPERIMENT,
    fig17_basictest_breakdown.EXPERIMENT, fig18_heap_loading.EXPERIMENT,
    gc_cost.EXPERIMENT, tpcc_bench.EXPERIMENT, ablation_pjo.EXPERIMENT,
    ablation_latency.EXPERIMENT, resume_bench.EXPERIMENT,
    concurrent_bench.EXPERIMENT, fleet_bench.EXPERIMENT)}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run paper experiments at full size: print each table, "
                    "check each claim.",
        epilog="experiments: " + ", ".join(EXPERIMENTS))
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="experiments to run (default: all)")
    parser.add_argument("--json", metavar="DIR", type=Path, default=None,
                        help="also write DIR/BENCH_<name>.json for each "
                             "experiment run")
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)} "
                     f"(choose from {', '.join(EXPERIMENTS)})")
    if args.json is not None:
        args.json.mkdir(parents=True, exist_ok=True)

    failed = []
    for name in args.names or EXPERIMENTS:
        exp = EXPERIMENTS[name]
        print(f"== {name}: {exp.title} ==")
        try:
            with tempfile.TemporaryDirectory(
                    prefix=f"repro-bench-{name}-") as tmp:
                result = exp.run(heap_dir=Path(tmp), **exp.full)
            print(exp.table(result))
            if args.json is not None:
                path = args.json / f"BENCH_{name}.json"
                path.write_text(json.dumps(
                    {"bench": name, "params": dict(exp.full),
                     **exp.payload(result)},
                    indent=2, sort_keys=True) + "\n")
                print(f"wrote {path}")
            exp.check(result)
        except Exception as exc:
            # A broken claim or a run that raised is one failed experiment,
            # never the end of the run: the rest still run (cf. sweep_all).
            if not isinstance(exc, AssertionError):
                traceback.print_exc()
            failed.append(name)
            print(f"{name}: FAILED: {type(exc).__name__}: {exc}")
        print()
    if failed:
        print(f"{len(failed)} experiment(s) failed: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
