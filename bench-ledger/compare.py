#!/usr/bin/env python3
"""Compare two ledger results: ``python bench-ledger/compare.py OLD NEW``.

One row per workload x end-to-end metric with base, new, ratio and the
regression bound from ``BENCHMARK.json``.  Every metric is lower-is-better.

* ``regressed`` / ``improved``: new is worse / better than base by more
  than the bound.
* ``unresolved`` instead of ``unchanged`` for a host-side time whose
  recorded repetitions spread (quartile distance over median of
  ``host_s``, in either file) wider than the bound: the runs cannot tell.
* The model-side metrics (``sim_ms``, ``nvm_flush_fence``) are
  deterministic for a seed, so any difference at all is called out by
  name as an exact mismatch — expected from a change that claims a
  model-side gain, a defect in one that claims only simulator speed.

Exit status: 0 nothing regressed, 1 something regressed, 2 the two files
were not measured with the same seed and scale.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import END_TO_END, EXACT_METRICS, load_bounds  # noqa: E402

HOST_TIMES = ("host_s", "setup_s")


def host_spread(result: dict) -> float:
    """Quartile distance of the recorded ``host_s`` repetitions / median."""
    q1, median, q3 = result["host_s_quartiles"]
    return (q3 - q1) / median


def verdict(name: str, base: float, new: float, bound: float,
            spread: float) -> str:
    worse_by = (new - base) / base if base else float(new != base)
    if worse_by > bound:
        return "regressed"
    if -worse_by > bound:
        return "improved"
    if name in HOST_TIMES and spread > bound:
        return "unresolved"
    return "unchanged"


def compare(old: dict, new: dict, bounds: dict) -> int:
    if (old["seed"], old["scale"]) != (new["seed"], new["scale"]):
        print(f"not comparable: OLD is seed {old['seed']} scale "
              f"{old['scale']}, NEW is seed {new['seed']} scale "
              f"{new['scale']}", file=sys.stderr)
        return 2
    regressed: List[str] = []
    mismatched: List[str] = []
    print(f"{'metric':<32} {'base':>16} {'new':>16} {'new/base':>9} "
          f"{'bound':>7}  verdict")
    for workload, base_result in old["workloads"].items():
        new_result = new["workloads"].get(workload)
        if new_result is None:
            print(f"{workload}: missing from NEW")
            regressed.append(workload)
            continue
        spread = max(host_spread(base_result), host_spread(new_result))
        for name, _unit in END_TO_END:
            label = f"{workload}/{name}"
            base = base_result["end_to_end"][name]
            value = new_result["end_to_end"][name]
            ratio = value / base if base else float("nan")
            result = verdict(name, base, value, bounds[name], spread)
            if name in EXACT_METRICS and value != base:
                mismatched.append(label)
                result += " EXACT-MISMATCH"
            if result.startswith("regressed"):
                regressed.append(label)
            print(f"{label:<32} {base:>16.6f} {value:>16.6f} {ratio:>9.4f} "
                  f"{bounds[name]:>7.1%}  {result}")
        if new_result["ops_failed"] > base_result["ops_failed"]:
            regressed.append(f"{workload}/ops_failed")
            print(f"{workload}/ops_failed: {base_result['ops_failed']} -> "
                  f"{new_result['ops_failed']}  regressed")
    if mismatched:
        print("exact mismatch (model-side numbers moved): "
              + ", ".join(mismatched))
    if regressed:
        print("regressed: " + ", ".join(regressed))
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    return compare(json.loads(args.old.read_text()),
                   json.loads(args.new.read_text()), load_bounds())


if __name__ == "__main__":
    raise SystemExit(main())
