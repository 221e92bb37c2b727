"""Run ONE workload in this process and print its result as JSON.

``run.py`` starts this file in a fresh interpreter per workload with
``PYTHONHASHSEED=0`` (``runtime/vm.py`` stores ``hash(text)`` into heaps,
so an unpinned hash seed changes simulated state from process to process),
``PYTHONPATH`` pointing at ``src`` and ``TMPDIR`` inside the work
directory.  Python's GC stays enabled and nothing is patched: the number
must measure the program users run.

Protocol: import, one discarded warm-up repetition at 1/10 size, then R
repetitions, each on fresh substrates in a fresh directory.  Host times
are the *minimum* over the R repetitions — interference on a shared
machine only ever adds time, in bursts — and the model-side numbers must
be bit-identical across the R repetitions or the run fails.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import Rep, fold_profile, merged_obs_spans  # noqa: E402
from metrics import WORKLOADS, per_layer_names  # noqa: E402

MIN_REPS = 3
WARMUP_SCALE = 0.1
MAX_FAILURES_KEPT = 10


def _run_rep(module, args, index: str, scale: float, traced: bool = False,
             profile=None) -> Rep:
    workdir = Path(args.workdir) / f"rep-{index}"
    workdir.mkdir(parents=True)
    rep = Rep(args.workload, args.seed, scale, workdir, traced=traced)
    try:
        rep.run(module.setup, module.body, module.verify, profile=profile)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return rep


def _measure(module, args) -> list:
    """R repetitions: ``--reps`` of them, or as many as fit ``--seconds``."""
    reps = []
    started = time.perf_counter()
    while True:
        rep_started = time.perf_counter()
        reps.append(_run_rep(module, args, str(len(reps)), args.scale))
        now = time.perf_counter()
        if args.seconds is None:
            if len(reps) >= args.reps:
                return reps
        elif (len(reps) >= MIN_REPS
              and now - started + (now - rep_started) > args.seconds):
            return reps


def _per_layer(rep: Rep) -> dict:
    """The per-layer numbers an untraced repetition already knows."""
    values = {name: 0.0 for name, _unit in per_layer_names()}
    for leg, spans in rep.legs.items():
        values[f"{leg}.host_s"] = spans["host_s"]
        values[f"{leg}.sim_ms"] = spans["sim_ms"]
    values.update(rep.counters())
    for category, ms in rep.sim_breakdown().items():
        values[f"sim.{category}"] = ms
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    import repro  # noqa: F401  (fails here when there is no product tree)
    module = importlib.import_module(f"workloads.{args.workload}")
    import_s = time.perf_counter() - started

    _run_rep(module, args, "warmup", args.scale * WARMUP_SCALE)

    result = {"workload": args.workload, "seed": args.seed,
              "scale": args.scale}
    if args.trace:
        plain = _run_rep(module, args, "plain", args.scale)
        profile = cProfile.Profile()
        traced = _run_rep(module, args, "traced", args.scale, traced=True,
                          profile=profile)
        reps = [plain, traced]
        per_layer = _per_layer(plain)
        for layer, folded in fold_profile(profile, traced.body_s).items():
            per_layer[f"{layer}.host_self_s"] = folded["host_self_s"]
            per_layer[f"{layer}.calls"] = folded["calls"]
        per_layer["py.import_s"] = import_s
        per_layer["trace.overhead_x"] = traced.body_s / plain.body_s
        result["traced_body_s"] = traced.body_s
        result["spans"] = traced.spans
        result["obs_spans"] = merged_obs_spans(traced.observatories)
        best = plain
    else:
        reps = _measure(module, args)
        best = min(reps, key=lambda rep: rep.body_s)
        per_layer = _per_layer(best)
        per_layer["py.import_s"] = import_s
        host = [rep.body_s for rep in reps]
        setup = [rep.setup_s for rep in reps]
        result["samples"] = {"host_s": host, "setup_s": setup}
        quartiles = (statistics.quantiles(host, n=4) if len(host) > 1
                     else [host[0]] * 3)
        result["host_s_quartiles"] = quartiles
        result["end_to_end"] = {
            "host_s": min(host),
            "setup_s": min(setup),
            "host_peak_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sim_ms": best.sim_ms,
            "nvm_flush_fence": best.nvm_flush_fence,
        }

    signatures = [rep.exact_signature() for rep in reps]
    if any(signature != signatures[0] for signature in signatures[1:]):
        print(f"{args.workload}: model-side numbers differ between "
              f"repetitions of seed {args.seed}: {signatures}",
              file=sys.stderr)
        return 1

    failures = [f for rep in reps for f in rep.failures]
    result["reps"] = len(reps)
    result["ops_attempted"] = sum(rep.attempted for rep in reps)
    result["ops_failed"] = len(failures)
    result["failures"] = failures[:MAX_FAILURES_KEPT]
    result["per_layer"] = per_layer
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
