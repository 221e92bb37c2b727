PYTHON ?= python
export PYTHONPATH := src

.PHONY: check test test-ledger sweep sweep-fast sweep-pytest fsck analyze \
	lint-persist lint-time obs-report fleet-smoke \
	concurrent-smoke elision-report experiments examples bench bench-traced \
	bench-compare bench-ab census

# The CI gate: the full static analyzer, the tier-1 suite, a strided
# smoke pass of every crash sweep (including the fleet fail-over and
# concurrent-gang layers), the end-to-end fleet and gang smokes, the
# flush-elision gates, every paper experiment at its documented size,
# the examples, then the perf ledger's own tests.
check: analyze test sweep-fast fleet-smoke concurrent-smoke elision-report \
	experiments examples test-ledger

# Every script under examples/ (a few seconds).  The ones that take a
# heap directory get one inside a temporary directory removed afterwards;
# the rest clean up after themselves.
examples:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && set -e && \
	for run in "quickstart.py $$tmp/qs" "quickstart.py $$tmp/qs" \
	    "persistent_kv_store.py $$tmp/kv set hits 1" \
	    "persistent_kv_store.py $$tmp/kv incr hits" \
	    "persistent_kv_store.py $$tmp/kv list" \
	    crash_recovery.py database_app.py porting_from_pcj.py \
	    tpcc_demo.py; do \
	  echo "== examples/$$run"; $(PYTHON) examples/$$run; \
	done

# Every paper experiment (repro.bench.__main__.EXPERIMENTS) at full size,
# ~70 s: prints each table and checks each shape claim, so a figure that
# cannot run at the size EXPERIMENTS.md documents fails the gate.  Tier-1
# checks the same claims at CI size.  One experiment: `python -m
# repro.bench fig15`; add `--json DIR` for BENCH_<name>.json files.
experiments:
	$(PYTHON) -m repro.bench

# Per-bench clflush/sfence deltas for the allocation buffers + flush-
# elision certificate (DESIGN.md §17): re-runs the fig17 and TPC-C
# elision legs at CI sizes, enforces the pinned gates (reduction beats
# the -16.2% coalescing baseline, SHA-256-identical images, hazard- and
# fsck-clean) and checks analysis-baseline.json covers the canonical
# trace's ESP401/402 fingerprints.  Writes ELISION_REPORT.json.
elision-report:
	$(PYTHON) -m repro.bench.elision_report

# End-to-end fleet smoke: 2 shards, contended traffic, one fail-over,
# reload from the durable directory, fsck on every heap.
fleet-smoke:
	$(PYTHON) -m repro.fleet.smoke

# End-to-end gang smoke: a 2-mutator contended KV run on the lock-free
# durable map — hazard-clean trace, crash, recover, durable
# linearizability check, fsck.
concurrent-smoke:
	$(PYTHON) -c "from repro.workloads.concurrent_kv import main; \
	raise SystemExit(main())"

# The full analyzer: AST source lint (ESP3xx) over src/ and examples/,
# persistent-closure analysis (ESP1xx) of the BasicTest DBPersistable
# schema, and the static persist-order verifier
# (ESP5xx) over the durable subsystems, baseline-filtered with the
# justified-exception file.  Exit 1 on any non-baselined finding —
# this is what makes `make check` fail on new hazards.
analyze:
	$(PYTHON) -m repro.analysis --closure-schema --static-order \
	  --assumptions analysis-assumptions.json \
	  --baseline analysis-baseline.json

# Tier-1: the full unit/integration suite (exhaustive sweeps deselected).
test:
	$(PYTHON) -m pytest

# The perf ledger's tests (~15 s).  `testpaths` keeps them out of tier-1,
# so without this a rename in `repro.faults` (or anything else a ledger
# workload imports) would first show up as failed benchmark operations.
test-ledger:
	$(PYTHON) -m pytest bench-ledger/tests -q

# Exhaustive crash sweeps: every layer x every fault mode, every
# injection point until the workload outruns the bomb.
sweep:
	$(PYTHON) -m repro.faults.sweep_all

# Strided smoke pass of the same sweeps (seconds, not minutes).
sweep-fast:
	$(PYTHON) -m repro.faults.sweep_all --fast

# The sweep-marked pytest variants (same walks, pytest reporting).
sweep-pytest:
	$(PYTHON) -m pytest -m sweep

# No raw clflush/fence outside repro/nvm and repro/faults: all flush
# traffic must route through repro.nvm.persist.PersistDomain.
# (Alias for the ESP301/ESP302 rules of the unified analyzer.)
lint-persist:
	$(PYTHON) -m repro.analysis --rules ESP301,ESP302

# No wall-clock reads outside repro/nvm/clock.py and repro/obs: every
# timestamp must come from the simulated Clock.
# (Alias for the ESP303 rule of the unified analyzer.)
lint-time:
	$(PYTHON) -m repro.analysis --rules ESP303

# Run the traced fig17 bench, then render its obs section as tables.
obs-report:
	$(PYTHON) -m repro.bench fig17 --json .
	$(PYTHON) -m repro.obs.report BENCH_fig17.json

# The perf ledger (bench-ledger/README.md): six oracle-checked workloads,
# five end-to-end metrics each, every metric printed by name.
bench:
	$(PYTHON) bench-ledger/run.py

# The same plus a second, profiled pass per workload for the per-layer
# metrics; the full result goes to OUT for `make bench-compare`.
OUT ?= BENCH_ledger.json
bench-traced:
	$(PYTHON) bench-ledger/run.py --traced --out $(OUT)

# base / new / ratio / bound for two ledger results:
#   make bench-compare OLD=before.json NEW=after.json
bench-compare:
	$(PYTHON) bench-ledger/compare.py $(OLD) $(NEW)

# Which src/repro lines no gate executes (tools/census.py): runs every
# gate above plus each ledger workload once under a line tracer and
# writes CENSUS.json; exit 1 on a definition no gate runs.  About 13 min
# on two cores, so it runs per anchor, not in `make check`.
census:
	$(PYTHON) tools/census.py

# Parent vs change, alternating, N pairs on seeds 1..N, with the
# choosing-metrics verdict per end-to-end metric (tools/bench_ab.py):
#   make bench-ab BASE=HEAD~1 [W=verify_sweep|all] [N=10]
W ?= verify_sweep
N ?= 10
bench-ab:
	$(PYTHON) tools/bench_ab.py --base $(BASE) --workload $(W) --pairs $(N)
