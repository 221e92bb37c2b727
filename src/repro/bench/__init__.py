"""The paper's experiments, each declared once and run one way.

``python -m repro.bench [NAME ...] [--json DIR]`` runs them at full size,
prints each table and checks each shape claim (DESIGN.md §4 is the index;
tier-1 checks the same claims at CI size, ``tests/bench/test_experiments.py``).
The registry is ``repro.bench.__main__.EXPERIMENTS``:

* ``fig04``, ``fig06`` — §2 motivation: DataNucleus and PCJ cost breakdowns
* ``fig15`` — PJH vs PCJ speedups, five data types x create/set/get
* ``fig16``, ``fig17`` — JPAB throughput and BasicTest breakdown, JPA vs PJO
* ``fig18`` — heap loading time, user-guaranteed vs zeroing safety
* ``gc_cost`` — §6.4 recoverable-GC pause cost and §4.2 worker scaling
* ``tpcc`` — TPCC-lite macro-benchmark on both providers
* ``ablation_pjo``, ``ablation_latency`` — §5 optimisations; NVM media latency
* ``resume``, ``concurrent``, ``fleet`` — §14 resume cost, §16 gang, §15 fleet

How to add an experiment.  Write a module with a ``run(<size keywords>,
heap_dir)`` returning a result object; beside it a ``table(result) -> str``,
a ``check(result)`` whose assertions each name the claim they check and hold
at both sizes, and a ``payload(result)`` returning a JSON-able dict.  Bind
them in a module-level ``EXPERIMENT = Experiment(name=..., title=..., run=run,
full={...}, ci={...}, table=table, check=check, payload=payload)``
(:class:`repro.bench.harness.Experiment`) and list ``module.EXPERIMENT`` in
``EXPERIMENTS``.  There is no per-module ``main()``: the front end is the only
entry point, and ``elision_report`` keeps its own CLI only because it is a CI
gate with a committed artefact (``ELISION_REPORT.json``).
"""
