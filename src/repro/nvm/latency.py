"""Latency model for the simulated memory hierarchy.

The paper's evaluation ran on a Xeon E5-2618L v3 with a Viking NVDIMM.  We
reproduce *shapes*, not absolute numbers, so the constants below are a
literature-calibrated cost model (HiKV [44] and the NVM systems the paper
cites report NVM read latency rivalling DRAM while write latency is several
times higher).  All values are nanoseconds of simulated time charged to the
:class:`repro.nvm.clock.Clock`.

Users can build a custom :class:`LatencyConfig` to explore other points; the
benchmarks all take the default.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class LatencyConfig:
    """Nanosecond costs for memory and CPU events in the simulator.

    Attributes mirror the events the runtime generates: word-granularity
    loads/stores against DRAM or NVM, cache-line flushes, store fences, and a
    generic per-"bytecode" CPU cost used to price computation such as SQL
    string transformation.
    """

    dram_read_ns: float = 60.0
    # Stores land in the write-back CPU cache: cheap at store time.  The
    # real durability cost of NVM's slow writes is paid at clflush, which
    # is priced per line below.  NVM stores still cost more than DRAM
    # stores (store-buffer pressure, ADR draining).
    dram_write_ns: float = 10.0
    # NVM reads rival DRAM (paper §5 cites [44]).  Per-word load cost.
    nvm_read_ns: float = 80.0
    nvm_write_ns: float = 30.0
    # clflush writes one 64-byte line back to the NVM media: this is where
    # the several-times-DRAM write latency actually lands.
    clflush_ns: float = 250.0
    # clflushopt-style asynchronous flush: issue cost only; the write-back
    # overlaps with further work and is drained by the next sfence.  Used
    # by bulk paths (the persistent GC), not by transactional ones.
    clflush_issue_ns: float = 30.0
    # sfence drains the store buffer.
    sfence_ns: float = 60.0
    # Cached accesses (simulating locality) cost this much instead.
    cache_hit_ns: float = 2.0
    # Generic CPU work unit: roughly one interpreted "operation".
    cpu_op_ns: float = 1.5

    def scaled(self, factor: float) -> "LatencyConfig":
        """Return a config with every memory latency multiplied by *factor*.

        Useful for sensitivity sweeps (e.g. slower NVM media).  Every
        field but the CPU cost is a memory latency, so a field added
        later scales without being listed here.
        """
        return replace(self, **{
            f.name: getattr(self, f.name) * factor
            for f in fields(self) if f.name != "cpu_op_ns"})


DEFAULT_LATENCY = LatencyConfig()
