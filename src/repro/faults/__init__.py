"""Repo-wide fault injection: crash sweeps across every persistence layer.

The package glues three existing mechanisms into one :class:`Sweep`:

* :class:`~repro.nvm.failpoints.FailpointRegistry` — protocol-level crash
  points between consecutive persistence events;
* flush counting — a crash after the N-th ``clflush`` lands *between* any
  two durability operations, catching ordering bugs failpoints miss;
* :class:`~repro.nvm.device.FaultMode` — how the simulated NVDIMM loses
  data at the crash instant (atomic-line, torn-line, reordered-lines).

:mod:`repro.faults.sweeps` registers one sweep per persistence layer — ten
of them: PJH allocation + GC, the allocation-buffer claim protocol, H2 SQL,
the pjhlib collection library, PCJ's NVML undo log, the PJO commit path,
mixed persist domains, the crash-transparent resume protocol, fleet
fail-over and the concurrent mutator gang; ``python -m
repro.faults.sweep_all`` runs every sweep under every fault mode.
"""

from repro.faults.harness import Sweep, SweepIteration, SweepReport
from repro.faults.sweeps import SWEEPS, run_sweep

__all__ = [
    "Sweep",
    "SweepIteration",
    "SweepReport",
    "SWEEPS",
    "run_sweep",
]
