"""Simulated NVM substrate: devices, latency model, clock, crash injection.

This package stands in for the hardware the paper ran on (a Viking NVDIMM
behind volatile CPU caches) and for the ``clflush``/``sfence`` instructions
its crash-consistency protocols rely on.  See DESIGN.md §2 for the
substitution argument.
"""

from repro.nvm.checksum import crc32_words
from repro.nvm.clock import Clock
from repro.nvm.device import (
    LINE_WORDS,
    WORD_BYTES,
    AddressSpace,
    DeviceStats,
    DramDevice,
    FaultMode,
    Mapping,
    MemoryDevice,
    NvmDevice,
)
from repro.nvm.failpoints import DOCUMENTED_SITES, FailpointRegistry
from repro.nvm.latency import DEFAULT_LATENCY, LatencyConfig
from repro.nvm.namespace import NameManager
from repro.nvm.persist import PersistDomain
from repro.nvm.publish import durable_metadata, publish_point

__all__ = [
    "AddressSpace",
    "Clock",
    "DEFAULT_LATENCY",
    "DOCUMENTED_SITES",
    "DeviceStats",
    "DramDevice",
    "FailpointRegistry",
    "FaultMode",
    "LatencyConfig",
    "LINE_WORDS",
    "Mapping",
    "MemoryDevice",
    "NameManager",
    "NvmDevice",
    "PersistDomain",
    "WORD_BYTES",
    "crc32_words",
    "durable_metadata",
    "publish_point",
]
