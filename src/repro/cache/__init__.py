"""Generic cache substrate: tag arrays, LRU/FIFO replacement, MSHRs and the
baseline L1D cache models the paper evaluates FUSE against.

The modules in this package know nothing about STT-MRAM heterogeneity; they
provide the building blocks (``TagArray``, ``MSHR``, ``BaseCache`` and the
shared primitives of :mod:`repro.cache.engine`) that both the baseline
caches and the FUSE engine in :mod:`repro.core` are assembled from.  One
``BaseCache`` models ``L1-SRAM``, ``FA-SRAM`` and ``L1-NVM`` by geometry
and bank timing alone (:func:`repro.core.factory.make_l1d` picks them;
:func:`~repro.cache.tag_array.sets_and_ways` turns a capacity into sets
and ways); ``ByNVMCache`` and ``OracleCache`` are the other baselines.
"""

from repro.cache.interface import (
    AccessOutcome,
    AccessResult,
    FillResult,
    L1DCacheModel,
)
from repro.cache.mshr import MSHR, MSHREntry
from repro.cache.basecache import BaseCache
from repro.cache.nvm_bypass import ByNVMCache, DeadWritePredictor
from repro.cache.oracle import OracleCache
from repro.cache.replacement import FIFOPolicy, LRUPolicy
from repro.cache.request import AccessType, MemoryRequest, block_address
from repro.cache.stats import CacheStats
from repro.cache.tag_array import CacheLine, TagArray, sets_and_ways

__all__ = [
    "AccessOutcome",
    "AccessResult",
    "AccessType",
    "BaseCache",
    "ByNVMCache",
    "CacheLine",
    "CacheStats",
    "DeadWritePredictor",
    "FIFOPolicy",
    "FillResult",
    "L1DCacheModel",
    "LRUPolicy",
    "MSHR",
    "MSHREntry",
    "MemoryRequest",
    "OracleCache",
    "TagArray",
    "block_address",
    "sets_and_ways",
]
