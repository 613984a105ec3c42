"""Parallel, cached discharge of generated proof obligations.

:func:`discharge_jobs` is the one front door that discharges an
obligation set: the CLI, the service, the examples and the benchmarks all
call it.  It orchestrates the pure per-obligation functions of
:mod:`repro.proofs.discharge`: content-addressed result caching
(:mod:`repro.jobs.cache`, namespaces of the shared record store
:mod:`repro.store`), a forked worker pool with per-obligation timeouts,
and structured reporting (:mod:`repro.jobs.engine`).
"""

from .cache import CACHE_VERSION, DEFAULT_CACHE_DIR, CacheStats, ResultCache
from .engine import (
    EngineParams,
    JobOutcome,
    JobReport,
    default_jobs,
    discharge_jobs,
)

__all__ = [
    "CACHE_VERSION",
    "DEFAULT_CACHE_DIR",
    "CacheStats",
    "EngineParams",
    "JobOutcome",
    "JobReport",
    "ResultCache",
    "default_jobs",
    "discharge_jobs",
]
