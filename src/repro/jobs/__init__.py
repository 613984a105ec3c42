"""Parallel, cached discharge of generated proof obligations.

The classic sequential driver lives in :mod:`repro.proofs.discharge`; this
package adds the orchestration layer on top of the same pure per-obligation
functions: content-addressed result caching (:mod:`repro.jobs.cache`,
namespaces of the shared record store :mod:`repro.store`), a
forked worker pool with per-obligation timeouts, and structured reporting
(:mod:`repro.jobs.engine`).
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
