"""Warm-fleet solver service: amortize cold-start across QUBO jobs.

One-shot ``AdaptiveBulkSearch.solve("process")`` pays process spawn,
shared-memory weight publication, and backend weight preparation on
every call.  :class:`SolverService` pays them once: a persistent
:class:`~repro.abs.fleet.WorkerFleet` is re-armed per job, with fresh
exchange segments sized for each job, whatever its size; prepared
weights and weight segments are cached across jobs, and deterministic
seeded repeats are answered from a determinism-keyed result cache.  See
``docs/service.md``.
"""

from repro.service.config import ServiceConfig
from repro.service.core import SolverService

__all__ = ["ServiceConfig", "SolverService"]
