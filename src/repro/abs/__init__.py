"""The Adaptive Bulk Search framework (paper §3, Figure 5).

A CPU **host** runs the genetic algorithm over a sorted solution pool
and publishes *target solutions* to the devices; **devices** (simulated
GPUs) pull targets, run a straight search followed by a bulk local
search in every block, and push each block's best solution back.  Host
and devices never synchronize directly — in process mode they exchange
data only through the :mod:`repro.abs.exchange` buffers, so devices
keep searching at full rate even when the host lags.

Two execution modes are provided by :class:`~repro.abs.solver.AdaptiveBulkSearch`:

- ``"sync"`` — everything in one process, rounds interleaved
  deterministically.  Reproducible; used by tests and TTS benchmarks.
- ``"process"`` — one OS process per simulated GPU (the multi-GPU
  configuration of Figure 5) on a :class:`~repro.abs.fleet.WorkerFleet`,
  weights shared via shared memory, targets/solutions exchanged through
  the :mod:`repro.abs.exchange` bit-packed shared-memory rings.
  Used by the Figure 8 scaling benchmark.
"""

from repro.abs.adaptive import VariantController, WindowAdapter
from repro.abs.config import AbsConfig, resolve_windows
from repro.abs.decompose import (
    DecompositionConfig,
    DecompositionResult,
    DecompositionSolver,
)
from repro.abs.device import DeviceSimulator
from repro.abs.exchange import (
    EXCHANGE_NAMES,
    ResultBatch,
    SolutionRing,
    TargetMailbox,
    resolve_exchange,
)
from repro.abs.fleet import WorkerFleet, WorkerJob
from repro.abs.host import Host
from repro.abs.result import SolveResult
from repro.abs.solver import AdaptiveBulkSearch
from repro.abs.supervisor import WorkerAction, WorkerSupervisor
from repro.abs.variants import (
    SearchVariant,
    available_variants,
    get_variant,
    register_variant,
    resolve_fleet,
)

__all__ = [
    "WindowAdapter",
    "VariantController",
    "SearchVariant",
    "available_variants",
    "get_variant",
    "register_variant",
    "resolve_fleet",
    "DecompositionSolver",
    "DecompositionConfig",
    "DecompositionResult",
    "AbsConfig",
    "resolve_windows",
    "EXCHANGE_NAMES",
    "resolve_exchange",
    "TargetMailbox",
    "SolutionRing",
    "ResultBatch",
    "DeviceSimulator",
    "Host",
    "SolveResult",
    "AdaptiveBulkSearch",
    "WorkerAction",
    "WorkerSupervisor",
    "WorkerFleet",
    "WorkerJob",
]
