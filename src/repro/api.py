"""One-call convenience API.

:func:`solve` wraps the full ABS pipeline for users who just want the
best bit vector for a weight matrix; :func:`solve_ising` accepts an
Ising model (the paper's framing: QUBO ⇔ ground state of an Ising
model) and returns spins.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from repro.abs.config import AbsConfig, WindowSpec
from repro.abs.result import SolveResult
from repro.abs.solver import AdaptiveBulkSearch
from repro.ga.host import GaConfig
from repro.qubo.ising import IsingModel, ising_to_qubo, bits_to_spins
from repro.telemetry import NullBus, TelemetryBus, make_bus


def solve(
    weights,
    *,
    time_limit: float | None = None,
    max_rounds: int | None = None,
    target_energy: int | None = None,
    n_gpus: int = 1,
    blocks_per_gpu: int = 32,
    local_steps: int = 32,
    window: WindowSpec = "spread",
    backend: str | None = None,
    pool_capacity: int = 64,
    ga: GaConfig | None = None,
    scan_neighbors: bool = True,
    adapt_windows: bool = False,
    adapt_period: int = 4,
    adapt_fraction: float = 0.25,
    seed: int | None = None,
    mode: str = "sync",
    max_worker_restarts: int = 2,
    worker_stall_timeout: float | None = None,
    start_method: str | None = None,
    exchange: str | None = None,
    lockstep: bool = False,
    diversity_min_dist: int = 0,
    variants: str | None = None,
    variant_adapt: bool = False,
    variant_adapt_period: int = 8,
    telemetry: TelemetryBus | NullBus | None = None,
    trace_out: Union[str, Path, None] = None,
    log_level: str | None = None,
) -> SolveResult:
    """Solve a QUBO with Adaptive Bulk Search in one call.

    ``weights`` may be a :class:`~repro.qubo.matrix.QuboMatrix`, a dense
    symmetric integer ndarray, or a :class:`~repro.qubo.sparse.SparseQubo`.
    At least one stopping criterion (``time_limit`` / ``max_rounds`` /
    ``target_energy``) must be given; when none is, a 2-second budget is
    applied.

    ``backend`` picks the engine's kernel backend (``"numpy"`` — the
    reference — or ``"bitplane"``, which runs the hot local-search
    loop as compiled C and degrades to ``"numpy"`` with a one-time
    warning when no C compiler is found; ``None`` consults the
    ``REPRO_BACKEND`` environment variable).  Backend choice never
    changes the result of a seeded solve — every backend is pinned
    step-for-step to the same search (see ``docs/backends.md``).

    ``pool_capacity``, ``ga`` (a :class:`~repro.ga.host.GaConfig`),
    ``scan_neighbors``, ``adapt_period`` and ``adapt_fraction`` expose
    the remaining host-side knobs; every :class:`AbsConfig` field is
    reachable from here (the ``config-plumbing`` rule of ``python -m
    repro analyze`` enforces it).

    In ``mode="process"`` the worker processes are supervised: a dead
    (or, with ``worker_stall_timeout`` set, silent) worker is restarted
    up to ``max_worker_restarts`` times and the solve degrades onto the
    survivors after that — see
    :class:`~repro.abs.supervisor.WorkerSupervisor` and the
    ``workers_restarted`` / ``workers_lost`` fields of the result.
    ``start_method`` picks the multiprocessing start method (default:
    ``fork`` where available).  ``exchange`` picks the host↔worker
    transport: ``"shm"`` (default — the paper's Figure-5 preallocated
    buffers as bit-packed shared-memory rings) or ``"tcp"``
    (length-prefixed frames over loopback sockets, workers join and
    leave elastically); ``None`` consults ``REPRO_EXCHANGE``.
    ``lockstep=True`` makes workers block for fresh targets each round
    (deterministic single-worker runs).  Transport choice never changes
    a seeded search's results — see ``docs/exchange.md``.

    Diverse ABS (arXiv:2207.03069; see ``docs/algorithms.md``):
    ``diversity_min_dist`` turns on Hamming-niched pool admission
    (candidates closer than this to an existing entry must beat their
    niche's energy to enter; ``0`` keeps the base policy bit-for-bit);
    ``variants`` assigns heterogeneous per-device search recipes by
    name (comma-separated, cycled over devices — ``"fleet"`` is the
    stock ladder/hot/greedy/tabu mix); ``variant_adapt`` lets a device
    migrate from a stagnating variant to an improving one every
    ``variant_adapt_period`` sweeps (sync mode only).

    Observability (all optional, off by default; see
    ``docs/observability.md``): pass a ``telemetry`` bus you own, or let
    this function build one — ``trace_out`` writes a schema'd JSONL
    trace, ``log_level`` (``"info"``/``"debug"``) logs progress to
    stderr.  A bus built here is closed before returning; a caller-
    provided ``telemetry`` bus is left open (its sinks are yours).
    Telemetry never changes the search: a seeded run returns the same
    result with it on or off.

    >>> from repro import QuboMatrix
    >>> from repro.api import solve
    >>> res = solve(QuboMatrix.random(64, seed=0), max_rounds=20, seed=1)
    >>> res.best_energy <= 0
    True
    """
    if time_limit is None and max_rounds is None and target_energy is None:
        time_limit = 2.0
    config = AbsConfig(
        n_gpus=n_gpus,
        blocks_per_gpu=blocks_per_gpu,
        local_steps=local_steps,
        window=window,
        backend=backend,
        pool_capacity=pool_capacity,
        ga=ga if ga is not None else GaConfig(),
        scan_neighbors=scan_neighbors,
        adapt_windows=adapt_windows,
        adapt_period=adapt_period,
        adapt_fraction=adapt_fraction,
        target_energy=target_energy,
        time_limit=time_limit,
        max_rounds=max_rounds,
        seed=seed,
        max_worker_restarts=max_worker_restarts,
        worker_stall_timeout=worker_stall_timeout,
        start_method=start_method,
        exchange=exchange,
        lockstep=lockstep,
        diversity_min_dist=diversity_min_dist,
        variants=variants,
        variant_adapt=variant_adapt,
        variant_adapt_period=variant_adapt_period,
    )
    owns_bus = telemetry is None and (trace_out is not None or log_level is not None)
    if telemetry is None:
        telemetry = make_bus(trace_out, log_level)
    try:
        return AdaptiveBulkSearch(weights, config, telemetry=telemetry).solve(mode)
    finally:
        if owns_bus:
            telemetry.close()


@dataclass(frozen=True)
class IsingResult:
    """Ising-view of a solve: spins and Hamiltonian value."""

    spins: np.ndarray
    hamiltonian: float
    qubo_result: SolveResult


def solve_ising(model: IsingModel, **solve_kwargs) -> IsingResult:
    """Find a low-energy spin state of an Ising model via ABS.

    The model is converted losslessly to QUBO (§1's equivalence),
    solved, and the result mapped back: ``spins = 2x − 1`` and
    ``hamiltonian = model.energy(spins)`` (offset included).  Accepts
    the same keyword arguments as :func:`solve`.
    """
    qubo, constant = ising_to_qubo(model)
    result = solve(qubo, **solve_kwargs)
    spins = bits_to_spins(result.best_x)
    return IsingResult(
        spins=spins,
        hamiltonian=float(result.best_energy + constant),
        qubo_result=result,
    )
