"""One-call convenience API.

:func:`solve` wraps the full ABS pipeline for users who just want the
best bit vector for a weight matrix; :func:`solve_ising` accepts an
Ising model (the paper's framing: QUBO ⇔ ground state of an Ising
model) and returns spins.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Union

import numpy as np

from repro.abs.config import AbsConfig
from repro.abs.result import SolveResult
from repro.abs.solver import AdaptiveBulkSearch
from repro.qubo.ising import IsingModel, ising_to_qubo, bits_to_spins
from repro.telemetry import NullBus, TelemetryBus, make_bus


def solve(
    weights,
    *,
    mode: str = "sync",
    telemetry: TelemetryBus | NullBus | None = None,
    trace_out: Union[str, Path, None] = None,
    log_level: str | None = None,
    **config_fields: Any,
) -> SolveResult:
    """Solve a QUBO with Adaptive Bulk Search in one call.

    ``weights`` may be a :class:`~repro.qubo.matrix.QuboMatrix`, a dense
    symmetric integer ndarray, or a :class:`~repro.qubo.sparse.SparseQubo`.
    ``mode`` is ``"sync"`` (one process, deterministic by seed) or
    ``"process"`` (one supervised worker process per simulated GPU).

    Every other keyword is a field of :class:`~repro.abs.config.AbsConfig`
    — ``max_rounds``, ``blocks_per_gpu``, ``seed``, ``backend`` (default
    ``"auto"``: the compiled ``bitplane`` kernels where a C compiler
    exists, else ``numpy``), ``exchange``, ``variants`` and the rest,
    documented there with their defaults; an unknown name raises
    :class:`TypeError`.  When no stopping criterion (``time_limit`` /
    ``max_rounds`` / ``target_energy``) is given, a 2-second
    ``time_limit`` applies.

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
    if all(
        config_fields.get(name) is None
        for name in ("time_limit", "max_rounds", "target_energy")
    ):
        config_fields["time_limit"] = 2.0
    config = AbsConfig(**config_fields)
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
