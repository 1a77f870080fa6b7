"""Configuration for the warm-fleet solver service."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs for :class:`~repro.service.core.SolverService`.

    Every field here must be plumbed through the ``serve`` CLI — the
    ``config-plumbing`` analyzer rule checks ServiceConfig exactly like
    it checks AbsConfig, so an unplumbed knob fails ``make analyze``.

    Attributes
    ----------
    result_cache_size:
        Completed-result cache entries, keyed by the canonical
        ``(problem, config, seed)`` run digest
        (:func:`repro.qubo.io.run_digest`).  Only jobs whose outcome
        is a pure function of that digest are cached: seeded, no
        wall-clock ``time_limit``, and deterministic execution (sync
        mode, or ``lockstep=True`` with ``n_gpus=1``) — anything else,
        multi-worker lockstep included, is a sample, and a cached copy
        would silently change semantics.  0 disables the cache.
    max_queue:
        Maximum queued (not yet running) jobs; ``submit`` raises when
        full.  0 means unbounded.
    default_priority:
        Priority assigned when ``submit`` is called without one.
        Higher runs earlier; ties run in submission order (FIFO).
    arm_timeout:
        Seconds the fleet re-arm handshake may take before the job
        fails (covers worker spawn + backend prep on first use).
    """

    result_cache_size: int = 128
    max_queue: int = 0
    default_priority: int = 0
    arm_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.result_cache_size < 0:
            raise ValueError(
                f"result_cache_size must be >= 0, got {self.result_cache_size}"
            )
        if self.max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {self.max_queue}")
        if self.arm_timeout <= 0:
            raise ValueError(
                f"arm_timeout must be positive, got {self.arm_timeout}"
            )
