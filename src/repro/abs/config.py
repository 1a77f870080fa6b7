"""Configuration for the ABS solver."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from repro.ga.host import GaConfig

WindowSpec = Union[int, str, Sequence[int]]


def resolve_windows(spec: WindowSpec, n_blocks: int, n: int) -> np.ndarray:
    """Expand a window specification into per-block ``l`` values.

    - an ``int`` applies to every block;
    - ``"spread"`` assigns log-spaced windows between 2 and
      ``max(16, n // 4)`` — the parallel-tempering-style temperature
      ladder the paper suggests ("we can set a different temperature
      for each search", §2.1);
    - a sequence gives explicit per-block values (length must be
      ``n_blocks``).
    """
    if n_blocks < 1:
        raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
    if isinstance(spec, str):
        if spec != "spread":
            raise ValueError(f"unknown window spec {spec!r} (use an int, 'spread', or a sequence)")
        hi = min(n, max(16, n // 4))
        lo = min(2, hi)
        vals = np.unique(
            np.round(np.geomspace(lo, hi, num=min(n_blocks, 8))).astype(np.int64)
        )
        return vals[np.arange(n_blocks) % len(vals)]
    if isinstance(spec, (int, np.integer)):
        if not (1 <= spec <= n):
            raise ValueError(f"window must be in [1, {n}], got {spec}")
        return np.full(n_blocks, int(spec), dtype=np.int64)
    arr = np.asarray(spec, dtype=np.int64)
    if arr.shape != (n_blocks,):
        raise ValueError(f"window sequence must have length {n_blocks}, got {arr.shape}")
    if (arr < 1).any() or (arr > n).any():
        raise ValueError(f"window values must be in [1, {n}]")
    return arr.copy()


@dataclass
class AbsConfig:
    """All tunables of the ABS framework.

    Attributes
    ----------
    n_gpus:
        Simulated devices (processes in ``"process"`` mode).
    blocks_per_gpu:
        Simultaneous searches per device (the paper runs 68–1088 per
        GPU; the NumPy engine defaults lower since each block costs
        Python-side memory bandwidth).
    local_steps:
        Forced flips per block between target refreshes (§3.2 Step 4b:
        "a local search from T with the fixed number of flips").
    window:
        Figure-2 selection window: int, ``"spread"``, or per-block list.
    backend:
        Kernel backend name for the bulk engine (``"numpy"``,
        ``"bitplane"``, ``"graycode"``, or any name registered with
        :func:`repro.backends.register_backend`).  ``None`` (default)
        consults the ``REPRO_BACKEND`` environment variable and falls
        back to ``"numpy"``.  Backend choice never changes the search
        result — only kernel speed (``bitplane`` degrades to ``numpy``
        with a warning when no C compiler is found).
    pool_capacity:
        Host solution-pool size ``m``.
    ga:
        Genetic-operator mix.
    scan_neighbors:
        Track the incumbent over all n neighbors per flip (Algorithm 4's
        inner check) rather than visited solutions only.
    adapt_windows:
        Enable the paper's future-work automatic per-block tuning:
        every ``adapt_period`` rounds, underperforming blocks adopt
        (perturbed) window sizes from the best-performing blocks.
    adapt_period, adapt_fraction:
        Adaptation cadence and the share of blocks replaced each time
        (see :class:`repro.abs.adaptive.WindowAdapter`).
    target_energy:
        Stop as soon as the best energy reaches this value (≤).
    time_limit:
        Wall-clock budget in seconds.
    max_rounds:
        Round-count budget (sync mode; in process mode it bounds the
        host's polling loop).
    seed:
        Root seed for every random stream in the run.
    max_worker_restarts:
        Process mode only: restart budget *per worker* for the
        supervision layer (see :mod:`repro.abs.supervisor`).  A worker
        whose process dies (or stalls past ``worker_stall_timeout``) is
        replaced up to this many times, each replacement rehydrated
        with fresh GA targets from the current pool; after that the
        worker is marked lost and the solve degrades onto the
        survivors.  0 disables restarts.
    worker_stall_timeout:
        Process mode only: seconds a worker may go without shipping a
        result before it is treated as unhealthy.  ``None`` (default)
        disables stall detection — process *death* is always detected.
    start_method:
        Multiprocessing start method for process mode: ``"fork"``,
        ``"spawn"``, ``"forkserver"``, or ``None`` (default) to pick
        ``"fork"`` where the platform offers it and fall back to the
        platform default elsewhere.  Worker arguments stay picklable,
        so ``"spawn"`` works on platforms without ``fork`` (and is the
        safe choice in threaded parents).
    exchange:
        Process mode only: the host↔worker transport.  ``"shm"`` (the
        default) exchanges targets and solutions through preallocated
        bit-packed shared-memory rings — the paper's Figure-5 buffers
        (:mod:`repro.abs.exchange`); ``"tcp"`` frames the same
        bit-packed payloads over loopback sockets (:mod:`repro.abs.tcp`)
        so workers can join and leave elastically.  ``None`` consults
        the ``REPRO_EXCHANGE`` environment variable, then defaults to
        ``"shm"``.  Transport choice never changes the search result.
    diversity_min_dist:
        Diverse-ABS pool admission (arXiv:2207.03069): reject a
        candidate whose Hamming distance to some pool entry is below
        this value unless it beats its niche's best energy (in which
        case the near entries are evicted).  ``0`` (default) and ``1``
        keep the base paper's duplicate-only policy bit-for-bit.
    variants:
        Diverse-ABS heterogeneous fleet: a comma-separated string or
        sequence of registered search-variant names
        (:mod:`repro.abs.variants`), cycled over the devices; the
        string ``"fleet"`` expands to the stock
        ladder/hot/greedy/tabu mix.  ``None`` (default) runs every
        device with the single base recipe, exactly as before.
    variant_adapt:
        Enable the variant-level adaptive controller: every
        ``variant_adapt_period`` sweeps a device migrates from the
        variant whose energies stagnate to the one improving fastest
        (sync mode only — process-mode fleets stay static).  Requires
        ``variants``.
    variant_adapt_period:
        Sweeps between variant-reallocation decisions.
    lockstep:
        Process mode only: after each result, a worker *blocks* until
        the host publishes fresh targets instead of reusing its
        previous ones.  This removes the timing dependence of
        free-running workers, making single-worker process runs
        bit-identical to sync mode — used by the cross-transport
        determinism tests.  Off by default (the paper's workers never
        block).
    """

    n_gpus: int = 1
    blocks_per_gpu: int = 32
    local_steps: int = 32
    window: WindowSpec = "spread"
    backend: str | None = None
    pool_capacity: int = 64
    ga: GaConfig = field(default_factory=GaConfig)
    scan_neighbors: bool = True
    adapt_windows: bool = False
    adapt_period: int = 4
    adapt_fraction: float = 0.25
    target_energy: int | None = None
    time_limit: float | None = None
    max_rounds: int | None = None
    seed: int | None = None
    max_worker_restarts: int = 2
    worker_stall_timeout: float | None = None
    start_method: str | None = None
    exchange: str | None = None
    lockstep: bool = False
    diversity_min_dist: int = 0
    variants: str | Sequence[str] | None = None
    variant_adapt: bool = False
    variant_adapt_period: int = 8

    def __post_init__(self) -> None:
        if self.n_gpus < 1:
            raise ValueError(f"n_gpus must be >= 1, got {self.n_gpus}")
        if self.blocks_per_gpu < 1:
            raise ValueError(f"blocks_per_gpu must be >= 1, got {self.blocks_per_gpu}")
        if self.local_steps < 0:
            raise ValueError(f"local_steps must be >= 0, got {self.local_steps}")
        if self.pool_capacity < 1:
            raise ValueError(f"pool_capacity must be >= 1, got {self.pool_capacity}")
        if self.adapt_period < 1:
            raise ValueError(f"adapt_period must be >= 1, got {self.adapt_period}")
        if not (0.0 < self.adapt_fraction <= 0.5):
            raise ValueError(
                f"adapt_fraction must be in (0, 0.5], got {self.adapt_fraction}"
            )
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError(f"time_limit must be positive, got {self.time_limit}")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.max_worker_restarts < 0:
            raise ValueError(
                f"max_worker_restarts must be >= 0, got {self.max_worker_restarts}"
            )
        if self.worker_stall_timeout is not None and self.worker_stall_timeout <= 0:
            raise ValueError(
                f"worker_stall_timeout must be positive, got {self.worker_stall_timeout}"
            )
        if self.backend is not None:
            from repro.backends import available_backends

            if self.backend not in available_backends():
                raise ValueError(
                    f"unknown backend {self.backend!r} "
                    f"(registered: {', '.join(available_backends())})"
                )
        if self.start_method not in (None, "fork", "spawn", "forkserver"):
            raise ValueError(
                "start_method must be None, 'fork', 'spawn', or 'forkserver', "
                f"got {self.start_method!r}"
            )
        if self.exchange is not None:
            from repro.abs.exchange import EXCHANGE_NAMES

            if self.exchange not in EXCHANGE_NAMES:
                raise ValueError(
                    f"exchange must be None or one of {EXCHANGE_NAMES}, "
                    f"got {self.exchange!r}"
                )
        if self.diversity_min_dist < 0:
            raise ValueError(
                f"diversity_min_dist must be >= 0, got {self.diversity_min_dist}"
            )
        if self.variant_adapt_period < 1:
            raise ValueError(
                f"variant_adapt_period must be >= 1, got {self.variant_adapt_period}"
            )
        if self.variants is not None:
            from repro.abs.variants import resolve_fleet

            # Validates every name (raises ValueError on unknown ones).
            resolve_fleet(self.variants, self.n_gpus)
        elif self.variant_adapt:
            raise ValueError("variant_adapt requires variants to be set")
        if (
            self.target_energy is None
            and self.time_limit is None
            and self.max_rounds is None
        ):
            raise ValueError(
                "no stopping criterion: set target_energy, time_limit, or max_rounds"
            )

    @property
    def total_blocks(self) -> int:
        """Searches running concurrently across all devices."""
        return self.n_gpus * self.blocks_per_gpu
