"""The bulk engine: B simultaneous Algorithm 4/5 searches, batched.

One RTX 2080 Ti in the paper runs up to 1088 CUDA blocks, each an
independent forced-flip local search over its own register-file state.
This engine reproduces that execution model: block ``b`` is row ``b``
of the batched state

- ``X``      — ``B × n`` current solutions (uint8 bits),
- ``delta``  — ``B × n`` maintained ``Δ_i`` values (int64),
- ``energy`` — ``B`` tracked energies (int64),

and one :meth:`local_steps` iteration performs the Eq. (16) delta
refresh, windowed min-Δ selection (Figure 2, per-block window sizes and
offsets — the parallel-tempering-like temperature spread), the flip, and
best-solution tracking for *all* blocks.  :meth:`straight_to` is the
batched Algorithm 5, with blocks retiring independently as they reach
their targets (the asynchrony the paper gets from per-block execution).

The hot kernels themselves live behind the pluggable
:class:`~repro.backends.KernelBackend` interface (``numpy`` reference
kernels; ``bitplane`` compiled C kernels that fuse the whole
``local_steps`` loop and the whole straight walk, which the default
``auto`` picks wherever a C compiler is present — see
:mod:`repro.backends` and ``docs/backends.md``).  The engine owns all
search state; backends are stateless kernel sets, so swapping backends
never changes the walk: every backend in the ``repro.backends`` name
table is tested to be step-for-step identical to the scalar reference
:class:`~repro.search.bulk.BulkLocalSearch` /
:func:`~repro.search.straight.straight_search`
(``tests/backends/test_equivalence.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.backends import BackendSpec, resolve_backend
from repro.qubo.matrix import WeightsLike, as_weight_matrix
from repro.telemetry.bus import NULL_BUS, NullBus, TelemetryBus
from repro.utils.validation import check_bit_vector

_INT64_MAX = np.iinfo(np.int64).max


@dataclass
class EngineCounters:
    """Work counters aggregated across all blocks.

    ``evaluated`` follows the paper's Definition-1 *neighbourhood
    exposure* semantics: every flip exposes the energies of all ``n``
    neighbours through the live delta vector, so it always advances by
    ``flips × n`` — on the sparse path too, where the refresh only
    *writes* the flipped bit's ``degree + 1`` delta entries but the
    remaining entries stay exposed unchanged.  ``delta_updates`` is the
    honest work metric: delta entries actually written (``flips × n``
    dense, ``Σ (degree(k) + 1)`` sparse), i.e. what the hardware pays.
    The two only coincide on dense problems.
    """

    flips: int = 0
    evaluated: int = 0
    delta_updates: int = 0
    straight_flips: int = 0
    local_flips: int = 0
    straight_retirements: int = 0

    def as_dict(self, prefix: str = "engine.") -> dict[str, int]:
        """Counters as a flat ``{prefixed name: value}`` mapping."""
        return {
            f"{prefix}flips": self.flips,
            f"{prefix}evaluated": self.evaluated,
            f"{prefix}delta_updates": self.delta_updates,
            f"{prefix}straight_flips": self.straight_flips,
            f"{prefix}local_flips": self.local_flips,
            f"{prefix}straight_retirements": self.straight_retirements,
        }


class BulkSearchEngine:
    """Batched forced-flip searches for ``n_blocks`` simulated CUDA blocks.

    Parameters
    ----------
    weights:
        Problem weight matrix (copied into a contiguous int64 array so
        the per-step row gather never re-converts dtypes).
    n_blocks:
        Number of simultaneous searches ``B``.
    windows:
        Selection-window size(s) ``l`` (Figure 2).  A scalar applies to
        every block; a length-``B`` sequence gives each block its own
        "temperature".  Defaults to 16 (the paper's throughput sweet
        spot for small n).
    offsets:
        Initial window offsets.  Default staggers blocks across the bit
        range so equal-window blocks don't walk in lockstep.
    backend:
        Kernel backend: a name from the ``repro.backends`` table
        (``"auto"``, ``"numpy"``, ``"bitplane"``), a
        :class:`~repro.backends.KernelBackend` instance, or ``None`` to
        consult the ``REPRO_BACKEND`` environment variable and default
        to ``"auto"`` (``bitplane`` where a C compiler exists, else
        ``numpy``).  Backend choice never changes the search — only how
        fast the kernels run.
    bus:
        Optional :class:`~repro.telemetry.TelemetryBus`.  The engine
        emits one aggregate event per :meth:`straight_to` /
        :meth:`local_steps` call — never per flip — so a disabled bus
        costs one attribute check per batch.  With a bus attached, the
        engine also accumulates per-kernel wall-clock session counters
        (``backend.*_ns``).
    """

    def __init__(
        self,
        weights: WeightsLike,
        n_blocks: int,
        *,
        windows: int | np.ndarray = 16,
        offsets: np.ndarray | None = None,
        backend: BackendSpec = None,
        bus: TelemetryBus | NullBus | None = None,
        prepared: object | None = None,
    ) -> None:
        from repro.qubo.sparse import SparseQubo

        if n_blocks < 1:
            raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
        self.backend = resolve_backend(backend)
        self._bus = bus if bus is not None else NULL_BUS
        t0 = time.perf_counter_ns()
        # ``prepared`` lets a caller inject a PreparedWeights produced by
        # an earlier engine over the *same* weights and backend, skipping
        # backend prep entirely (the warm-fleet service's per-digest
        # cache rides on this).  Prepared state is read-only kernel input,
        # so sharing it across engines never couples their searches.
        if isinstance(weights, SparseQubo):
            # Sparse path: per-flip scatter over touched columns only.
            self.sparse: SparseQubo | None = weights
            self.W = None
            self.n = weights.n
            diag_src = weights.diag
            self._pw = (
                prepared if prepared is not None
                else self.backend.prepare_sparse(weights)
            )
        else:
            self.sparse = None
            W = as_weight_matrix(weights)
            self.n = int(W.shape[0])
            self.W = np.ascontiguousarray(W, dtype=np.int64)
            diag_src = np.diagonal(self.W)
            self._pw = (
                prepared if prepared is not None
                else self.backend.prepare_dense(self.W)
            )
        if self._bus.enabled:
            self._bus.counters.inc(
                f"backend.{self.backend.name}.prepare_ns",
                time.perf_counter_ns() - t0,
            )
        if self.n < 1:
            raise ValueError("engine requires at least one bit")
        self.B = int(n_blocks)

        win = np.broadcast_to(np.asarray(windows, dtype=np.int64), (self.B,)).copy()
        if (win < 1).any() or (win > self.n).any():
            raise ValueError(f"window sizes must be in [1, {self.n}]")
        self.windows = win
        if offsets is None:
            stride = max(1, self.n // self.B)
            offsets = (np.arange(self.B, dtype=np.int64) * stride) % self.n
        off = np.broadcast_to(np.asarray(offsets, dtype=np.int64), (self.B,)).copy()
        if (off < 0).any() or (off >= self.n).any():
            raise ValueError(f"offsets must be in [0, {self.n})")
        self.offsets = off

        # All blocks start from the zero vector: E(0) = 0, Δ_i = W_ii
        # (§3.2 Step 1) — never an O(n²) evaluation.
        diag = np.ascontiguousarray(diag_src, dtype=np.int64)
        self.X = np.zeros((self.B, self.n), dtype=np.uint8)
        self.delta = np.tile(diag, (self.B, 1))
        self.energy = np.zeros(self.B, dtype=np.int64)

        self.best_energy = np.full(self.B, _INT64_MAX, dtype=np.int64)
        self.best_x = np.zeros((self.B, self.n), dtype=np.uint8)
        self.counters = EngineCounters()
        if self._bus.enabled and self.backend.fallback_from:
            self._bus.emit(
                "backend.fallback",
                requested=self.backend.fallback_from,
                using=self.backend.name,
                reason=self.backend.fallback_reason,
            )

    @property
    def prepared(self) -> object:
        """The backend's PreparedWeights — harvestable for reuse by a
        later engine over the same weights and backend (``prepared=``)."""
        return self._pw

    # ------------------------------------------------------------------
    # Device steps
    # ------------------------------------------------------------------
    def reset_best(self) -> None:
        """§3.2 Step 3: forget the per-block incumbents.

        The host already pooled anything worth keeping; resetting lets
        each block report a *different* good solution next round,
        avoiding premature convergence.
        """
        self.best_energy.fill(_INT64_MAX)

    def straight_to(self, targets: np.ndarray, *, scan_neighbors: bool = True) -> int:
        """Batched Algorithm 5: walk every block to its target.

        ``targets`` is ``B × n``.  Blocks retire as they arrive (their
        flip count equals their Hamming distance).  The walk itself is
        one :meth:`~repro.backends.KernelBackend.run_straight` call.
        Returns the total number of flips performed.
        """
        T = np.asarray(targets)
        if T.shape != (self.B, self.n):
            raise ValueError(f"targets must have shape ({self.B}, {self.n}), got {T.shape}")
        if T.dtype != np.uint8:
            T = T.astype(np.uint8)
        # Every flip retires one differing bit, so the per-block Hamming
        # distances fix the flip count, retirements and rounds up front.
        dist = np.count_nonzero(self.X ^ T, axis=1)
        total = int(dist.sum())
        retired = int(np.count_nonzero(dist))
        iters = int(dist.max())
        bus = self._bus
        if bus.enabled:
            t0 = time.perf_counter_ns()
        updates = self.backend.run_straight(
            self._pw,
            self.X,
            T,
            self.delta,
            self.energy,
            self.best_energy,
            self.best_x,
            scan_neighbors,
        )
        self.counters.flips += total
        self.counters.evaluated += total * self.n
        self.counters.delta_updates += updates
        self.counters.straight_flips += total
        self.counters.straight_retirements += retired
        if bus.enabled:
            bus.counters.inc(
                f"backend.{self.backend.name}.straight_ns",
                time.perf_counter_ns() - t0,
            )
            bus.emit(
                "engine.straight",
                flips=total,
                iters=iters,
                retired=retired,
                already_at_target=self.B - retired,
                backend=self.backend.name,
            )
        return total

    def local_steps(self, steps: int) -> None:
        """Batched Algorithm 4: ``steps`` forced flips for every block.

        Selection follows Figure 2 exactly: block ``b`` extracts the
        ``l_b`` bits at its rotating offset, flips the one with minimum
        Δ, and advances its offset by ``l_b`` (mod n).  The whole
        multi-step loop is delegated to the backend, which may fuse it
        into one compiled C call (``bitplane``; the numpy reference
        pays one Python iteration per step).
        """
        if steps < 0:
            raise ValueError(f"steps must be non-negative, got {steps}")
        bus = self._bus
        timing = bus.enabled
        if timing:
            t0 = time.perf_counter_ns()
        updates = self.backend.run_local_steps(
            self._pw,
            self.X,
            self.delta,
            self.energy,
            self.best_energy,
            self.best_x,
            self.offsets,
            self.windows,
            steps,
        )
        n = self.n
        self.counters.flips += steps * self.B
        self.counters.evaluated += steps * self.B * n
        self.counters.delta_updates += updates
        self.counters.local_flips += steps * self.B
        if bus.enabled and steps:
            bus.counters.inc(
                f"backend.{self.backend.name}.local_steps_ns",
                time.perf_counter_ns() - t0,
            )
            bus.emit(
                "engine.local",
                steps=steps,
                flips=steps * self.B,
                evaluated=steps * self.B * n,
                backend=self.backend.name,
            )

    # ------------------------------------------------------------------
    # Readout
    # ------------------------------------------------------------------
    def set_state(self, block: int, x: np.ndarray) -> None:
        """Force block ``block`` to solution ``x`` (recomputes its state).

        Test/setup helper — costs O(n²) and is never used on the hot
        path (the framework only moves blocks via straight search).
        """
        from repro.qubo.energy import delta_vector, energy

        weights = self.sparse if self.sparse is not None else self.W
        xb = check_bit_vector(x, self.n, "x")
        self.X[block] = xb
        self.energy[block] = energy(weights, xb)
        self.delta[block] = delta_vector(weights, xb)

    def block_best(self, block: int) -> tuple[int, np.ndarray]:
        """``(best_energy, best_x)`` for one block."""
        if not (0 <= block < self.B):
            raise IndexError(f"block must be in [0, {self.B}), got {block}")
        return int(self.best_energy[block]), self.best_x[block].copy()

    def global_best(self) -> tuple[int, np.ndarray]:
        """The best ``(energy, x)`` over all blocks."""
        b = int(self.best_energy.argmin())
        return self.block_best(b)

    def validate(self) -> None:
        """Recompute every block's energy/delta from scratch and compare.

        O(B·n²); for tests only.  The pytest-facing variant with a
        first-divergence diff lives in ``tests/helpers/engine_check.py``.
        """
        from repro.qubo.energy import delta_vector, energy

        weights = self.sparse if self.sparse is not None else self.W
        for b in range(self.B):
            e = energy(weights, self.X[b])
            d = delta_vector(weights, self.X[b])
            assert e == self.energy[b], f"block {b}: energy {self.energy[b]} != {e}"
            assert np.array_equal(d, self.delta[b]), f"block {b}: delta diverged"
