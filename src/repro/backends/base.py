"""The kernel-backend contract for the bulk engine.

The hot path of :class:`~repro.gpusim.engine.BulkSearchEngine` is five
kernels, each the batched analogue of one paper construct:

==================  =====================================================
kernel              paper anchor
==================  =====================================================
``flip``            Eq. (16) delta refresh (dense row add / sparse
                    scatter over the flipped bit's neighbours)
``select_window``   Figure 2 windowed min-Δ selection (rotating offset,
                    per-block window ``l``)
``select_straight`` Algorithm 5 line 3: min-Δ over still-differing bits
``update_best``     Algorithm 4's inner ``E(X) + d_i < E(B)`` incumbent
                    check over all ``n`` exposed neighbours
``track_position``  the literal Algorithm 5 variant that only considers
                    visited solutions
==================  =====================================================

A backend implements these against the shared batched state arrays
(``X`` uint8 ``B×n``, ``delta``/``energy`` int64, ``best_*``) and may
additionally fuse the whole :meth:`run_local_steps` loop (the dominant
hot path — one Python-level iteration per forced flip in the reference
implementation) and the whole Algorithm 5 walk, :meth:`run_straight`.
All arithmetic is int64; every kernel must be **bit-for-bit
identical** to the NumPy reference backend, including argmin
tie-breaking (first minimum wins).  The differential suite in
``tests/backends/test_equivalence.py`` pins every registered backend to
the scalar references automatically.

Backends are stateless with respect to the search: all search state
lives in the engine's arrays, so backends can be swapped between runs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

_INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class PreparedWeights:
    """Kernel-ready view of the problem weights.

    ``dense`` is a contiguous int64 ``n×n`` matrix, or ``None`` for a
    sparse problem, in which case the off-diagonal weights are given in
    CSR form (``indptr``/``indices``/``data``, both triangles stored).
    Backends receive this object on every kernel call and may stash
    derived artifacts keyed by it (e.g. compiled closures).
    """

    n: int
    dense: np.ndarray | None = None
    indptr: np.ndarray | None = None
    indices: np.ndarray | None = None
    data: np.ndarray | None = None

    @property
    def is_sparse(self) -> bool:
        return self.dense is None


class KernelBackend(ABC):
    """Abstract kernel set; see the module docstring for the contract.

    Attributes
    ----------
    name:
        Registry name; stamped on ``solve.start`` telemetry and on
        :attr:`SolveResult.counters` consumers via the engine.
    fallback_from:
        When this instance was substituted for an unavailable backend
        (e.g. ``bitplane`` without a C compiler), the originally
        requested name; ``None`` otherwise.  The engine emits a
        ``backend.fallback`` telemetry event when set.
    """

    name: str = "?"
    fallback_from: str | None = None

    # ------------------------------------------------------------------
    # Weight preparation
    # ------------------------------------------------------------------
    def prepare_dense(self, W: np.ndarray) -> PreparedWeights:
        """Wrap a contiguous int64 dense matrix for the kernels."""
        return PreparedWeights(n=int(W.shape[0]), dense=W)

    def prepare_sparse(self, sparse) -> PreparedWeights:
        """Wrap a :class:`~repro.qubo.sparse.SparseQubo`'s CSR arrays."""
        csr = sparse.csr
        return PreparedWeights(
            n=sparse.n,
            indptr=np.ascontiguousarray(csr.indptr, dtype=np.int64),
            indices=np.ascontiguousarray(csr.indices, dtype=np.int64),
            data=np.ascontiguousarray(csr.data, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # Primitive kernels
    # ------------------------------------------------------------------
    @abstractmethod
    def flip(
        self,
        pw: PreparedWeights,
        X: np.ndarray,
        delta: np.ndarray,
        energy: np.ndarray,
        ids: np.ndarray,
        ks: np.ndarray,
    ) -> int:
        """Flip bit ``ks[i]`` of block ``ids[i]`` for all i (Eq. 16).

        Mutates ``X``/``delta``/``energy`` in place and returns the
        number of delta-vector entries written: ``m·n`` on the dense
        path, ``Σ (degree(k_i) + 1)`` on the sparse path — the honest
        work metric behind the ``engine.delta_updates`` counter (the
        paper's ``evaluated`` exposure metric stays ``m·n`` either way).
        """

    @abstractmethod
    def select_window(
        self,
        delta: np.ndarray,
        offsets: np.ndarray,
        windows: np.ndarray,
    ) -> np.ndarray:
        """Figure 2: per-block min-Δ bit inside the rotating window.

        Returns the length-``B`` int64 array of chosen bit indices.
        Ties break toward the *earliest lane* (lowest offset distance),
        exactly like ``np.argmin`` over the windowed extract.
        """

    @abstractmethod
    def select_straight(
        self,
        delta: np.ndarray,
        diff: np.ndarray,
        ids: np.ndarray,
    ) -> np.ndarray:
        """Algorithm 5 line 3 for blocks ``ids``: min-Δ differing bit.

        ``diff`` is the full ``B×n`` uint8 array ``X ^ T``; the result
        has one chosen index per entry of ``ids``.  Ties break toward
        the lowest bit index.
        """

    @abstractmethod
    def update_best(
        self,
        X: np.ndarray,
        delta: np.ndarray,
        energy: np.ndarray,
        best_energy: np.ndarray,
        best_x: np.ndarray,
        ids: np.ndarray,
    ) -> None:
        """Incumbent check over all ``n`` exposed neighbours + position.

        Must test the best neighbour (``E + min Δ``) *before* the walk
        position itself, matching the scalar reference's update order.
        """

    @abstractmethod
    def track_position(
        self,
        X: np.ndarray,
        energy: np.ndarray,
        best_energy: np.ndarray,
        best_x: np.ndarray,
        ids: np.ndarray,
    ) -> None:
        """Literal Algorithm 5 tracking: visited solutions only."""

    # ------------------------------------------------------------------
    # Fused hot loop
    # ------------------------------------------------------------------
    def run_local_steps(
        self,
        pw: PreparedWeights,
        X: np.ndarray,
        delta: np.ndarray,
        energy: np.ndarray,
        best_energy: np.ndarray,
        best_x: np.ndarray,
        offsets: np.ndarray,
        windows: np.ndarray,
        steps: int,
    ) -> int:
        """Batched Algorithm 4: ``steps`` forced flips for every block.

        Default implementation composes the primitive kernels with one
        Python iteration per step; JIT backends override it with a
        fused multi-step kernel.  Mutates all state arrays (including
        ``offsets``, advanced by ``windows`` each step, mod n) in place
        and returns the total delta-entry writes (see :meth:`flip`).
        """
        n = pw.n
        B = X.shape[0]
        ids = np.arange(B)
        updates = 0
        for _ in range(steps):
            ks = self.select_window(delta, offsets, windows)
            updates += self.flip(pw, X, delta, energy, ids, ks)
            self.update_best(X, delta, energy, best_energy, best_x, ids)
            offsets[:] = (offsets + windows) % n
        return updates

    def run_straight(
        self,
        pw: PreparedWeights,
        X: np.ndarray,
        T: np.ndarray,
        delta: np.ndarray,
        energy: np.ndarray,
        best_energy: np.ndarray,
        best_x: np.ndarray,
        scan_neighbors: bool,
    ) -> int:
        """Batched Algorithm 5: walk every block of ``X`` to its target row.

        Each block repeatedly flips its still-differing bit of minimum
        Δ (lowest index on ties) until it equals its row of ``T`` (uint8
        ``B×n``); blocks retire independently.  After every flip the
        incumbent is updated by :meth:`update_best` (``scan_neighbors``)
        or :meth:`track_position`.  Mutates the state arrays in place
        and returns the total delta-entry writes (see :meth:`flip`).

        Default implementation composes the primitive kernels with one
        Python iteration per flip round; compiled backends override it
        with one fused call.
        """
        ids_all = np.arange(X.shape[0])
        updates = 0
        while True:
            diff = X ^ T
            active = diff.any(axis=1)
            if not active.any():
                return updates
            ids = ids_all[active]
            ks = self.select_straight(delta, diff, ids)
            updates += self.flip(pw, X, delta, energy, ids, ks)
            if scan_neighbors:
                self.update_best(X, delta, energy, best_energy, best_x, ids)
            else:
                self.track_position(X, energy, best_energy, best_x, ids)

    def __repr__(self) -> str:
        suffix = f", fallback_from={self.fallback_from!r}" if self.fallback_from else ""
        return f"{type(self).__name__}(name={self.name!r}{suffix})"
