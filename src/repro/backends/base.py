"""The kernel-backend contract for the bulk engine.

:class:`~repro.gpusim.engine.BulkSearchEngine` calls a backend for two
things, the two walks of the paper's per-block device kernel (§3.2,
Figure 5):

=====================  ==================================================
method                 paper anchor
=====================  ==================================================
``run_local_steps``    Algorithm 4: ``steps`` forced flips per block,
                       each a Figure 2 windowed min-Δ select, an
                       Eq. (16) delta refresh and the incumbent check
``run_straight``       Algorithm 5: walk every block to its target,
                       flipping the still-differing bit of minimum Δ
=====================  ==================================================

plus a one-time weight conversion, ``prepare_dense`` /
``prepare_sparse``, whose :class:`PreparedWeights` the engine hands back
on every walk.  A backend implements the walks against the shared
batched state arrays (``X`` uint8 ``B×n``, ``delta``/``energy`` int64,
``best_*``).  All arithmetic is int64; every walk must be **bit-for-bit
identical** to the NumPy reference backend, including argmin
tie-breaking (first minimum wins).  The differential suite in
``tests/backends/test_equivalence.py`` pins every backend in
:func:`~repro.backends.available_backends` to the scalar references.

Backends are stateless with respect to the search: all search state
lives in the engine's arrays, so backends can be swapped between runs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PreparedWeights:
    """Kernel-ready view of the problem weights.

    ``dense`` is a contiguous int64 ``n×n`` matrix, or ``None`` for a
    sparse problem, in which case the off-diagonal weights are given in
    CSR form (``indptr``/``indices``/``data``, both triangles stored).
    Backends receive this object on every walk; a backend's own
    ``prepare_*`` may return a subclass carrying derived artifacts (the
    bitplane backend's packed weight rows and kernel handles).
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
        Backend name; stamped on ``solve.start`` telemetry and on
        :attr:`SolveResult.counters` consumers via the engine.
    fallback_from:
        When this instance was substituted for an unavailable backend
        (e.g. ``bitplane`` without a C compiler), the originally
        requested name; ``None`` otherwise.  The engine emits a
        ``backend.fallback`` telemetry event when set.
    fallback_reason:
        Why the requested backend was unavailable (set together with
        ``fallback_from``); the ``backend.fallback`` event's ``reason``.
    """

    name: str = "?"
    fallback_from: str | None = None
    fallback_reason: str = ""

    # ------------------------------------------------------------------
    # Weight preparation
    # ------------------------------------------------------------------
    def prepare_dense(self, W: np.ndarray) -> PreparedWeights:
        """Wrap a contiguous int64 dense matrix for the kernels."""
        return PreparedWeights(n=int(W.shape[0]), dense=W)

    def prepare_sparse(self, sparse) -> PreparedWeights:
        """Wrap a :class:`~repro.qubo.sparse.SparseQubo`'s CSR arrays."""
        return PreparedWeights(
            n=sparse.n,
            indptr=sparse.indptr,
            indices=sparse.indices,
            data=sparse.data,
        )

    # ------------------------------------------------------------------
    # The two walks the engine calls
    # ------------------------------------------------------------------
    @abstractmethod
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

        Each step picks the Figure 2 min-Δ bit inside the block's
        rotating window (first minimum wins), applies the Eq. (16)
        refresh, then checks the incumbent: the best neighbour
        (``E + min Δ``, lowest index on ties) before the position
        itself.  Mutates all state arrays (including ``offsets``,
        advanced by ``windows`` each step, mod n) in place and returns
        the number of delta entries written: ``n`` per flip on the
        dense path, ``degree(k) + 1`` on the sparse path — the honest
        work metric behind the ``engine.delta_updates`` counter (the
        paper's ``evaluated`` exposure metric stays ``flips·n`` either
        way).
        """

    @abstractmethod
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
        incumbent is checked as in :meth:`run_local_steps`
        (``scan_neighbors``) or against the walk position only (the
        literal Algorithm 5).  Mutates the state arrays in place and
        returns the delta entries written (see :meth:`run_local_steps`).
        """

    def __repr__(self) -> str:
        suffix = f", fallback_from={self.fallback_from!r}" if self.fallback_from else ""
        return f"{type(self).__name__}(name={self.name!r}{suffix})"
