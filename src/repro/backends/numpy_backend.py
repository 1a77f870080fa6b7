"""The NumPy reference backend — the semantics every backend is pinned to.

The two walks of :class:`~repro.backends.base.KernelBackend` are composed
here from five primitive kernels, each the batched analogue of one paper
construct:

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

Each primitive is fully vectorized over blocks; the walks take one
Python-level iteration per forced flip (:meth:`run_local_steps`) or per
flip round (:meth:`run_straight`).  Always available; the
differential-equivalence suite treats it as ground truth against the
scalar Algorithm 4/5 references.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import KernelBackend, PreparedWeights

_INT64_MAX = np.iinfo(np.int64).max


class NumpyBackend(KernelBackend):
    """Vectorized reference kernels (the paper's Eq. 16 / Fig. 2 / Alg. 5)."""

    name = "numpy"

    # ------------------------------------------------------------------
    # The two walks, composed from the primitives
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
        """Algorithm 4 as one Python iteration per step: select, flip,
        incumbent check, offset advance (see the base class)."""
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
        """Algorithm 5 as one Python iteration per flip round over the
        still-active blocks: select, flip, then :meth:`update_best`
        (``scan_neighbors``) or :meth:`track_position` (see the base
        class)."""
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

    # ------------------------------------------------------------------
    # Eq. (16) flip
    # ------------------------------------------------------------------
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
        number of delta entries written: ``m·n`` dense, ``Σ (degree(k_i)
        + 1)`` sparse.
        """
        if pw.is_sparse:
            return self._flip_sparse(pw, X, delta, energy, ids, ks)
        W = pw.dense
        m = len(ids)
        B = X.shape[0]
        rows = W[ks]  # (m, n) gather of W_k·
        if m == B:
            # Fast path: every block flips (the local-search steady
            # state) — update in place without fancy-index row copies.
            sk = 1 - 2 * X[ids, ks].astype(np.int64)
            signs = 1 - 2 * X.astype(np.int64)
            signs *= sk[:, None]
            dk_old = delta[ids, ks]  # fancy indexing → fresh copy
            signs *= rows
            signs += signs  # ×2 without an extra temporary
            delta += signs
            delta[ids, ks] = -dk_old
            energy += dk_old
            X[ids, ks] ^= 1
        else:
            xs = X[ids]
            sk = 1 - 2 * X[ids, ks].astype(np.int64)
            signs = (1 - 2 * xs.astype(np.int64)) * sk[:, None]
            dk_old = delta[ids, ks]  # fancy indexing → fresh copy
            delta[ids] += 2 * rows * signs
            delta[ids, ks] = -dk_old
            energy[ids] += dk_old
            X[ids, ks] ^= 1
        return m * pw.n

    def _flip_sparse(
        self,
        pw: PreparedWeights,
        X: np.ndarray,
        delta: np.ndarray,
        energy: np.ndarray,
        ids: np.ndarray,
        ks: np.ndarray,
    ) -> int:
        """Sparse flip kernel: scatter Eq. (16) over touched columns.

        For block ``ids[i]`` flipping bit ``ks[i]``, only the
        ``degree(ks[i])`` columns adjacent to the flipped bit change —
        O(Σ degree) total instead of O(m·n).
        """
        indptr, indices, data = pw.indptr, pw.indices, pw.data
        starts = indptr[ks]
        lens = indptr[ks + 1] - starts
        total = int(lens.sum())
        dk_old = delta[ids, ks]  # fancy indexing → fresh copy
        sk = 1 - 2 * X[ids, ks].astype(np.int64)
        if total:
            bidx = np.repeat(ids, lens)
            # Flat CSR positions: starts[i] .. starts[i]+lens[i] for each i.
            offs = np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
            flat = np.repeat(starts, lens) + offs
            cols = indices[flat]
            vals = data[flat]
            signs = (1 - 2 * X[bidx, cols].astype(np.int64)) * np.repeat(sk, lens)
            # (bidx, cols) pairs are unique (columns are unique within a
            # CSR row), so fancy-index += is well-defined here.
            delta[bidx, cols] += 2 * vals * signs
        delta[ids, ks] = -dk_old
        energy[ids] += dk_old
        X[ids, ks] ^= 1
        return total + len(ids)

    # ------------------------------------------------------------------
    # Selection kernels
    # ------------------------------------------------------------------
    def select_window(
        self,
        delta: np.ndarray,
        offsets: np.ndarray,
        windows: np.ndarray,
    ) -> np.ndarray:
        """Figure 2: per-block min-Δ bit inside the rotating window.

        Ties break toward the *earliest lane* (lowest offset distance),
        exactly like ``np.argmin`` over the windowed extract.
        """
        B, n = delta.shape
        ids = np.arange(B)
        l_max = int(windows.max())
        lane = np.arange(l_max, dtype=np.int64)
        idx = (offsets[:, None] + lane[None, :]) % n
        in_window = lane[None, :] < windows[:, None]
        vals = np.where(in_window, delta[ids[:, None], idx], _INT64_MAX)
        return idx[ids, vals.argmin(axis=1)]

    def select_straight(
        self,
        delta: np.ndarray,
        diff: np.ndarray,
        ids: np.ndarray,
    ) -> np.ndarray:
        """Algorithm 5 line 3 for blocks ``ids``: the min-Δ bit set in
        ``diff`` (``X ^ T``, all ``B`` rows), lowest index on ties."""
        masked = np.where(diff[ids].astype(bool), delta[ids], _INT64_MAX)
        return masked.argmin(axis=1)

    # ------------------------------------------------------------------
    # Incumbent tracking
    # ------------------------------------------------------------------
    def update_best(
        self,
        X: np.ndarray,
        delta: np.ndarray,
        energy: np.ndarray,
        best_energy: np.ndarray,
        best_x: np.ndarray,
        ids: np.ndarray,
    ) -> None:
        """Incumbent check over all ``n`` exposed neighbours, then the
        position: the best neighbour is tested first, matching the
        scalar reference's update order."""
        sub_delta = delta[ids]
        pos = sub_delta.argmin(axis=1)
        cand = energy[ids] + sub_delta[np.arange(len(ids)), pos]
        improved = cand < best_energy[ids]
        if improved.any():
            rid = ids[improved]
            best_energy[rid] = cand[improved]
            best_x[rid] = X[rid]
            best_x[rid, pos[improved]] ^= 1
        at_pos = energy[ids] < best_energy[ids]
        if at_pos.any():
            rid = ids[at_pos]
            best_energy[rid] = energy[rid]
            best_x[rid] = X[rid]

    def track_position(
        self,
        X: np.ndarray,
        energy: np.ndarray,
        best_energy: np.ndarray,
        best_x: np.ndarray,
        ids: np.ndarray,
    ) -> None:
        """Literal Algorithm 5 tracking: visited solutions only."""
        at_pos = energy[ids] < best_energy[ids]
        rid = ids[at_pos]
        best_energy[rid] = energy[rid]
        best_x[rid] = X[rid]
