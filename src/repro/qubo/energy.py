"""The energy function and the paper's difference-computation identities.

This module implements, in vectorized NumPy, exactly the quantities
Section 2 of the paper manipulates:

- ``energy``            — Eq. (1):  ``E(X) = XᵀWX``                 O(n²)
- ``delta_vector``      — Eq. (4):  ``Δ_k(X)`` for all k             O(n²)
- ``delta_single``      — Eq. (10): one ``Δ_k(X)``                   O(n)
- ``update_delta_after_flip`` — Eq. (6)/(16): refresh the whole Δ
  vector after one flip                                              O(n)

All arithmetic is carried out in ``int64``: with 16-bit weights and
n ≤ 32 k, ``|E| ≤ 2¹⁵·(2¹⁵)² ≈ 3.5·10¹³`` which fits comfortably.
"""

from __future__ import annotations

import numpy as np

from repro.qubo.matrix import WeightsLike, as_weight_matrix
from repro.utils.validation import check_bit_vector, check_index


def _sparse(weights):
    """Return the :class:`~repro.qubo.sparse.SparseQubo` if that's what
    ``weights`` is, else ``None`` (lazy import avoids a cycle)."""
    from repro.qubo.sparse import SparseQubo

    return weights if isinstance(weights, SparseQubo) else None


def weights_size(weights) -> int:
    """Number of bits of a dense or sparse weights object."""
    sq = _sparse(weights)
    if sq is not None:
        return sq.n
    return as_weight_matrix(weights).shape[0]


def phi(x: np.ndarray | int) -> np.ndarray | int:
    """The sign map ``φ(x) = 1 − 2x`` of Eq. (3): 0 ↦ +1, 1 ↦ −1."""
    if isinstance(x, np.ndarray):
        return 1 - 2 * x.astype(np.int64)
    return 1 - 2 * int(x)


def energy(weights: WeightsLike, x: np.ndarray) -> int:
    """Evaluate ``E(X) = XᵀWX`` (Eq. 1) from scratch — O(n²).

    This is the reference evaluator used by Algorithm 1 and by every
    test that cross-checks the incremental identities.  Accepts dense
    weights or a :class:`~repro.qubo.sparse.SparseQubo`.
    """
    sq = _sparse(weights)
    if sq is not None:
        return sq.energy(x)
    W = as_weight_matrix(weights)
    ones = np.flatnonzero(check_bit_vector(x, W.shape[0]))
    # Σ W_ij over set bits i, j: a row gather, not an int64 copy of W.
    return int(W[ones].sum(axis=0, dtype=np.int64)[ones].sum())


def energy_batch(weights: WeightsLike, X: np.ndarray) -> np.ndarray:
    """Evaluate ``E`` for each row of a ``B × n`` bit matrix — O(Bn²).

    Returns an ``int64`` vector of length ``B``.
    """
    W = as_weight_matrix(weights)
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] != W.shape[0]:
        raise ValueError(
            f"X must have shape (B, {W.shape[0]}), got {X.shape}"
        )
    Xi = X.astype(np.int64)
    return np.einsum("bi,ij,bj->b", Xi, W.astype(np.int64, copy=False), Xi)


def delta_vector(weights: WeightsLike, x: np.ndarray) -> np.ndarray:
    """All flip deltas ``Δ_k(X) = E(flip_k(X)) − E(X)`` (Eq. 4) — O(n²).

    ``Δ_k = φ(x_k)·(2·Σ_{j≠k} W_kj x_j + W_kk)``.  Used to initialize a
    :class:`~repro.qubo.state.SearchState` from an arbitrary bit vector
    and as the ground truth the O(n) update is tested against.
    """
    sq = _sparse(weights)
    if sq is not None:
        return sq.delta_vector(x)
    W = as_weight_matrix(weights).astype(np.int64, copy=False)
    xb = check_bit_vector(x, W.shape[0])
    xi = xb.astype(np.int64)
    diag = np.diagonal(W)
    row = W @ xi  # Σ_j W_kj x_j including j == k
    inner = 2 * (row - diag * xi) + diag
    return phi(xb) * inner


def delta_single(weights: WeightsLike, x: np.ndarray, k: int) -> int:
    """One flip delta ``Δ_k(X)`` via Eq. (10) — O(n), O(degree) sparse."""
    sq = _sparse(weights)
    if sq is not None:
        xb = check_bit_vector(x, sq.n)
        check_index(k, sq.n, "k")
        cols, vals = sq.row(k)
        s = int(vals @ xb[cols].astype(np.int64))
        return int(phi(int(xb[k]))) * (2 * s + int(sq.diag[k]))
    W = as_weight_matrix(weights).astype(np.int64, copy=False)
    xb = check_bit_vector(x, W.shape[0])
    check_index(k, W.shape[0], "k")
    xi = xb.astype(np.int64)
    row = W[k]
    s = int(row @ xi) - int(row[k]) * int(xi[k])
    return int(phi(int(xb[k]))) * (2 * s + int(row[k]))


def update_delta_after_flip(
    weights: WeightsLike,
    x: np.ndarray,
    delta: np.ndarray,
    k: int,
) -> int:
    """Apply Eq. (6)/(16) in place after deciding to flip bit ``k`` — O(n).

    Given the *pre-flip* solution ``x`` and its delta vector ``delta``,
    updates ``delta`` to describe ``flip_k(x)`` and flips ``x[k]`` in
    place.  Returns the energy change ``Δ_k`` that the caller must add
    to its tracked energy:

    - ``Δ_i(flip_k X) = Δ_i(X) + 2·W_ik·φ(x_i)·φ(x_k)`` for ``i ≠ k``
    - ``Δ_k(flip_k X) = −Δ_k(X)``

    This single function is the kernel that makes the paper's O(1)
    search efficiency possible: every search step costs O(n) while
    exposing the energies of all ``n`` neighbors (O(degree) for sparse
    weights).
    """
    sq = _sparse(weights)
    if sq is not None:
        return sq.update_delta_after_flip(x, delta, k)
    W = as_weight_matrix(weights)
    n = W.shape[0]
    check_index(k, n, "k")
    if x.shape != (n,) or delta.shape != (n,):
        raise ValueError(
            f"x and delta must have shape ({n},), got {x.shape} and {delta.shape}"
        )
    if delta.dtype != np.int64:
        raise TypeError(f"delta must be int64, got {delta.dtype}")

    applied = int(delta[k])
    sk = 1 - 2 * int(x[k])  # φ(x_k) before the flip
    # Δ_i += 2 W_ik φ(x_i) φ(x_k); vectorized over all i, then fix i == k.
    signs = (1 - 2 * x.astype(np.int64)) * sk
    delta += 2 * W[:, k].astype(np.int64, copy=False) * signs
    delta[k] = -applied
    x[k] ^= 1
    return applied
