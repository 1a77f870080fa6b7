"""Gray-code exact enumerator: exhaustive enumeration for small QUBOs.

An ABS device kernel can afford exhaustive search only when the whole
state fits in registers; on the host the same trick is practical up to
``n ≤ 30`` by walking all ``2^n`` assignments in *Gray-code order*, so
consecutive states differ in exactly one bit and each energy follows
from its predecessor by one Eq. 16 single-flip update
(``ΔE = s_k (W_kk + 2 Σ_{j≠k} W_kj x_j)``) instead of a full ``x^T W x``
evaluation.  To keep the walk vectorized, the variables are split into
``n_low + b_high = n``: one shared Gray walk over the low bits advances
``2^b_high`` lanes — one per frozen high-bit pattern — in lockstep, so
every NumPy operation touches ``2^b_high`` elements and the Python loop
runs only ``2^n_low`` times.

:func:`graycode_minimum` is the **exact finisher** of the decomposition
outer loop (``DecompositionConfig.exact_below``): subproblems at or
below the threshold are solved to proven optimality instead of by a
cold inner ABS run.  It is an exact solver, not a step kernel, so it
is not an engine backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = [
    "MAX_GRAYCODE_BITS",
    "GraycodeSolution",
    "graycode_minimum",
]

#: Hard cap on exhaustive enumeration: 2^30 states is ~1 s-scale work
#: per 2^15-lane block sweep; beyond that the walk stops being a
#: "finisher" and becomes the workload.
MAX_GRAYCODE_BITS = 30


@dataclass(frozen=True)
class GraycodeSolution:
    """A proven-optimal assignment from exhaustive Gray-code search."""

    x: np.ndarray
    energy: int
    evaluated: int


def graycode_minimum(weights: Any) -> GraycodeSolution:
    """Exact minimum of ``E(x) = x^T W x`` by Gray-code enumeration.

    ``weights`` is a dense symmetric int weight matrix (array-like, or
    anything exposing one as ``.W`` such as :class:`QuboMatrix`) with
    ``1 ≤ n ≤ MAX_GRAYCODE_BITS``.  All ``2^n`` states are visited;
    ties resolve to the first minimum in enumeration order.
    """
    W = np.ascontiguousarray(np.asarray(getattr(weights, "W", weights)), dtype=np.int64)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError(f"weights must be a square matrix, got shape {W.shape}")
    n = int(W.shape[0])
    if n < 1:
        raise ValueError("weights must be non-empty")
    if n > MAX_GRAYCODE_BITS:
        raise ValueError(
            f"graycode enumeration is capped at n <= {MAX_GRAYCODE_BITS}, got n={n}"
        )
    if not np.array_equal(W, W.T):
        raise ValueError("weights must be symmetric")
    diag = np.diagonal(W).copy()

    # Lanes: every pattern of the b_high high bits gets one vector lane;
    # a single shared Gray walk over the n_low low bits advances all
    # lanes in lockstep.
    b_high = n // 2
    n_low = n - b_high
    lanes = 1 << b_high
    blk = np.arange(lanes, dtype=np.int64)
    Xh = np.zeros((lanes, n), dtype=np.int64)
    for j in range(b_high):
        Xh[:, n_low + j] = (blk >> j) & 1

    energy = ((Xh @ W) * Xh).sum(axis=1)  # per-lane E of the all-low-zeros state
    v = Xh @ W[:, :n_low]  # v[b, k] = Σ_j x_j W[j, k] over the current state
    Wlow = W[:n_low, :n_low].copy()
    np.fill_diagonal(Wlow, 0)
    diag_low = diag[:n_low]

    x_low = np.zeros(n_low, dtype=np.int64)
    best_energy = energy.copy()
    best_t = np.zeros(lanes, dtype=np.int64)
    steps = 1 << n_low
    for t in range(1, steps):
        k = (t & -t).bit_length() - 1  # Gray code flips bit ctz(t) at step t
        s = 1 - 2 * int(x_low[k])
        energy += s * (diag_low[k] + 2 * v[:, k])
        better = energy < best_energy
        if better.any():
            best_energy[better] = energy[better]
            best_t[better] = t
        v += s * Wlow[k]
        x_low[k] ^= 1

    lane = int(best_energy.argmin())
    gray = best_t[lane] ^ (best_t[lane] >> 1)  # step t's state is gray(t)
    x = np.zeros(n, dtype=np.uint8)
    for j in range(n_low):
        x[j] = (gray >> j) & 1
    for j in range(b_high):
        x[n_low + j] = (lane >> j) & 1
    return GraycodeSolution(x=x, energy=int(best_energy[lane]), evaluated=lanes * steps)

