"""Energy-landscape analysis: why some QUBO families are hard.

§4.2 of the paper observes that instance hardness varies sharply by
application — random dense instances are easy, weighted Max-Cut is
harder, TSP QUBOs are hard.  These estimators turn that observation
into measurable landscape properties:

- :func:`random_walk_autocorrelation` — the classic ruggedness measure:
  the autocorrelation of energies along a random bit-flip walk, and the
  derived correlation length ``τ = −1 / ln ρ(1)`` (larger = smoother).
- :func:`local_minimum_fraction` — how often a uniform random solution
  is already a 1-flip local minimum (multimodality proxy).
- :func:`fitness_distance_correlation` — correlation between energy and
  Hamming distance to a reference (ideally optimal) solution; values
  near 1 mean the landscape guides search toward the reference.

All estimators run on the incremental delta machinery, so they cost
O(samples · n) (or O(samples · degree) sparse), not O(samples · n²).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.qubo.energy import delta_vector, energy, weights_size
from repro.qubo.state import SearchState
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_bit_vector


@dataclass(frozen=True)
class AutocorrelationResult:
    """Random-walk autocorrelation estimate."""

    rho: np.ndarray          # ρ(0..max_lag)
    correlation_length: float

    @property
    def rho1(self) -> float:
        """Lag-1 autocorrelation (the ruggedness headline number)."""
        return float(self.rho[1]) if len(self.rho) > 1 else float("nan")


def random_walk_autocorrelation(
    weights,
    *,
    steps: int = 2000,
    max_lag: int = 32,
    seed: SeedLike = 0,
) -> AutocorrelationResult:
    """Estimate energy autocorrelation along a uniform random flip walk.

    A smoother landscape keeps nearby solutions' energies similar, so
    ``ρ(1) → 1`` and the correlation length grows; rugged landscapes
    decorrelate quickly.
    """
    if steps <= max_lag + 1:
        raise ValueError(f"steps ({steps}) must exceed max_lag + 1 ({max_lag + 1})")
    if max_lag < 1:
        raise ValueError(f"max_lag must be >= 1, got {max_lag}")
    rng = as_generator(seed)
    n = weights_size(weights)
    state = SearchState.from_bits(
        weights, rng.integers(0, 2, n).astype(np.uint8)
    )
    energies = np.empty(steps, dtype=np.float64)
    for t in range(steps):
        state.flip(int(rng.integers(n)))
        energies[t] = state.energy
    centered = energies - energies.mean()
    var = float(centered @ centered)
    if var == 0:
        rho = np.ones(max_lag + 1)
    else:
        rho = np.empty(max_lag + 1)
        rho[0] = 1.0
        for lag in range(1, max_lag + 1):
            rho[lag] = float(centered[:-lag] @ centered[lag:]) / var
    r1 = rho[1]
    if 0 < r1 < 1:
        corr_len = -1.0 / math.log(r1)
    elif r1 >= 1:
        corr_len = math.inf
    else:
        corr_len = 0.0
    return AutocorrelationResult(rho=rho, correlation_length=corr_len)


def local_minimum_fraction(
    weights, *, samples: int = 200, seed: SeedLike = 0
) -> float:
    """Fraction of uniform random solutions that are 1-flip minima.

    A solution is a local minimum when every ``Δ_k ≥ 0``.  High values
    mean the landscape is littered with traps.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = as_generator(seed)
    n = weights_size(weights)
    hits = 0
    for _ in range(samples):
        x = rng.integers(0, 2, n).astype(np.uint8)
        if (delta_vector(weights, x) >= 0).all():
            hits += 1
    return hits / samples


def escape_radius(weights, x: np.ndarray, *, max_radius: int = 2) -> int | None:
    """Minimum number of flips that strictly improves on ``x``.

    Returns 1 or 2 when an improving move of that many flips exists,
    ``None`` when no improvement exists within ``max_radius`` (≤ 2
    supported; larger neighbourhoods grow as n^r).

    The 2-flip energy change uses the pair identity
    ``ΔE(i, j) = Δ_i + Δ_j + 2·W_ij·φ(x_i)·φ(x_j)`` (i ≠ j), the
    two-step composition of Eq. (16).

    This is the quantitative form of the paper's TSP-hardness argument:
    valid tours are ≥ 4 flips apart, so descent endpoints on TSP QUBOs
    typically have escape radius > 2, while dense random instances
    escape within 2 flips almost everywhere.
    """
    if max_radius not in (1, 2):
        raise ValueError(f"max_radius must be 1 or 2, got {max_radius}")
    n = weights_size(weights)
    xb = check_bit_vector(x, n, "x")
    d = delta_vector(weights, xb)
    if (d < 0).any():
        return 1
    if max_radius == 1:
        return None
    phi = (1 - 2 * xb.astype(np.int64))
    from repro.qubo.sparse import SparseQubo

    if isinstance(weights, SparseQubo):
        # to_dense() hands back a read-only matrix; zeroing needs a copy.
        W_off = weights.to_dense().W.copy()
    else:
        from repro.qubo.matrix import as_weight_matrix

        W_off = as_weight_matrix(weights).astype(np.int64, copy=True)
    np.fill_diagonal(W_off, 0)
    pair = d[:, None] + d[None, :] + 2 * W_off * np.outer(phi, phi)
    np.fill_diagonal(pair, 0)  # flipping a bit twice is a no-op
    if (pair < 0).any():
        return 2
    return None


@dataclass(frozen=True)
class DescentStatistics:
    """Endpoint statistics of repeated greedy descents."""

    endpoints: np.ndarray        # energies of every descent endpoint
    distinct_endpoints: int
    endpoint_bits: np.ndarray    # descents × n matrix of endpoint solutions

    @property
    def best(self) -> float:
        """Best endpoint energy."""
        return float(self.endpoints.min())

    @property
    def mean(self) -> float:
        """Mean endpoint energy."""
        return float(self.endpoints.mean())

    @property
    def relative_spread(self) -> float:
        """Endpoint std / |best| — basin-quality dispersion.

        Near 0: every descent lands at a similar energy (a funnel-like
        landscape); large: basins vary wildly (trap-rich landscape —
        the TSP penalty structure is the extreme case).
        """
        b = abs(self.best)
        if b == 0:
            return 0.0
        return float(self.endpoints.std()) / b


def descent_statistics(
    weights, *, descents: int = 50, seed: SeedLike = 0
) -> DescentStatistics:
    """Run greedy 1-flip descents from random starts to local minima.

    Each descent repeatedly flips the most-negative-Δ bit until every
    Δ ≥ 0 (guaranteed to terminate: energy strictly decreases and is
    bounded below on a finite space).
    """
    if descents < 1:
        raise ValueError(f"descents must be >= 1, got {descents}")
    rng = as_generator(seed)
    n = weights_size(weights)
    endpoints = np.empty(descents, dtype=np.float64)
    bits = np.empty((descents, n), dtype=np.uint8)
    for i in range(descents):
        state = SearchState.from_bits(
            weights, rng.integers(0, 2, n).astype(np.uint8)
        )
        while True:
            k = int(np.argmin(state.delta))
            if state.delta[k] >= 0:
                break
            state.flip(k)
        endpoints[i] = state.energy
        bits[i] = state.x
    return DescentStatistics(
        endpoints=endpoints,
        distinct_endpoints=int(np.unique(endpoints).size),
        endpoint_bits=bits,
    )


def fitness_distance_correlation(
    weights,
    reference_x: np.ndarray,
    *,
    samples: int = 200,
    seed: SeedLike = 0,
) -> float:
    """Pearson correlation between E(X) and Hamming(X, reference).

    With an optimal reference, FDC near +1 indicates a globally convex
    ("easy") landscape; near 0, distance carries no energy information.
    """
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    rng = as_generator(seed)
    n = weights_size(weights)
    ref = check_bit_vector(reference_x, n, "reference_x")
    es = np.empty(samples)
    ds = np.empty(samples)
    for i in range(samples):
        x = rng.integers(0, 2, n).astype(np.uint8)
        es[i] = energy(weights, x)
        ds[i] = int(np.count_nonzero(x ^ ref))
    if es.std() == 0 or ds.std() == 0:
        return 0.0
    return float(np.corrcoef(es, ds)[0, 1])
