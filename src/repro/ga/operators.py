"""Genetic operators: mutation, uniform crossover, parent selection.

These follow §2.2.1 exactly: a mutation flips some random bits of one
selected solution; a crossover builds a child by picking each bit from
either of two parents uniformly at random.

Each operator comes in two shapes: the scalar form (one child per
call) and a ``*_batch`` form producing a whole ``(k, n)`` child matrix
from one vectorized RNG draw — the host hot path uses the batch forms
(one :class:`~repro.ga.host.TargetGenerator.generate` call feeds every
block of every device), the scalar forms remain the readable reference
the batch forms are tested against.  Scalar and batch forms draw from
the RNG in different orders, so they yield different (equally valid)
children for the same seed; structural equivalence is pinned by
``tests/ga/test_operators.py``.
"""

from __future__ import annotations

import numpy as np

from repro.ga.pool import SolutionPool
from repro.utils.validation import check_bit_vector


def default_mutation_flips(n: int) -> int:
    """Bits flipped per mutation when unspecified: ``max(1, n // 16)``."""
    return max(1, n // 16)


def mutate(x: np.ndarray, rng: np.random.Generator, flips: int | None = None) -> np.ndarray:
    """Return a copy of ``x`` with ``flips`` random distinct bits flipped.

    ``flips`` defaults to ``max(1, n // 16)`` — enough perturbation to
    leave the parent's attraction basin while staying nearby.
    """
    xb = check_bit_vector(x)
    n = xb.shape[0]
    if n == 0:
        return xb.copy()
    if flips is None:
        flips = default_mutation_flips(n)
    if not (1 <= flips <= n):
        raise ValueError(f"flips must be in [1, {n}], got {flips}")
    child = xb.copy()
    idx = rng.choice(n, size=flips, replace=False)
    child[idx] ^= 1
    return child


def mutate_batch(
    X: np.ndarray, rng: np.random.Generator, flips: int | None = None
) -> np.ndarray:
    """Batched :func:`mutate`: flip ``flips`` distinct bits per row.

    One ``(k, n)`` uniform draw scores every bit; a row flips its
    ``flips`` lowest-scored bits.  ``np.partition`` finds each row's
    ``flips``-th smallest score and the row flips every bit at or
    below it — no index gather or scatter.  A row whose threshold is
    tied (float32 scores can collide) would flip more than ``flips``
    bits, so it falls back to ``argpartition`` on the same scores,
    which picks exactly ``flips`` of them; either way the children are
    the ``argpartition`` ones, bit for bit.
    """
    X = np.asarray(X, dtype=np.uint8)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D (k, n), got shape {X.shape}")
    k, n = X.shape
    if k == 0 or n == 0:
        return X.copy()
    if flips is None:
        flips = default_mutation_flips(n)
    if not (1 <= flips <= n):
        raise ValueError(f"flips must be in [1, {n}], got {flips}")
    # float32 scores halve the bytes the partition has to move.
    scores = rng.random((k, n), dtype=np.float32)
    kth = np.partition(scores, flips - 1, axis=1)[:, flips - 1 : flips]
    flip = scores <= kth
    over = flip.sum(axis=1) != flips
    if over.any():
        tied = np.flatnonzero(over)
        idx = np.argpartition(scores[tied], flips - 1, axis=1)[:, :flips]
        flip[tied] = False
        flip[tied[:, None], idx] = True
    return X ^ flip.view(np.uint8)


def crossover_uniform(
    a: np.ndarray, b: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Uniform crossover: each child bit is drawn from either parent."""
    ab = check_bit_vector(a)
    bb = check_bit_vector(b, ab.shape[0], "b")
    take_b = rng.integers(0, 2, size=ab.shape[0], dtype=np.uint8).astype(bool)
    child = ab.copy()
    child[take_b] = bb[take_b]
    return child


def crossover_uniform_batch(
    A: np.ndarray, B: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Batched :func:`crossover_uniform` over row-aligned parents.

    The per-bit coin flips come from random *bytes* expanded with
    ``unpackbits`` (8 fair coins per drawn byte), and the blend is the
    branch-free ``A ^ ((A ^ B) & mask)`` — an order of magnitude
    cheaper than a boolean fancy-indexed assignment at hot-path sizes.
    """
    A = np.asarray(A, dtype=np.uint8)
    B = np.asarray(B, dtype=np.uint8)
    if A.shape != B.shape or A.ndim != 2:
        raise ValueError(
            f"parents must be 2-D with equal shapes, got {A.shape} and {B.shape}"
        )
    k, n = A.shape
    if k == 0 or n == 0:
        return A.copy()
    raw = rng.integers(0, 256, size=(k, (n + 7) // 8), dtype=np.uint8)
    take_b = np.unpackbits(raw, axis=1, count=n)
    return A ^ ((A ^ B) & take_b)


def select_parent(
    pool: SolutionPool, rng: np.random.Generator, *, elite_bias: float = 2.0
) -> np.ndarray:
    """Rank-biased parent selection from the (sorted) pool.

    Draws rank ``⌊m · u^elite_bias⌋`` with ``u ~ U[0,1)``: bias > 1
    favours low-energy entries, bias = 1 is uniform.  The paper does
    not pin down the selection rule; rank bias is the conventional
    choice for sorted populations and is exposed as a parameter.
    """
    if len(pool) == 0:
        raise IndexError("cannot select a parent from an empty pool")
    rank = int(select_parent_ranks(len(pool), rng.random(1), elite_bias)[0])
    return pool[rank].x


def select_parent_ranks(
    m: int, u: np.ndarray, elite_bias: float = 2.0
) -> np.ndarray:
    """Vectorized rank formula ``⌊m · u^elite_bias⌋`` (clamped to m−1).

    The single shared implementation of the selection rule: the scalar
    :func:`select_parent` and the batched generator both route through
    it, so they cannot drift apart.
    """
    if m < 1:
        raise IndexError("cannot select a parent from an empty pool")
    if elite_bias <= 0:
        raise ValueError(f"elite_bias must be positive, got {elite_bias}")
    u = np.asarray(u, dtype=np.float64)
    return np.minimum((m * u**elite_bias).astype(np.int64), m - 1)
