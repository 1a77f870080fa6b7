"""Target-solution generation — the GA step of the host loop (§3.1 Step 4).

Each time devices return solutions, the host generates the same number
of fresh *target solutions* by applying a randomly chosen genetic
operator (mutation / uniform crossover / copy) to pool members.  Copy
is useful because the device restarts its best-tracking per target
(§3.2 Step 3), so re-searching around a good solution still makes
progress.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ga.operators import (
    crossover_uniform,
    crossover_uniform_batch,
    mutate,
    mutate_batch,
    select_parent,
    select_parent_ranks,
)
from repro.ga.pool import SolutionPool
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_probability


@dataclass(frozen=True)
class GaConfig:
    """Operator mix and parameters for target generation.

    Attributes
    ----------
    p_mutation, p_crossover:
        Probabilities of the two non-trivial operators; the remainder
        is plain copy.  Must sum to at most 1.
    mutation_flips:
        Bits flipped per mutation (``None``: ``max(1, n // 16)``).
    elite_bias:
        Rank-selection bias (see :func:`~repro.ga.operators.select_parent`).
    """

    p_mutation: float = 0.45
    p_crossover: float = 0.45
    mutation_flips: int | None = None
    elite_bias: float = 2.0

    def __post_init__(self) -> None:
        check_probability(self.p_mutation, "p_mutation")
        check_probability(self.p_crossover, "p_crossover")
        if self.p_mutation + self.p_crossover > 1.0 + 1e-12:
            raise ValueError(
                "p_mutation + p_crossover must not exceed 1 "
                f"(got {self.p_mutation} + {self.p_crossover})"
            )
        if self.elite_bias <= 0:
            raise ValueError(f"elite_bias must be positive, got {self.elite_bias}")


class TargetGenerator:
    """Produces GA target solutions from a :class:`SolutionPool`."""

    def __init__(
        self,
        pool: SolutionPool,
        config: GaConfig | None = None,
        seed: SeedLike = None,
    ) -> None:
        self.pool = pool
        self.config = config or GaConfig()
        self._rng = as_generator(seed)
        #: Operator usage counters (``ga.*`` in ``SolveResult.counters``).
        self.counts = {"mutation": 0, "crossover": 0, "copy": 0}

    def generate_one(self) -> np.ndarray:
        """One new target via a randomly chosen operator."""
        cfg = self.config
        rng = self._rng
        u = rng.random()
        parent = select_parent(self.pool, rng, elite_bias=cfg.elite_bias)
        if u < cfg.p_mutation:
            self.counts["mutation"] += 1
            return mutate(parent, rng, cfg.mutation_flips)
        if u < cfg.p_mutation + cfg.p_crossover and len(self.pool) >= 2:
            self.counts["crossover"] += 1
            other = select_parent(self.pool, rng, elite_bias=cfg.elite_bias)
            return crossover_uniform(parent, other, rng)
        self.counts["copy"] += 1
        return parent.copy()

    def generate(self, count: int) -> np.ndarray:
        """``count`` new targets as one ``(count, n)`` uint8 matrix.

        (The paper matches the number of newly arrived device
        solutions.)  Fully vectorized: one RNG draw decides every
        row's operator, one batched draw selects all parents, and the
        mutation / crossover rows are produced by the ``*_batch``
        operators — no per-target Python loop.  Draws from the RNG in
        a different order than ``count`` :meth:`generate_one` calls,
        so the two paths give different (equally valid) targets for
        the same seed; :meth:`generate_scalar` keeps the scalar order
        available for equivalence tests and benchmarks.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        pool = self.pool
        n = pool.n
        if count == 0:
            return np.zeros((0, n), dtype=np.uint8)
        m = len(pool)
        if m == 0:
            raise IndexError("cannot select a parent from an empty pool")
        cfg = self.config
        rng = self._rng
        u = rng.random(count)
        is_mut = u < cfg.p_mutation
        is_cross = (
            ~is_mut & (u < cfg.p_mutation + cfg.p_crossover) & (m >= 2)
        )
        k_cross = int(is_cross.sum())
        # Every row's parent, then each crossover's second parent: one
        # float64 draw of count + k_cross is the same stream as the two
        # draws in turn, and one gather copies all of them.
        ranks = select_parent_ranks(m, rng.random(count + k_cross), cfg.elite_bias)
        parents = pool.rows(ranks)  # a copy: rows are children
        out = parents[:count]
        if k_cross:
            out[is_cross] = crossover_uniform_batch(
                out[is_cross], parents[count:], rng
            )
        k_mut = int(is_mut.sum())
        if k_mut:
            out[is_mut] = mutate_batch(out[is_mut], rng, cfg.mutation_flips)
        k_copy = count - k_mut - k_cross
        self.counts["mutation"] += k_mut
        self.counts["crossover"] += k_cross
        self.counts["copy"] += k_copy
        return np.ascontiguousarray(out)

    def generate_scalar(self, count: int) -> np.ndarray:
        """``count`` targets via the scalar per-row path.

        Same return shape as :meth:`generate`; used by the equivalence
        tests and as the baseline lane of ``bench_exchange``.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return np.zeros((0, self.pool.n), dtype=np.uint8)
        return np.stack([self.generate_one() for _ in range(count)])
