"""Batched GA hot path: equivalence with the scalar reference.

The batched operators power the host's vectorized target generation
(one ``(count, n)`` matrix per round instead of ``count`` Python-level
draws).  They consume the RNG stream in a different *order* than the
scalar path, so children are not positionally identical — the contract
checked here is distributional/structural equivalence plus exact
invariants (flip counts, bit provenance, rank formula), and bit-exact
reproducibility run-to-run.
"""

import numpy as np
import pytest

from repro.ga.host import GaConfig, TargetGenerator
from repro.ga.operators import (
    crossover_uniform_batch,
    default_mutation_flips,
    mutate,
    mutate_batch,
    select_parent,
    select_parent_ranks,
)
from repro.ga.pool import SolutionPool


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class TestMutateBatch:
    def test_flips_exact_count_per_row(self, rng):
        X = np.zeros((9, 64), dtype=np.uint8)
        children = mutate_batch(X, rng, flips=5)
        assert (children.sum(axis=1) == 5).all()

    def test_parents_unchanged(self, rng):
        X = np.zeros((4, 32), dtype=np.uint8)
        mutate_batch(X, rng, flips=3)
        assert not X.any()

    def test_default_matches_scalar_default(self, rng):
        X = np.zeros((6, 64), dtype=np.uint8)
        children = mutate_batch(X, rng)
        assert (children.sum(axis=1) == default_mutation_flips(64)).all()

    def test_empty_batch(self, rng):
        out = mutate_batch(np.zeros((0, 16), dtype=np.uint8), rng)
        assert out.shape == (0, 16)

    def test_rows_mutate_independently(self, rng):
        X = np.zeros((50, 64), dtype=np.uint8)
        children = mutate_batch(X, rng, flips=4)
        # Overwhelmingly unlikely that all 50 rows flipped the same 4
        # bits unless rows share the random draw.
        assert len({row.tobytes() for row in children}) > 1

    def test_invalid_flips(self, rng):
        with pytest.raises(ValueError):
            mutate_batch(np.zeros((2, 8), dtype=np.uint8), rng, flips=0)

    def test_scalar_and_batch_same_distribution(self):
        """Flip-position histograms agree between paths (chi-square-ish
        sanity: every bit is hit a comparable number of times)."""
        n, k, flips = 16, 400, 3
        scalar_hits = np.zeros(n)
        rng_a = np.random.default_rng(7)
        for _ in range(k):
            scalar_hits += mutate(np.zeros(n, dtype=np.uint8), rng_a, flips=flips)
        rng_b = np.random.default_rng(8)
        batch_hits = mutate_batch(
            np.zeros((k, n), dtype=np.uint8), rng_b, flips=flips
        ).sum(axis=0)
        expected = k * flips / n
        assert (np.abs(scalar_hits - expected) < 6 * np.sqrt(expected)).all()
        assert (np.abs(batch_hits - expected) < 6 * np.sqrt(expected)).all()


def argpartition_reference(X, scores, flips):
    """The rank-based mutation: flip each row's ``flips`` lowest-scored
    bits as ``argpartition`` picks them."""
    children = X.copy()
    idx = np.argpartition(scores, flips - 1, axis=1)[:, :flips]
    children[np.arange(len(X))[:, None], idx] ^= 1
    return children


class CoarseScores:
    """RNG stub whose float32 scores take only ``levels`` values, so a
    row's ``flips``-th smallest score is tied with its neighbours."""

    def __init__(self, seed, levels):
        self._rng = np.random.default_rng(seed)
        self.levels = levels
        self.drawn = []

    def random(self, shape, dtype):
        scores = (self._rng.integers(0, self.levels, shape) / self.levels).astype(dtype)
        self.drawn.append(scores)
        return scores


class TestThresholdMutation:
    @pytest.mark.parametrize("seed", range(8))
    def test_ties_fall_back_to_argpartition(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 2, (12, 40), dtype=np.uint8)
        stub = CoarseScores(seed, levels=5)
        children = mutate_batch(X, stub, flips=6)
        (scores,) = stub.drawn
        kth = np.partition(scores, 5, axis=1)[:, 5:6]
        assert ((scores <= kth).sum(axis=1) > 6).any()  # the fallback ran
        assert np.array_equal(children, argpartition_reference(X, scores, 6))

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_argpartition_on_real_draws(self, seed):
        X = np.random.default_rng(seed).integers(0, 2, (16, 256), dtype=np.uint8)
        children = mutate_batch(X, np.random.default_rng(seed), flips=16)
        scores = np.random.default_rng(seed).random((16, 256), dtype=np.float32)
        assert np.array_equal(children, argpartition_reference(X, scores, 16))

    @pytest.mark.parametrize("n", [1, 7, 96, 256, 2000])
    def test_every_row_flips_exactly_flips_bits(self, n):
        rng = np.random.default_rng(n)
        X = rng.integers(0, 2, (24, n), dtype=np.uint8)
        for flips in sorted({1, default_mutation_flips(n), max(1, n // 2), n}):
            children = mutate_batch(X, rng, flips=flips)
            assert ((children ^ X).sum(axis=1) == flips).all()
            coarse = mutate_batch(X, CoarseScores(n, levels=3), flips=flips)
            assert ((coarse ^ X).sum(axis=1) == flips).all()


class TestCrossoverBatch:
    def test_bits_come_from_parents(self, rng):
        A = np.zeros((8, 32), dtype=np.uint8)
        B = np.ones((8, 32), dtype=np.uint8)
        kids = crossover_uniform_batch(A, B, rng)
        assert set(np.unique(kids)) <= {0, 1}

    def test_agreeing_positions_preserved(self, rng):
        A = rng.integers(0, 2, (10, 40), dtype=np.uint8)
        B = rng.integers(0, 2, (10, 40), dtype=np.uint8)
        kids = crossover_uniform_batch(A, B, rng)
        agree = A == B
        assert (kids[agree] == A[agree]).all()

    def test_identical_parents_identical_children(self, rng):
        A = rng.integers(0, 2, (5, 24), dtype=np.uint8)
        kids = crossover_uniform_batch(A, A.copy(), rng)
        assert (kids == A).all()

    def test_mixes_both_parents(self):
        rng = np.random.default_rng(3)
        A = np.zeros((20, 64), dtype=np.uint8)
        B = np.ones((20, 64), dtype=np.uint8)
        kids = crossover_uniform_batch(A, B, rng)
        per_row = kids.sum(axis=1)
        assert (per_row > 0).all() and (per_row < 64).all()


class TestSelectParentRanks:
    def test_scalar_routes_through_shared_formula(self):
        """The scalar path consumes the identical stream state, so a
        seeded scalar selection equals the rank formula evaluated on
        the same uniform draw."""
        pool = SolutionPool(16, 8)
        pool.seed_random(np.random.default_rng(0), 8)
        r1 = np.random.default_rng(99)
        r2 = np.random.default_rng(99)
        picked = select_parent(pool, r1, elite_bias=2.0)
        rank = int(select_parent_ranks(len(pool), r2.random(1), 2.0)[0])
        assert (picked == pool[rank].x).all()

    def test_elite_bias_prefers_low_ranks(self):
        rng = np.random.default_rng(5)
        ranks = select_parent_ranks(100, rng.random(20_000), elite_bias=2.0)
        assert ranks.mean() < 40  # uniform would be ~49.5

    def test_uniform_bias_spreads(self):
        rng = np.random.default_rng(5)
        ranks = select_parent_ranks(100, rng.random(20_000), elite_bias=1.0)
        assert 45 < ranks.mean() < 55

    def test_ranks_in_range(self):
        rng = np.random.default_rng(6)
        ranks = select_parent_ranks(7, rng.random(1000), elite_bias=1.5)
        assert ranks.min() >= 0 and ranks.max() <= 6

    def test_empty_pool_rejected(self):
        with pytest.raises(IndexError):
            select_parent_ranks(0, np.array([0.5]), 2.0)

    def test_invalid_bias(self):
        with pytest.raises(ValueError):
            select_parent_ranks(4, np.array([0.5]), 0.0)


def make_generator(seed, n=32, capacity=16, **cfg):
    pool = SolutionPool(n, capacity)
    pool.seed_random(np.random.default_rng(0), capacity)
    gen = TargetGenerator(pool, GaConfig(**cfg), seed=seed)
    return pool, gen


class TestBatchedGenerate:
    def test_matrix_shape_and_dtype(self):
        _, gen = make_generator(1)
        out = gen.generate(12)
        assert out.shape == (12, 32)
        assert out.dtype == np.uint8
        assert out.flags["C_CONTIGUOUS"]

    def test_zero_count(self):
        _, gen = make_generator(1)
        assert gen.generate(0).shape == (0, 32)
        assert gen.generate_scalar(0).shape == (0, 32)

    def test_negative_count_rejected(self):
        _, gen = make_generator(1)
        with pytest.raises(ValueError):
            gen.generate(-1)

    def test_operator_mix_counted(self):
        _, gen = make_generator(2)
        before = dict(gen.counts)
        gen.generate(200)
        delta = {k: gen.counts[k] - before[k] for k in before}
        assert sum(delta.values()) == 200
        assert delta["mutation"] > 0 and delta["crossover"] > 0

    def test_batch_reproducible_by_seed(self):
        _, g1 = make_generator(77)
        _, g2 = make_generator(77)
        assert (g1.generate(64) == g2.generate(64)).all()

    def test_scalar_path_reproducible_by_seed(self):
        _, g1 = make_generator(78)
        _, g2 = make_generator(78)
        assert (g1.generate_scalar(64) == g2.generate_scalar(64)).all()

    def test_batch_operator_mix_matches_configured_probabilities(self):
        _, gb = make_generator(55, p_mutation=0.5, p_crossover=0.3)
        gb.generate(2000)
        assert abs(gb.counts["mutation"] - 1000) < 120
        assert abs(gb.counts["crossover"] - 600) < 120
        assert abs(gb.counts["copy"] - 400) < 120

    def test_copy_only_config_returns_pool_members(self):
        pool, gen = make_generator(3, p_mutation=0.0, p_crossover=0.0)
        out = gen.generate(20)
        members = {p.x.tobytes() for p in pool}
        assert {row.tobytes() for row in out} <= members

    def test_mutation_only_targets_near_pool(self):
        pool, gen = make_generator(4, p_mutation=1.0, p_crossover=0.0)
        out = gen.generate(10)
        flips = default_mutation_flips(32)
        dists = [
            min(int((row ^ p.x).sum()) for p in pool) for row in out
        ]
        assert max(dists) <= flips
