"""The array-backed pool: one ``(capacity, n)`` matrix behind a slot order.

Rows are stored once, in slots of a preallocated matrix, and the sorted
order is a list of slot numbers.  These tests pin what that layout must
not change: every row the pool hands out stays what it was when handed
out, ``check_invariants`` notices a corrupted slot order, and the
column-count ``mean_pairwise_distance`` equals the all-pairs mean.
(``insert_batch`` against row-by-row ``insert`` across slot churn is
``tests/ga/test_pool_diversity.py::test_batch_equals_sequential``.)
"""

import math

import numpy as np
import pytest

from repro.ga.host import GaConfig, TargetGenerator
from repro.ga.pool import SolutionPool


def bits(*vals):
    return np.array(vals, dtype=np.uint8)


def handed_out(pool):
    """Everything the pool hands out, with frozen copies to compare to."""
    out = {
        "getitem": [pool[i].x for i in range(len(pool))],
        "iter": [entry.x for entry in pool],
        "matrix": pool.as_matrix(),
        "rows": pool.rows(np.arange(len(pool))),
    }
    frozen = {k: [np.array(r, copy=True) for r in v] for k, v in out.items()}
    return out, frozen


def assert_unchanged(out, frozen):
    for kind, got in out.items():
        for row, want in zip(got, frozen[kind]):
            assert np.array_equal(row, want), kind


class TestSnapshots:
    def test_rows_survive_insert(self):
        pool = SolutionPool(4, capacity=4)
        pool.insert(bits(1, 0, 0, 0), 5)
        pool.insert(bits(0, 1, 0, 0), 7)
        out, frozen = handed_out(pool)
        pool.insert(bits(0, 0, 1, 0), 1)  # shifts every rank by one
        assert_unchanged(out, frozen)

    def test_rows_survive_eviction_and_slot_reuse(self):
        pool = SolutionPool(4, capacity=2)
        pool.insert(bits(1, 0, 0, 0), 5)
        pool.insert(bits(0, 1, 0, 0), 7)
        out, frozen = handed_out(pool)
        # Each insert evicts the worst and refills its freed slot.
        pool.insert(bits(0, 0, 1, 0), 1)
        pool.insert(bits(0, 0, 0, 1), 0)
        assert pool.energies() == [0, 1]
        assert_unchanged(out, frozen)
        assert np.array_equal(frozen["getitem"][0], bits(1, 0, 0, 0))

    def test_rows_survive_niche_replacement(self):
        pool = SolutionPool(8, capacity=4, min_distance=3)
        pool.insert(bits(0, 0, 0, 0, 0, 0, 0, 0), -10)
        pool.insert(bits(1, 1, 1, 1, 1, 1, 1, 1), -20)
        out, frozen = handed_out(pool)
        assert pool.insert(bits(1, 0, 0, 0, 0, 0, 0, 0), -15)  # replaces rank 1
        assert pool.rejected_diverse == 0
        assert pool.insert(bits(0, 1, 0, 0, 0, 0, 0, 0), -5) is False
        assert_unchanged(out, frozen)

    def test_handed_out_rows_are_read_only(self):
        pool = SolutionPool(3, capacity=2)
        pool.insert(bits(1, 0, 1), 0)
        with pytest.raises(ValueError):
            pool[0].x[0] = 0
        with pytest.raises(ValueError):
            next(iter(pool)).x[0] = 0
        mat = pool.as_matrix()
        mat[0, 0] = 0  # a writable copy: the pool is unaffected
        assert pool.contains(bits(1, 0, 1))

    def test_ga_parents_survive_later_inserts(self):
        rng = np.random.default_rng(5)
        pool = SolutionPool(32, capacity=4)
        pool.seed_random(rng)
        gen = TargetGenerator(pool, GaConfig(p_mutation=0, p_crossover=0), seed=1)
        copies = gen.generate(8)  # copy rows: parents as handed out
        frozen = copies.copy()
        for _ in range(5):
            pool.insert_batch(
                rng.integers(0, 2, (4, 32), dtype=np.uint8),
                rng.integers(-100, 0, 4),
            )
        assert np.array_equal(copies, frozen)


class TestCorruptedSlotOrder:
    def make(self):
        pool = SolutionPool(6, capacity=4)
        pool.insert_batch(np.eye(3, 6, dtype=np.uint8), np.array([3, 1, 2]))
        pool.check_invariants()
        return pool

    def test_swapped_slots(self):
        pool = self.make()
        pool._order[0], pool._order[1] = pool._order[1], pool._order[0]
        with pytest.raises(AssertionError, match="slot order"):
            pool.check_invariants()

    def test_slot_listed_twice(self):
        pool = self.make()
        pool._order[2] = pool._order[0]
        with pytest.raises(AssertionError):
            pool.check_invariants()

    def test_slot_both_used_and_free(self):
        pool = self.make()
        pool._free.append(pool._order[0])
        with pytest.raises(AssertionError, match="partition"):
            pool.check_invariants()


def brute_mean_distance(pool):
    mat = pool.as_matrix().astype(np.int64)
    m = len(mat)
    total = sum(
        int((mat[i] != mat[j]).sum()) for i in range(m) for j in range(i + 1, m)
    )
    return total / (m * (m - 1) // 2)


class TestMeanPairwiseDistance:
    def test_none_below_two_entries(self):
        pool = SolutionPool(5, capacity=3)
        assert pool.mean_pairwise_distance() is None
        pool.insert(bits(1, 0, 1, 0, 1), math.inf)
        assert pool.mean_pairwise_distance() is None

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_all_pairs_mean(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        capacity = int(rng.integers(2, 40))
        pool = SolutionPool(n, capacity)
        pool.seed_random(rng, count=int(rng.integers(0, capacity + 1)))  # +inf
        k = int(rng.integers(0, 2 * capacity))
        pool.insert_batch(
            rng.integers(0, 2, (k, n), dtype=np.uint8), rng.integers(-50, 50, k)
        )
        if len(pool) < 2:
            assert pool.mean_pairwise_distance() is None
        else:
            assert pool.mean_pairwise_distance() == brute_mean_distance(pool)
