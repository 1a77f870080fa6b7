"""Property tests for the Diverse-ABS Hamming-niched pool admission.

Pins the invariants ``SolutionPool.check_invariants`` asserts —
sortedness, distinctness, pairwise min-Hamming separation — across
arbitrary ``insert``/``insert_batch`` interleavings, and that
``insert_batch`` stays semantically identical to sequential ``insert``
under the diversity policy.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ga.pool import SolutionPool

pytestmark = pytest.mark.diverse


def bits(*vals):
    return np.array(vals, dtype=np.uint8)


def hamming(a, b):
    return int((a != b).sum())


def pairwise_min_distance(pool):
    mat = pool.as_matrix()
    best = None
    for i in range(len(mat)):
        for j in range(i + 1, len(mat)):
            d = hamming(mat[i], mat[j])
            best = d if best is None else min(best, d)
    return best


# One candidate stream: interleaved single inserts and batches, drawn
# from a deliberately small bit-space so niches collide constantly.
ops_strategy = st.lists(
    st.tuples(
        st.booleans(),  # True: batch op, False: single insert
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**12 - 1),  # bit pattern
                st.integers(min_value=-50, max_value=50),  # energy
            ),
            min_size=1,
            max_size=6,
        ),
    ),
    min_size=1,
    max_size=12,
)


def to_vec(pattern, n=12):
    return np.array([(pattern >> i) & 1 for i in range(n)], dtype=np.uint8)


class TestAdmissionSemantics:
    def test_near_worse_candidate_rejected(self):
        pool = SolutionPool(8, capacity=8, min_distance=3)
        assert pool.insert(bits(0, 0, 0, 0, 0, 0, 0, 0), -10)
        # Distance 1 from the entry, worse energy: niched out.
        assert not pool.insert(bits(1, 0, 0, 0, 0, 0, 0, 0), -5)
        assert pool.rejected_diverse == 1
        assert pool.rejected_worse == 0

    def test_near_better_candidate_replaces_niche(self):
        pool = SolutionPool(8, capacity=8, min_distance=3)
        pool.insert(bits(0, 0, 0, 0, 0, 0, 0, 0), -10)
        pool.insert(bits(1, 1, 1, 1, 1, 1, 1, 1), -20)
        # Distance 1 from the first entry and better: evicts it.
        assert pool.insert(bits(1, 0, 0, 0, 0, 0, 0, 0), -15)
        assert len(pool) == 2
        assert not pool.contains(bits(0, 0, 0, 0, 0, 0, 0, 0))
        assert pool.energies() == [-20, -15]

    def test_candidate_straddling_two_niches_evicts_both(self):
        pool = SolutionPool(8, capacity=8, min_distance=3)
        pool.insert(bits(0, 0, 0, 0, 0, 0, 0, 0), -10)
        pool.insert(bits(1, 1, 0, 0, 0, 0, 0, 0), -12)
        # Distance 1 and 2 from the two entries; beats both.
        assert pool.insert(bits(1, 0, 0, 0, 0, 0, 0, 0), -30)
        assert len(pool) == 1
        assert pool.best().energy == -30
        pool.check_invariants()

    def test_candidate_must_beat_best_of_niche(self):
        pool = SolutionPool(8, capacity=8, min_distance=3)
        pool.insert(bits(0, 0, 0, 0, 0, 0, 0, 0), -30)
        pool.insert(bits(1, 1, 1, 0, 0, 0, 0, 0), -10)
        # Beats one near entry but not the other: rejected, pool intact.
        assert not pool.insert(bits(1, 1, 0, 0, 0, 0, 0, 0), -20)
        assert len(pool) == 2
        assert pool.rejected_diverse == 1

    @pytest.mark.parametrize("d", [0, 1])
    def test_min_distance_leq_one_is_base_policy(self, d):
        # d=1 only excludes exact duplicates, which the key set already
        # rejects — both configurations must match the base pool.
        rng = np.random.default_rng(0)
        base = SolutionPool(10, capacity=6)
        dpool = SolutionPool(10, capacity=6, min_distance=d)
        for _ in range(200):
            x = rng.integers(0, 2, 10).astype(np.uint8)
            e = int(rng.integers(-40, 40))
            assert base.insert(x.copy(), e) == dpool.insert(x.copy(), e)
        assert base.energies() == dpool.energies()
        assert np.array_equal(base.as_matrix(), dpool.as_matrix())
        assert dpool.rejected_diverse == 0

    def test_mean_pairwise_distance(self):
        pool = SolutionPool(8, capacity=8, min_distance=4)
        assert pool.mean_pairwise_distance() is None
        pool.insert(bits(0, 0, 0, 0, 0, 0, 0, 0), -1)
        assert pool.mean_pairwise_distance() is None
        pool.insert(bits(1, 1, 1, 1, 0, 0, 0, 0), -2)
        assert pool.mean_pairwise_distance() == 4.0


class TestInterleavingProperties:
    @settings(max_examples=60, deadline=None)
    @given(ops=ops_strategy, d=st.integers(min_value=0, max_value=6))
    def test_invariants_hold_after_any_interleaving(self, ops, d):
        pool = SolutionPool(12, capacity=5, min_distance=d)
        for is_batch, entries in ops:
            if is_batch:
                X = np.stack([to_vec(p) for p, _ in entries])
                E = np.array([e for _, e in entries], dtype=np.int64)
                pool.insert_batch(X, E)
            else:
                for p, e in entries:
                    pool.insert(to_vec(p), e)
            pool.check_invariants()
        # Explicit re-checks, independent of check_invariants:
        energies = pool.energies()
        assert energies == sorted(energies)
        keys = {row.tobytes() for row in pool.as_matrix()}
        assert len(keys) == len(pool)
        if d > 1 and len(pool) >= 2:
            assert pairwise_min_distance(pool) >= d

    @settings(max_examples=60, deadline=None)
    @given(
        ops=ops_strategy,
        d=st.integers(min_value=0, max_value=6),
        capacity=st.integers(min_value=1, max_value=6),
    )
    def test_batch_equals_sequential(self, ops, d, capacity):
        # Small capacities churn the pool's slots: evictions and niche
        # replacements free slots that later rows reuse.
        batched = SolutionPool(12, capacity=capacity, min_distance=d)
        sequential = SolutionPool(12, capacity=capacity, min_distance=d)
        for is_batch, entries in ops:
            X = np.stack([to_vec(p) for p, _ in entries])
            E = np.array([e for _, e in entries], dtype=np.int64)
            if is_batch:
                got = batched.insert_batch(X, E)
            else:
                got = sum(batched.insert(X[i], int(E[i])) for i in range(len(E)))
            want = sum(
                sequential.insert(X[i], int(E[i])) for i in range(len(E))
            )
            assert got == want
            assert batched.energies() == sequential.energies()
            assert np.array_equal(batched.as_matrix(), sequential.as_matrix())
            for name in (
                "inserted",
                "rejected_duplicate",
                "rejected_worse",
                "rejected_diverse",
            ):
                assert getattr(batched, name) == getattr(sequential, name)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_seeded_pool_respects_separation(self, seed):
        pool = SolutionPool(16, capacity=8, min_distance=5)
        pool.seed_random(seed)
        pool.check_invariants()
        rng = np.random.default_rng(seed)
        for _ in range(50):
            pool.insert(
                rng.integers(0, 2, 16).astype(np.uint8), int(rng.integers(-99, 0))
            )
        pool.check_invariants()
        if len(pool) >= 2:
            assert pairwise_min_distance(pool) >= 5

    def test_infinite_seeds_replaced_by_finite_niche_winners(self):
        pool = SolutionPool(12, capacity=4, min_distance=4)
        pool.seed_random(3)
        assert all(math.isinf(e) for e in pool.energies())
        rng = np.random.default_rng(4)
        for _ in range(40):
            pool.insert(rng.integers(0, 2, 12).astype(np.uint8), -5)
        assert any(math.isfinite(e) for e in pool.energies())
        pool.check_invariants()
