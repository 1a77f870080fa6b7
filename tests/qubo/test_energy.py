"""Tests for the energy function and the §2 difference identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.qubo.energy import (
    delta_single,
    delta_vector,
    energy,
    energy_batch,
    phi,
    update_delta_after_flip,
)
from repro.qubo.matrix import QuboMatrix


def _random_case(draw, max_n=12):
    n = draw(st.integers(2, max_n))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    upper = rng.integers(-100, 101, size=(n, n))
    W = np.triu(upper) + np.triu(upper, 1).T
    x = rng.integers(0, 2, size=n).astype(np.uint8)
    return W.astype(np.int64), x, rng


class TestPhi:
    def test_scalar(self):
        assert phi(0) == 1 and phi(1) == -1

    def test_array(self):
        out = phi(np.array([0, 1, 0], dtype=np.uint8))
        assert np.array_equal(out, [1, -1, 1])
        assert out.dtype == np.int64


class TestEnergy:
    def test_zero_vector_is_zero(self, small_qubo):
        assert energy(small_qubo, np.zeros(small_qubo.n, dtype=np.uint8)) == 0

    def test_single_bit_is_diagonal(self, small_qubo):
        for k in range(small_qubo.n):
            x = np.zeros(small_qubo.n, dtype=np.uint8)
            x[k] = 1
            assert energy(small_qubo, x) == small_qubo.W[k, k]

    def test_all_ones_is_total_sum(self, small_qubo):
        x = np.ones(small_qubo.n, dtype=np.uint8)
        assert energy(small_qubo, x) == small_qubo.W.sum()

    def test_wrong_length_rejected(self, small_qubo):
        with pytest.raises(ValueError):
            energy(small_qubo, np.zeros(small_qubo.n + 1, dtype=np.uint8))

    def test_figure1_example(self):
        # The paper's Figure 1: n=4 example with E(0111) worked out.
        W = np.array(
            [
                [-5, 6, -2, 3],
                [6, -4, 1, -3],
                [-2, 1, -3, 2],
                [3, -3, 2, -2],
            ]
        )
        # Verify a couple of assignments against direct expansion.
        for bits in ([1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 1]):
            x = np.array(bits, dtype=np.uint8)
            direct = sum(
                W[i, j] * bits[i] * bits[j] for i in range(4) for j in range(4)
            )
            assert energy(W, x) == direct

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
    def test_matches_python_ints_at_extreme_weights(self, dtype, rng):
        """No wraparound: every weight at its dtype's limit, summed in
        Python integers as the reference."""
        n = 96
        lim = np.iinfo(np.int16).max
        W = rng.choice([-lim, lim], size=(n, n))
        W = np.triu(W) + np.triu(W, 1).T
        for _ in range(3):
            x = rng.integers(0, 2, n, dtype=np.uint8)
            ones = [int(i) for i in np.flatnonzero(x)]
            direct = sum(int(W[i, j]) for i in ones for j in ones)
            assert energy(W.astype(dtype), x) == direct


class TestEnergyBatch:
    def test_matches_scalar(self, small_qubo, rng):
        X = rng.integers(0, 2, size=(8, small_qubo.n), dtype=np.uint8)
        batch = energy_batch(small_qubo, X)
        for i in range(8):
            assert batch[i] == energy(small_qubo, X[i])

    def test_shape_validation(self, small_qubo):
        with pytest.raises(ValueError):
            energy_batch(small_qubo, np.zeros((3, small_qubo.n + 1), dtype=np.uint8))

    def test_dtype_is_int64(self, small_qubo, rng):
        X = rng.integers(0, 2, size=(2, small_qubo.n), dtype=np.uint8)
        assert energy_batch(small_qubo, X).dtype == np.int64


class TestDeltaIdentities:
    """Eq. (4)/(5): E(flip_k X) == E(X) + Δ_k(X) for every k."""

    @given(st.data())
    def test_delta_vector_matches_brute_force(self, data):
        W, x, _ = _random_case(data.draw)
        d = delta_vector(W, x)
        e = energy(W, x)
        for k in range(len(x)):
            flipped = x.copy()
            flipped[k] ^= 1
            assert e + d[k] == energy(W, flipped)

    @given(st.data())
    def test_delta_single_matches_vector(self, data):
        W, x, rng = _random_case(data.draw)
        d = delta_vector(W, x)
        k = int(rng.integers(len(x)))
        assert delta_single(W, x, k) == d[k]

    def test_delta_on_zero_vector_is_diagonal(self, small_qubo):
        x = np.zeros(small_qubo.n, dtype=np.uint8)
        assert np.array_equal(
            delta_vector(small_qubo, x), np.diagonal(small_qubo.W)
        )

    def test_delta_single_index_check(self, small_qubo):
        x = np.zeros(small_qubo.n, dtype=np.uint8)
        with pytest.raises(IndexError):
            delta_single(small_qubo, x, small_qubo.n)


class TestUpdateDeltaAfterFlip:
    """Eq. (6)/(16): the O(n) refresh stays consistent along walks."""

    @given(st.data())
    @settings(max_examples=25)
    def test_random_walk_consistency(self, data):
        W, x, rng = _random_case(data.draw)
        n = len(x)
        delta = delta_vector(W, x)
        e = energy(W, x)
        for _ in range(3 * n):
            k = int(rng.integers(n))
            e += update_delta_after_flip(W, x, delta, k)
        assert e == energy(W, x)
        assert np.array_equal(delta, delta_vector(W, x))

    def test_returns_applied_delta(self, small_qubo, rng):
        x = rng.integers(0, 2, small_qubo.n, dtype=np.uint8)
        delta = delta_vector(small_qubo, x)
        expect = int(delta[3])
        applied = update_delta_after_flip(small_qubo.W, x, delta, 3)
        assert applied == expect

    def test_double_flip_is_identity(self, small_qubo, rng):
        x = rng.integers(0, 2, small_qubo.n, dtype=np.uint8)
        x0 = x.copy()
        delta = delta_vector(small_qubo, x)
        d0 = delta.copy()
        a1 = update_delta_after_flip(small_qubo.W, x, delta, 5)
        a2 = update_delta_after_flip(small_qubo.W, x, delta, 5)
        assert a1 == -a2
        assert np.array_equal(x, x0)
        assert np.array_equal(delta, d0)

    def test_requires_int64_delta(self, small_qubo):
        x = np.zeros(small_qubo.n, dtype=np.uint8)
        with pytest.raises(TypeError):
            update_delta_after_flip(
                small_qubo.W, x, np.zeros(small_qubo.n, dtype=np.int32), 0
            )

    def test_shape_mismatch_rejected(self, small_qubo):
        x = np.zeros(small_qubo.n, dtype=np.uint8)
        with pytest.raises(ValueError):
            update_delta_after_flip(
                small_qubo.W, x, np.zeros(small_qubo.n + 1, dtype=np.int64), 0
            )

    def test_index_out_of_range(self, small_qubo):
        x = np.zeros(small_qubo.n, dtype=np.uint8)
        d = delta_vector(small_qubo, x)
        with pytest.raises(IndexError):
            update_delta_after_flip(small_qubo.W, x, d, -1)
