"""Tests for the energy-landscape estimators."""

import math

import numpy as np
import pytest

from repro.metrics.landscape import (
    descent_statistics,
    escape_radius,
    fitness_distance_correlation,
    local_minimum_fraction,
    random_walk_autocorrelation,
)
from repro.qubo import QuboMatrix
from repro.search import solve_exact


class TestAutocorrelation:
    def test_flat_landscape_fully_correlated(self):
        q = QuboMatrix.zeros(16)
        res = random_walk_autocorrelation(q, steps=200, max_lag=4, seed=0)
        assert res.rho1 == pytest.approx(1.0)
        assert math.isinf(res.correlation_length)

    def test_random_instance_decorrelates(self):
        q = QuboMatrix.random(64, seed=1)
        res = random_walk_autocorrelation(q, steps=3000, max_lag=16, seed=0)
        assert 0.0 < res.rho1 < 1.0
        # ρ must decay with lag (allowing estimation noise).
        assert res.rho[8] < res.rho1
        assert res.correlation_length > 0

    def test_larger_n_smoother_walk(self):
        """One flip changes a 1/n fraction of the solution, so bigger
        instances have higher lag-1 correlation."""
        small = random_walk_autocorrelation(
            QuboMatrix.random(32, seed=2), steps=4000, seed=0
        )
        large = random_walk_autocorrelation(
            QuboMatrix.random(256, seed=2), steps=4000, seed=0
        )
        assert large.rho1 > small.rho1

    def test_deterministic(self):
        q = QuboMatrix.random(32, seed=3)
        a = random_walk_autocorrelation(q, steps=500, seed=7)
        b = random_walk_autocorrelation(q, steps=500, seed=7)
        assert np.array_equal(a.rho, b.rho)

    def test_validation(self):
        q = QuboMatrix.random(8, seed=0)
        with pytest.raises(ValueError):
            random_walk_autocorrelation(q, steps=10, max_lag=20)
        with pytest.raises(ValueError):
            random_walk_autocorrelation(q, steps=100, max_lag=0)


class TestLocalMinimumFraction:
    def test_zero_matrix_everything_is_minimum(self):
        assert local_minimum_fraction(QuboMatrix.zeros(10), samples=50) == 1.0

    def test_negative_diagonal_no_random_minima(self):
        # W = −I: the unique minimum is all-ones; a random solution is a
        # minimum only if it IS all-ones (any 0 bit has Δ = −1 < 0).
        W = -np.eye(12, dtype=np.int64)
        frac = local_minimum_fraction(QuboMatrix(W), samples=100, seed=0)
        assert frac < 0.05

    def test_fraction_in_range(self):
        q = QuboMatrix.random(24, seed=4)
        frac = local_minimum_fraction(q, samples=100, seed=1)
        assert 0.0 <= frac <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            local_minimum_fraction(QuboMatrix.zeros(4), samples=0)


class TestDescentStatistics:
    def test_endpoints_are_local_minima_energies(self):
        from repro.qubo.energy import delta_vector

        q = QuboMatrix.random(20, seed=6)
        stats = descent_statistics(q, descents=10, seed=0)
        assert stats.endpoints.shape == (10,)
        assert stats.best <= stats.mean

    def test_convex_landscape_single_endpoint(self):
        W = -np.eye(12, dtype=np.int64)
        stats = descent_statistics(QuboMatrix(W), descents=15, seed=1)
        assert stats.distinct_endpoints == 1
        assert stats.best == -12
        assert stats.relative_spread == 0.0

    def test_endpoints_reach_reasonable_energies(self):
        q = QuboMatrix.random(16, seed=7)
        opt = solve_exact(q).energy
        stats = descent_statistics(q, descents=20, seed=2)
        assert stats.best >= opt  # descents can't beat the optimum
        assert stats.best <= 0.5 * opt  # but land deep (energies < 0)

    def test_zero_matrix_spread(self):
        stats = descent_statistics(QuboMatrix.zeros(8), descents=5, seed=0)
        assert stats.relative_spread == 0.0

    def test_deterministic(self):
        q = QuboMatrix.random(16, seed=8)
        a = descent_statistics(q, descents=8, seed=3)
        b = descent_statistics(q, descents=8, seed=3)
        assert np.array_equal(a.endpoints, b.endpoints)

    def test_validation(self):
        with pytest.raises(ValueError):
            descent_statistics(QuboMatrix.zeros(4), descents=0)


class TestEscapeRadius:
    def test_radius_one_when_delta_negative(self):
        W = -np.eye(6, dtype=np.int64)
        x = np.zeros(6, dtype=np.uint8)  # every flip improves
        assert escape_radius(QuboMatrix(W), x) == 1

    def test_none_at_global_optimum_small(self):
        q = QuboMatrix.random(10, seed=9)
        opt_x = solve_exact(q).x
        r = escape_radius(q, opt_x)
        assert r is None or r is not None  # well-defined; but specifically:
        assert escape_radius(q, opt_x, max_radius=1) is None

    def test_radius_two_detected(self):
        # E = x0 + x1 − 3·x0·x1: flipping either bit alone from (0,0)
        # costs +1, flipping both gains −1 → escape radius exactly 2.
        q = QuboMatrix.from_terms(2, linear={0: 1, 1: 1}, quadratic={(0, 1): -3})
        x = np.zeros(2, dtype=np.uint8)
        assert escape_radius(q, x) == 2

    def test_descent_endpoints_never_radius_one(self):
        q = QuboMatrix.random(16, seed=10)
        ds = descent_statistics(q, descents=8, seed=0)
        for i in range(8):
            assert escape_radius(q, ds.endpoint_bits[i], max_radius=1) is None

    def test_pair_identity_against_brute_force(self):
        from repro.qubo.energy import energy

        q = QuboMatrix.random(8, seed=11)
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2, 8, dtype=np.uint8)
        r = escape_radius(q, x)
        e0 = energy(q, x)
        best2 = min(
            energy(q, np.bitwise_xor(x, _mask(8, i, j)))
            for i in range(8)
            for j in range(8)
            if i != j
        )
        best1 = min(
            energy(q, np.bitwise_xor(x, _mask(8, i))) for i in range(8)
        )
        if best1 < e0:
            assert r == 1
        elif best2 < e0:
            assert r == 2
        else:
            assert r is None

    def test_sparse_backend(self):
        from repro.qubo import SparseQubo

        q = QuboMatrix.random(12, seed=12)
        sq = SparseQubo.from_dense(q)
        x = np.random.default_rng(1).integers(0, 2, 12, dtype=np.uint8)
        assert escape_radius(q, x) == escape_radius(sq, x)

    def test_sparse_backend_at_descent_endpoints(self):
        # Endpoints are 1-flip minima, so the radius-2 pair check runs.
        from repro.qubo import SparseQubo

        q = QuboMatrix.random(12, seed=12)
        sq = SparseQubo.from_dense(q)
        ds = descent_statistics(q, descents=6, seed=0)
        for bits in ds.endpoint_bits:
            assert escape_radius(sq, bits) == escape_radius(q, bits)

    def test_sparse_radius_two_detected(self):
        from repro.qubo import SparseQubo

        q = QuboMatrix.from_terms(2, linear={0: 1, 1: 1}, quadratic={(0, 1): -3})
        x = np.zeros(2, dtype=np.uint8)
        assert escape_radius(SparseQubo.from_dense(q), x) == 2

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            escape_radius(QuboMatrix.zeros(4), np.zeros(4, dtype=np.uint8), max_radius=3)


def _mask(n, *idx):
    m = np.zeros(n, dtype=np.uint8)
    for i in idx:
        m[i] = 1
    return m


class TestFitnessDistanceCorrelation:
    def test_convex_landscape_high_fdc(self):
        # W = −I: E(X) = −popcount, optimal at all-ones; distance to
        # all-ones = n − popcount, so E and distance correlate perfectly.
        W = -np.eye(16, dtype=np.int64)
        q = QuboMatrix(W)
        ref = np.ones(16, dtype=np.uint8)
        fdc = fitness_distance_correlation(q, ref, samples=150, seed=0)
        assert fdc == pytest.approx(1.0)

    def test_random_instance_weak_fdc(self):
        q = QuboMatrix.random(24, seed=5)
        ref = solve_exact(q).x
        fdc = fitness_distance_correlation(q, ref, samples=200, seed=1)
        assert -1.0 <= fdc <= 1.0

    def test_flat_landscape_returns_zero(self):
        q = QuboMatrix.zeros(8)
        ref = np.zeros(8, dtype=np.uint8)
        assert fitness_distance_correlation(q, ref, samples=50, seed=0) == 0.0

    def test_validation(self):
        q = QuboMatrix.zeros(4)
        with pytest.raises(ValueError):
            fitness_distance_correlation(q, np.zeros(4, dtype=np.uint8), samples=1)
        with pytest.raises(ValueError):
            fitness_distance_correlation(q, np.zeros(5, dtype=np.uint8))
