"""Gray-code exact enumerator: oracle agreement, edge cases, finisher.

``graycode_minimum`` is the ground-truth oracle of the backend suite:
these tests pin it against an independent numpy brute force (all 2^n
states materialized at once) and against ``repro.search.exact``'s
blocked enumerator, for dense and densified-CSR weights, then exercise
its second role as the decomposition loop's exact finisher.
"""

import numpy as np
import pytest

from repro.abs.decompose import DecompositionConfig, DecompositionSolver
from repro.backends.graycode import MAX_GRAYCODE_BITS, graycode_minimum
from repro.qubo import QuboMatrix, SparseQubo
from repro.search.exact import solve_exact
from repro.telemetry import MemorySink, TelemetryBus


def _brute_force_minimum(W: np.ndarray) -> int:
    """Independent oracle: materialize all 2^n states and evaluate."""
    n = W.shape[0]
    states = (
        (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1
    ).astype(np.int64)
    return int(((states @ W) * states).sum(axis=1).min())


def _densify(sp: SparseQubo) -> np.ndarray:
    return sp.to_dense().W


class TestOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 11])
    def test_agrees_with_numpy_brute_force(self, n):
        for seed in (0, 1, 2):
            W = np.ascontiguousarray(
                QuboMatrix.random(n, seed=100 * seed + n).W, dtype=np.int64
            )
            sol = graycode_minimum(W)
            assert sol.energy == _brute_force_minimum(W)
            assert sol.evaluated == 2**n

    @pytest.mark.parametrize("n", [12, 14, 16])
    def test_agrees_with_solve_exact_dense(self, n):
        q = QuboMatrix.random(n, seed=n)
        sol = graycode_minimum(q)
        assert sol.energy == solve_exact(q.W).energy

    @pytest.mark.parametrize("n", [9, 13, 16])
    def test_agrees_with_solve_exact_sparse(self, n):
        rng = np.random.default_rng(n)
        W = np.zeros((n, n), dtype=np.int64)
        for _ in range(3 * n):
            i, j = rng.integers(0, n, 2)
            if i != j:
                w = int(rng.integers(-40, 40))
                W[i, j] += w
                W[j, i] += w
        np.fill_diagonal(W, rng.integers(-30, 30, n))
        dense = _densify(SparseQubo.from_dense(W))
        assert np.array_equal(dense, W)
        sol = graycode_minimum(dense)
        assert sol.energy == solve_exact(W).energy

    def test_returned_x_achieves_returned_energy(self):
        q = QuboMatrix.random(13, seed=7)
        sol = graycode_minimum(q)
        x = sol.x.astype(np.int64)
        assert int(x @ np.asarray(q.W, dtype=np.int64) @ x) == sol.energy

    def test_n1(self):
        assert graycode_minimum(np.array([[5]])).energy == 0
        assert graycode_minimum(np.array([[-5]])).energy == -5


class TestValidation:
    def test_rejects_oversized(self):
        with pytest.raises(ValueError, match="capped"):
            graycode_minimum(np.zeros((MAX_GRAYCODE_BITS + 1,) * 2, dtype=np.int64))

    def test_rejects_empty_and_nonsquare(self):
        with pytest.raises(ValueError):
            graycode_minimum(np.zeros((0, 0), dtype=np.int64))
        with pytest.raises(ValueError, match="square"):
            graycode_minimum(np.zeros((2, 3), dtype=np.int64))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            graycode_minimum(np.array([[0, 1], [2, 0]]))


class TestExactFinisher:
    def test_one_shot_finisher_is_exact(self):
        q = QuboMatrix.random(14, seed=5)
        cfg = DecompositionConfig(
            subproblem_size=14, iterations=1, exact_below=14, seed=0
        )
        res = DecompositionSolver(q, cfg).solve()
        assert res.best_energy == solve_exact(q.W).energy

    def test_finisher_counters(self):
        q = QuboMatrix.random(40, seed=3)
        cfg = DecompositionConfig(
            subproblem_size=12, iterations=5, exact_below=12, seed=1
        )
        bus = TelemetryBus([MemorySink()])
        DecompositionSolver(q, cfg, telemetry=bus).solve()
        bus.close()
        counters = bus.counters.snapshot()
        assert counters["backend.graycode.finisher_calls"] == 5
        assert counters["backend.graycode.enumerated"] == 5 * 2**12

    def test_finisher_never_worse_than_inner_abs(self):
        q = QuboMatrix.random(36, seed=9)
        base = DecompositionConfig(subproblem_size=12, iterations=8, seed=4)
        exact = DecompositionConfig(
            subproblem_size=12, iterations=8, exact_below=12, seed=4
        )
        res_abs = DecompositionSolver(q, base).solve()
        res_exact = DecompositionSolver(q, exact).solve()
        # Same subset trajectory (same seed) with each subproblem solved
        # to optimality cannot lose to the heuristic inner solver.
        assert res_exact.best_energy <= res_abs.best_energy

    def test_threshold_only_triggers_at_or_below(self):
        q = QuboMatrix.random(40, seed=8)
        cfg = DecompositionConfig(
            subproblem_size=20, iterations=2, exact_below=12, seed=2
        )
        bus = TelemetryBus([MemorySink()])
        DecompositionSolver(q, cfg, telemetry=bus).solve()
        bus.close()
        assert bus.counters.get("backend.graycode.finisher_calls") == 0

    @pytest.mark.parametrize("bad", [0, 1, MAX_GRAYCODE_BITS + 1])
    def test_config_validation(self, bad):
        with pytest.raises(ValueError, match="exact_below"):
            DecompositionConfig(exact_below=bad)
