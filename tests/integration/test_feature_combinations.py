"""Cross-feature integration: combinations the unit tests don't cover.

Each extension (sparse weights, adaptive windows, decomposition) is
tested in isolation elsewhere; these tests exercise
them *together*, which is how a downstream user will actually run them.
"""

import numpy as np
import pytest

from repro.abs import (
    AbsConfig,
    AdaptiveBulkSearch,
    DecompositionConfig,
    DecompositionSolver,
    WindowAdapter,
)
from repro.abs.device import DeviceSimulator
from repro.problems import maxcut_to_sparse_qubo, random_graph, cut_value
from repro.qubo import QuboMatrix, SparseQubo, energy


@pytest.fixture
def graph():
    return random_graph(48, 160, weighted=True, seed=21)


@pytest.fixture
def sparse(graph):
    return maxcut_to_sparse_qubo(graph)


class TestSparsePlusAdaptive:
    def test_sparse_engine_with_window_adaptation(self, sparse):
        adapter = WindowAdapter(sparse.n, 8, period=2, seed=1)
        dev = DeviceSimulator(
            sparse, 8, windows=np.full(8, 2, dtype=np.int64),
            local_steps=12, adapter=adapter,
        )
        rng = np.random.default_rng(0)
        for _ in range(8):
            dev.round(rng.integers(0, 2, (8, sparse.n), dtype=np.uint8))
        assert adapter.adaptations > 0
        dev.engine.validate()

    def test_sparse_solver_with_adaptation(self, graph, sparse):
        cfg = AbsConfig(
            blocks_per_gpu=8, local_steps=16, max_rounds=12,
            adapt_windows=True, adapt_period=2, seed=2,
        )
        res = AdaptiveBulkSearch(sparse, cfg).solve("sync")
        assert cut_value(graph, res.best_x) == -res.best_energy


class TestDecomposePlusSparsePlusSelection:
    @pytest.mark.parametrize("selection", ["delta", "random"])
    def test_decomposition_over_sparse_maxcut(self, graph, sparse, selection):
        cfg = DecompositionConfig(
            subproblem_size=12, iterations=12, selection=selection,
            patience=6, seed=3,
        )
        res = DecompositionSolver(sparse, cfg).solve()
        assert sparse.energy(res.best_x) == res.best_energy
        assert cut_value(graph, res.best_x) == -res.best_energy

    def test_decomposition_matches_direct_solve_quality_band(self, sparse):
        """The outer loop should land within 10 % of a direct ABS solve
        of comparable effort on this small instance."""
        direct = AdaptiveBulkSearch(
            sparse,
            AbsConfig(blocks_per_gpu=16, local_steps=32, max_rounds=20, seed=4),
        ).solve("sync")
        decomp = DecompositionSolver(
            sparse,
            DecompositionConfig(subproblem_size=16, iterations=25, seed=4),
        ).solve()
        assert decomp.best_energy <= 0.9 * direct.best_energy  # energies < 0


class TestIsingApiPlusSparse:
    def test_dense_to_sparse_to_solve_pipeline(self):
        """QuboMatrix → SparseQubo → api.solve round trip."""
        from repro.api import solve

        q = QuboMatrix.random(40, seed=5)
        # Dense random is 100% dense; conversion must still behave.
        sq = SparseQubo.from_dense(q)
        a = solve(q, max_rounds=6, seed=6)
        b = solve(sq, max_rounds=6, seed=6)
        assert a.best_energy == b.best_energy
        assert np.array_equal(a.best_x, b.best_x)
