"""Pins for the ``evaluated`` vs ``delta_updates`` counter semantics.

Historically the sparse engine path reported ``evaluated`` as if every
flip wrote all ``n`` delta entries, conflating the paper's Definition-1
*neighbourhood exposure* (always ``flips × n`` — the live delta vector
exposes every neighbour's energy whether or not it was rewritten) with
the *work actually performed* (``degree(k) + 1`` writes per sparse
flip).  The fix keeps ``evaluated`` on the paper's semantics and adds
the honest ``delta_updates`` counter; these tests pin both exactly so
the distinction can't silently regress.
"""

import numpy as np
import pytest

from repro.gpusim import BulkSearchEngine
from repro.qubo import QuboMatrix, SparseQubo


@pytest.fixture
def dense():
    return QuboMatrix.random(30, seed=1234)


@pytest.fixture
def sparse():
    # A genuinely sparse instance: ring + a few chords.
    n = 30
    terms = [(i, (i + 1) % n, 3 + i) for i in range(n)]
    terms += [(i, (i + 7) % n, -5) for i in range(0, n, 5)]
    W = np.zeros((n, n), dtype=np.int64)
    for i, j, w in terms:
        W[i, j] += w
        W[j, i] += w
    W[np.arange(n), np.arange(n)] = np.arange(n) - 15
    return SparseQubo.from_dense(W)


def _degrees(sq: SparseQubo) -> np.ndarray:
    return np.diff(sq.indptr)


class TestDenseCounters:
    def test_evaluated_equals_delta_updates(self, dense):
        eng = BulkSearchEngine(dense, 3)
        eng.local_steps(20)
        c = eng.counters
        assert c.flips == 60
        assert c.evaluated == 60 * dense.n
        assert c.delta_updates == c.evaluated  # dense: writes == exposure


class TestSparseCounters:
    def test_straight_pin_exact(self, sparse, rng):
        """From zero, each set target bit is flipped exactly once, so
        delta_updates must equal Σ (degree(k) + 1) over those bits —
        order-independent, hence exactly predictable."""
        B = 4
        targets = rng.integers(0, 2, (B, sparse.n), dtype=np.uint8)
        eng = BulkSearchEngine(sparse, B)
        flips = eng.straight_to(targets)
        deg = _degrees(sparse)
        expected = sum(
            int((deg[targets[b].astype(bool)] + 1).sum()) for b in range(B)
        )
        c = eng.counters
        assert c.flips == flips == int(targets.sum())
        assert c.delta_updates == expected
        assert c.evaluated == flips * sparse.n  # exposure, not writes
        assert c.delta_updates < c.evaluated  # the whole point

    def test_local_steps_bounded_by_max_degree(self, sparse):
        eng = BulkSearchEngine(sparse, 2, windows=6)
        eng.local_steps(25)
        c = eng.counters
        max_per_flip = int(_degrees(sparse).max()) + 1
        assert c.evaluated == c.flips * sparse.n
        assert 0 < c.delta_updates <= c.flips * max_per_flip
        assert c.delta_updates < c.evaluated

    def test_dense_and_sparse_agree_on_everything_else(self, rng):
        """The honest counter is the *only* counter the representation
        may change; search-semantics counters stay identical."""
        dense = QuboMatrix.random(24, seed=9)
        sparse = SparseQubo.from_dense(dense.W)
        e_d = BulkSearchEngine(dense, 3, windows=5, offsets=np.zeros(3, dtype=np.int64))
        e_s = BulkSearchEngine(sparse, 3, windows=5, offsets=np.zeros(3, dtype=np.int64))
        targets = rng.integers(0, 2, (3, 24), dtype=np.uint8)
        for eng in (e_d, e_s):
            eng.straight_to(targets)
            eng.local_steps(30)
        d = e_d.counters.as_dict()
        s = e_s.counters.as_dict()
        d_updates = d.pop("engine.delta_updates")
        s_updates = s.pop("engine.delta_updates")
        assert d == s
        assert s_updates <= d_updates


class TestCountersSurface:
    def test_as_dict_exposes_delta_updates(self, dense):
        eng = BulkSearchEngine(dense, 1)
        eng.local_steps(2)
        snap = eng.counters.as_dict()
        assert snap["engine.delta_updates"] == 2 * dense.n
        assert set(snap) >= {
            "engine.flips",
            "engine.evaluated",
            "engine.delta_updates",
            "engine.straight_flips",
            "engine.local_flips",
            "engine.straight_retirements",
        }

    def test_solve_result_carries_delta_updates(self, dense):
        from repro.api import solve

        res = solve(dense, max_rounds=3, seed=0, blocks_per_gpu=4)
        assert "engine.delta_updates" in res.counters
        assert res.counters["engine.delta_updates"] == res.counters["engine.evaluated"]
