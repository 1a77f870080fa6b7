"""Differential-equivalence suite: every registered backend must walk
step-for-step identically to the scalar references.

The oracle is the scalar code the paper's algorithms were first
implemented against — :class:`~repro.search.policies.WindowMinDeltaPolicy`
(Figure 2 selection), ``SearchState.flip`` (the Eq. 16 refresh),
``_scan_best`` (Algorithm 4's inner incumbent check) and
:func:`~repro.search.straight.straight_search` (Algorithm 5).  Each
test drives a :class:`BulkSearchEngine` on one backend and re-derives
the expected trajectory per block from those primitives, comparing
``X``/``delta``/``energy``/``best_x``/``best_energy``/counters exactly
(int64 arithmetic: no tolerances anywhere).

Parametrized over :func:`~repro.backends.available_backends`, so a
backend added to that table is pinned automatically.  On machines
without a C compiler, the ``bitplane`` name resolves to the tagged numpy
fallback — the fallback lane is then what gets pinned, which is exactly
what production would run.
"""

import warnings

import numpy as np
import pytest

from repro.backends import available_backends, resolve_backend
from repro.gpusim import BulkSearchEngine
from repro.problems.maxcut import maxcut_to_qubo, maxcut_to_sparse_qubo, random_graph
from repro.qubo import QuboMatrix, SearchState
from repro.search.bulk import _scan_best
from repro.search.policies import WindowMinDeltaPolicy
from repro.search.straight import straight_search
from tests.helpers.engine_check import assert_engine_valid, assert_engines_equal

_INT64_MAX = np.iinfo(np.int64).max


@pytest.fixture(params=available_backends())
def backend(request):
    """A fresh backend instance per test, for every registered name."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # bitplane fallback notice
        return resolve_backend(request.param)


@pytest.fixture
def problem():
    return QuboMatrix.random(48, seed=97)


@pytest.fixture
def sparse_pair():
    g = random_graph(56, 260, weighted=True, seed=23)
    return maxcut_to_qubo(g), maxcut_to_sparse_qubo(g)


def _scalar_local_walk(weights, steps, window, offset):
    """Engine-equivalent scalar trajectory for one block from zero."""
    st = SearchState.zeros(weights)
    pol = WindowMinDeltaPolicy(window, offset=offset)
    rng = np.random.default_rng(0)  # the policy is deterministic; rng unused
    best_e, best_x = _INT64_MAX, np.zeros(st.n, dtype=np.uint8)
    trajectory = []
    for _ in range(steps):
        st.flip(pol.select(st, rng))
        best_e, best_x = _scan_best(st, best_e, best_x)
        trajectory.append(
            (st.x.copy(), st.delta.copy(), st.energy, best_e, best_x.copy())
        )
    return trajectory


class TestLocalStepsEquivalence:
    @pytest.mark.parametrize("window", [1, 3, 16, 48])
    def test_walk_matches_scalar(self, backend, problem, window):
        B = 3
        eng = BulkSearchEngine(
            problem, B, windows=window, offsets=np.array([0, 7, 31]), backend=backend
        )
        offsets0 = eng.offsets.copy()
        eng.local_steps(60)
        for b in range(B):
            x, delta, energy, best_e, best_x = _scalar_local_walk(
                problem, 60, window, int(offsets0[b])
            )[-1]
            assert np.array_equal(eng.X[b], x), f"block {b}: X diverged"
            assert np.array_equal(eng.delta[b], delta), f"block {b}: delta diverged"
            assert eng.energy[b] == energy, f"block {b}: energy diverged"
            assert eng.best_energy[b] == best_e, f"block {b}: best_energy diverged"
            assert np.array_equal(eng.best_x[b], best_x), f"block {b}: best_x diverged"

    def test_every_intermediate_step_matches(self, backend, problem):
        """Single-step granularity: not just the same destination, the
        same path — X/delta/energy/best after *each* forced flip."""
        steps, window = 25, 8
        eng = BulkSearchEngine(
            problem, 2, windows=window, offsets=np.zeros(2, dtype=np.int64),
            backend=backend,
        )
        reference = _scalar_local_walk(problem, steps, window, 0)
        for i in range(steps):
            eng.local_steps(1)
            x, delta, energy, best_e, best_x = reference[i]
            for b in range(2):
                assert np.array_equal(eng.X[b], x), f"step {i}, block {b}: X"
                assert np.array_equal(eng.delta[b], delta), f"step {i}: delta"
                assert eng.energy[b] == energy, f"step {i}: energy"
                assert eng.best_energy[b] == best_e, f"step {i}: best_energy"
                assert np.array_equal(eng.best_x[b], best_x), f"step {i}: best_x"

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_problems_stay_valid(self, backend, seed):
        problem = QuboMatrix.random(32, seed=seed)
        eng = BulkSearchEngine(problem, 4, windows=np.array([2, 5, 11, 32]), backend=backend)
        eng.local_steps(50)
        assert_engine_valid(eng, context=f"seed={seed} local walk")

    def test_zero_steps_is_identity(self, backend, problem):
        eng = BulkSearchEngine(problem, 2, backend=backend)
        before = (eng.X.copy(), eng.delta.copy(), eng.energy.copy(), eng.offsets.copy())
        eng.local_steps(0)
        assert np.array_equal(eng.X, before[0])
        assert np.array_equal(eng.delta, before[1])
        assert np.array_equal(eng.energy, before[2])
        assert np.array_equal(eng.offsets, before[3])


class TestStraightEquivalence:
    @pytest.mark.parametrize("scan_neighbors", [True, False])
    def test_matches_scalar(self, backend, problem, scan_neighbors, rng):
        B = 4
        targets = rng.integers(0, 2, (B, problem.n), dtype=np.uint8)
        eng = BulkSearchEngine(problem, B, backend=backend)
        flips = eng.straight_to(targets, scan_neighbors=scan_neighbors)
        assert (eng.X == targets).all()
        assert flips == int(targets.sum())
        for b in range(B):
            st = SearchState.zeros(problem)
            bx, be, _ = straight_search(st, targets[b], scan_neighbors=scan_neighbors)
            assert eng.energy[b] == st.energy, f"block {b}: energy"
            assert np.array_equal(eng.delta[b], st.delta), f"block {b}: delta"
            assert eng.best_energy[b] == be, f"block {b}: best_energy"
            assert np.array_equal(eng.best_x[b], bx), f"block {b}: best_x"

    def test_blocks_retire_independently(self, backend, problem):
        eng = BulkSearchEngine(problem, 3, backend=backend)
        targets = np.zeros((3, problem.n), dtype=np.uint8)
        targets[0, :2] = 1
        targets[1, :17] = 1
        targets[2, :] = 1
        eng.straight_to(targets)
        assert (eng.X == targets).all()
        assert_engine_valid(eng, context="independent retirement")


def _tie_problem(n, wide, seed):
    """Weights in {-2, ..., 2}, so Δ ties everywhere; scaled beyond
    int16 when ``wide``, so the same ties run on the int64 tier."""
    rng = np.random.default_rng(seed)
    W = np.triu(rng.integers(-2, 3, (n, n)))
    if wide:
        W = W * 2**15
    return QuboMatrix(W + np.triu(W, 1).T, check=False)


def _straight_problem(kind):
    """n = 130 (three words, not a multiple of 64) in every kernel tier."""
    if kind == "sparse":
        return maxcut_to_sparse_qubo(random_graph(130, 520, weighted=True, seed=31))
    if kind == "sparse-ties":
        # Unweighted MaxCut at average degree 4: Δ ties everywhere, so
        # the CSR kernel's per-word minima must yield the lowest index.
        return maxcut_to_sparse_qubo(random_graph(130, 260, seed=44))
    if kind in ("ties", "wide-ties"):
        # The lowest index must win at every straight-search step.
        return _tie_problem(130, kind == "wide-ties", seed=29)
    q = QuboMatrix.random(130, seed=37)
    if kind == "wide":  # off-diagonals beyond int16: the int64 tier
        return QuboMatrix(np.asarray(q.W, dtype=np.int64) * 5, check=False)
    return q


#: The bitplane kernel tier each straight-search problem selects.
_TIERS = {
    "int16": "dense_w16_d32", "wide": "dense_w64", "ties": "dense_w16_d32",
    "wide-ties": "dense_w64", "sparse": "sparse_w64", "sparse-ties": "sparse_w64",
}


class TestStraightTiers:
    """Algorithm 5 from a mid-walk state, on every kernel tier and both
    incumbent rules: blocks already at their target, one bit away, n
    bits away (every bit differs) and at a random target."""

    @pytest.mark.parametrize("scan_neighbors", [True, False])
    @pytest.mark.parametrize(
        "kind", ["int16", "wide", "ties", "wide-ties", "sparse", "sparse-ties"]
    )
    def test_matches_scalar_and_numpy(self, backend, kind, scan_neighbors, rng):
        weights = _straight_problem(kind)
        n = weights.n
        engines = {}
        for name, spec in (("ref", "numpy"), ("under_test", backend)):
            eng = BulkSearchEngine(weights, 4, windows=5, backend=spec)
            eng.local_steps(7)
            # The scalar walk counts its start as a candidate: seed the
            # incumbents with it so both sides compare the same thing.
            eng.best_energy[:] = eng.energy
            eng.best_x[:] = eng.X
            engines[name] = eng
        eng = engines["under_test"]
        planes = getattr(eng.prepared, "planes", None)
        if planes is not None:
            assert planes.variant == _TIERS[kind]
        start = eng.X.copy()
        targets = np.stack([
            start[0],
            start[1] ^ (np.arange(n) == 77),
            start[2] ^ 1,
            rng.integers(0, 2, n, dtype=np.uint8),
        ])
        if kind in ("ties", "wide-ties", "sparse-ties"):
            assert (eng.delta[2] == eng.delta[2].min()).sum() > 1
        scalar = []
        for b in range(4):
            st = SearchState.from_bits(weights, start[b])
            bx, be, flips = straight_search(st, targets[b], scan_neighbors=scan_neighbors)
            scalar.append((st, bx, be, flips))
        for e in engines.values():
            total = e.straight_to(targets, scan_neighbors=scan_neighbors)
            assert total == sum(f for *_, f in scalar) == 1 + n + int(
                (start[3] ^ targets[3]).sum()
            )
        ref = engines["ref"]
        assert (eng.X == targets).all()
        for b, (st, bx, be, _) in enumerate(scalar):
            assert eng.energy[b] == st.energy, f"block {b}: energy"
            assert np.array_equal(eng.delta[b], st.delta), f"block {b}: delta"
            assert eng.best_energy[b] == be, f"block {b}: best_energy"
            assert np.array_equal(eng.best_x[b], bx), f"block {b}: best_x"
        for field in ("X", "delta", "energy", "best_energy", "best_x"):
            assert np.array_equal(getattr(eng, field), getattr(ref, field)), field
        assert eng.counters.as_dict() == ref.counters.as_dict()
        assert eng.counters.straight_retirements == 3


class TestIncumbentHeavyWalks:
    """Walks right after ``reset_best()``: with no incumbent left, the
    first flips all take a new one, so the dense kernels look up the
    first minimum of Δ (through their per-word minima) far more often
    than from a seeded incumbent.  Tie-heavy weights at sizes around the
    64-bit word boundary put that first minimum in later words and in a
    partial last word."""

    @pytest.mark.parametrize("scan_neighbors", [True, False])
    @pytest.mark.parametrize("wide", [False, True], ids=["w16_d32", "w64"])
    @pytest.mark.parametrize("n", [63, 64, 65, 130])
    def test_state_matches_numpy_after_every_call(
        self, backend, n, wide, scan_neighbors, rng
    ):
        weights = _tie_problem(n, wide, seed=n)
        ref = BulkSearchEngine(weights, 4, windows=5, backend="numpy")
        eng = BulkSearchEngine(weights, 4, windows=5, backend=backend)
        planes = getattr(eng.prepared, "planes", None)
        if planes is not None:
            assert planes.variant == ("dense_w64" if wide else "dense_w16_d32")
        for call in range(4):
            targets = rng.integers(0, 2, (4, n), dtype=np.uint8)
            for e in (ref, eng):
                e.reset_best()
                e.straight_to(targets, scan_neighbors=scan_neighbors)
            assert_engines_equal(eng, ref, context=f"straight call {call}")
            for e in (ref, eng):
                e.reset_best()
                e.local_steps(9)
            assert_engines_equal(eng, ref, context=f"local call {call}")


class TestSparseEquivalence:
    def test_sparse_matches_dense(self, backend, sparse_pair, rng):
        dense, sparse = sparse_pair
        kw = dict(windows=8, offsets=np.zeros(3, dtype=np.int64), backend=backend)
        e_d = BulkSearchEngine(dense, 3, **kw)
        e_s = BulkSearchEngine(sparse, 3, **kw)
        targets = rng.integers(0, 2, (3, dense.n), dtype=np.uint8)
        for eng in (e_d, e_s):
            eng.straight_to(targets)
            eng.local_steps(70)
        assert np.array_equal(e_d.X, e_s.X)
        assert np.array_equal(e_d.delta, e_s.delta)
        assert np.array_equal(e_d.energy, e_s.energy)
        assert np.array_equal(e_d.best_energy, e_s.best_energy)
        assert np.array_equal(e_d.best_x, e_s.best_x)
        assert_engine_valid(e_s, context="sparse walk")

    def test_sparse_matches_scalar_straight(self, backend, sparse_pair, rng):
        _, sparse = sparse_pair
        targets = rng.integers(0, 2, (2, sparse.n), dtype=np.uint8)
        eng = BulkSearchEngine(sparse, 2, backend=backend)
        eng.straight_to(targets)
        for b in range(2):
            st = SearchState.zeros(sparse)
            bx, be, _ = straight_search(st, targets[b], scan_neighbors=True)
            assert eng.energy[b] == st.energy
            assert np.array_equal(eng.delta[b], st.delta)
            assert eng.best_energy[b] == be


class TestCrossBackendIdentity:
    """All registered backends agree with each other, state and counters."""

    def _run(self, backend_name, problem, targets):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            eng = BulkSearchEngine(
                problem, targets.shape[0], windows=np.array([2, 6, 16]),
                backend=backend_name,
            )
        eng.straight_to(targets)
        eng.local_steps(40)
        eng.straight_to(targets ^ 1)
        eng.local_steps(40)
        return eng

    def test_identical_states_and_counters(self, problem, rng):
        targets = rng.integers(0, 2, (3, problem.n), dtype=np.uint8)
        engines = {
            name: self._run(name, problem, targets) for name in available_backends()
        }
        ref = engines.pop("numpy")
        for name, eng in engines.items():
            assert np.array_equal(eng.X, ref.X), name
            assert np.array_equal(eng.delta, ref.delta), name
            assert np.array_equal(eng.energy, ref.energy), name
            assert np.array_equal(eng.best_energy, ref.best_energy), name
            assert np.array_equal(eng.best_x, ref.best_x), name
            assert np.array_equal(eng.offsets, ref.offsets), name
            assert eng.counters.as_dict() == ref.counters.as_dict(), name


class TestSolveLevelEquivalence:
    """A full seeded solve is backend-independent, result and counters."""

    def test_seeded_solve_identical_across_backends(self, problem):
        from repro.api import solve

        results = {}
        for name in available_backends():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                results[name] = solve(
                    problem, max_rounds=5, seed=42, blocks_per_gpu=8, backend=name
                )
        ref = results.pop("numpy")
        for name, res in results.items():
            assert res.best_energy == ref.best_energy, name
            assert np.array_equal(res.best_x, ref.best_x), name
            assert res.counters == ref.counters, name
            assert res.rounds == ref.rounds, name
