"""Property-based invariants over random operation interleavings.

hypothesis generates arbitrary sequences of the engine's public
operations — ``straight_to`` (Algorithm 5), ``local_steps``
(Algorithm 4), ``set_state``, ``reset_best`` — and after every sequence
the suite checks the invariants no interleaving may break:

- the maintained ``energy``/``delta`` agree with an O(n²) from-scratch
  recompute (:func:`tests.helpers.engine_check.assert_engine_valid`);
- ``best_energy`` is genuinely achieved by ``best_x``;
- counters are monotone and internally consistent;
- an attached telemetry bus never changes the walk.

Skips gracefully (via ``importorskip``) when hypothesis is absent.
"""

import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.backends import available_backends, resolve_backend  # noqa: E402
from repro.gpusim import BulkSearchEngine  # noqa: E402
from repro.qubo import QuboMatrix, SparseQubo, energy as qubo_energy  # noqa: E402
from repro.telemetry import TelemetryBus  # noqa: E402
from tests.helpers.engine_check import assert_engine_valid  # noqa: E402

N = 20
B = 3
_INT64_MAX = np.iinfo(np.int64).max

# One op = (kind, payload-seed).  Payloads are derived deterministically
# from the seed so hypothesis shrinks to readable sequences.
_op = st.tuples(
    st.sampled_from(["straight", "local", "set_state", "reset_best"]),
    st.integers(min_value=0, max_value=2**16),
)


def _dense_problem():
    return QuboMatrix.random(N, seed=777)


def _sparse_problem():
    return SparseQubo.from_dense(QuboMatrix.random(N, seed=778).W)


def _backend(name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return resolve_backend(name)


def _apply(eng, op, payload):
    rng = np.random.default_rng(payload)
    if op == "straight":
        eng.straight_to(
            rng.integers(0, 2, (B, N), dtype=np.uint8),
            scan_neighbors=bool(payload % 2),
        )
    elif op == "local":
        eng.local_steps(int(payload % 9))  # 0..8 forced flips
    elif op == "set_state":
        eng.set_state(int(payload % B), rng.integers(0, 2, N, dtype=np.uint8))
    else:
        eng.reset_best()


def _counter_tuple(c):
    return (
        c.flips,
        c.evaluated,
        c.delta_updates,
        c.straight_flips,
        c.local_flips,
        c.straight_retirements,
    )


@pytest.mark.parametrize("backend_name", available_backends())
class TestInterleavingInvariants:
    @given(ops=st.lists(_op, min_size=1, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_state_always_recomputes(self, backend_name, ops):
        """validate()'s from-scratch recompute agrees after any sequence."""
        eng = BulkSearchEngine(
            _dense_problem(), B, windows=np.array([2, 5, 13]),
            backend=_backend(backend_name),
        )
        for op, payload in ops:
            _apply(eng, op, payload)
        trace = " -> ".join(op for op, _ in ops)
        assert_engine_valid(eng, context=trace)

    @given(ops=st.lists(_op, min_size=1, max_size=10))
    @settings(max_examples=15, deadline=None)
    def test_sparse_state_always_recomputes(self, backend_name, ops):
        eng = BulkSearchEngine(
            _sparse_problem(), B, windows=7, backend=_backend(backend_name)
        )
        for op, payload in ops:
            _apply(eng, op, payload)
        assert_engine_valid(eng, context=" -> ".join(op for op, _ in ops))

    @given(ops=st.lists(_op, min_size=1, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_best_is_achieved_and_counters_monotone(self, backend_name, ops):
        problem = _dense_problem()
        eng = BulkSearchEngine(problem, B, backend=_backend(backend_name))
        prev = _counter_tuple(eng.counters)
        for op, payload in ops:
            _apply(eng, op, payload)
            cur = _counter_tuple(eng.counters)
            assert all(a <= b for a, b in zip(prev, cur)), (
                f"counter went backwards across {op!r}: {prev} -> {cur}"
            )
            prev = cur
        c = eng.counters
        assert c.straight_flips + c.local_flips == c.flips
        assert c.evaluated == c.flips * N  # exposure semantics, dense
        assert c.delta_updates == c.flips * N  # dense: writes == exposure
        for b in range(B):
            if eng.best_energy[b] < _INT64_MAX:
                assert eng.best_energy[b] == qubo_energy(problem, eng.best_x[b])

    @given(ops=st.lists(_op, min_size=1, max_size=10))
    @settings(max_examples=10, deadline=None)
    def test_telemetry_never_changes_the_walk(self, backend_name, ops):
        """The timing instrumentation is observation-only: the same
        sequence with and without a bus lands on identical state."""
        quiet = BulkSearchEngine(_dense_problem(), B, backend=_backend(backend_name))
        loud = BulkSearchEngine(
            _dense_problem(), B, backend=_backend(backend_name), bus=TelemetryBus()
        )
        for op, payload in ops:
            _apply(quiet, op, payload)
            _apply(loud, op, payload)
        assert np.array_equal(quiet.X, loud.X)
        assert np.array_equal(quiet.delta, loud.delta)
        assert np.array_equal(quiet.energy, loud.energy)
        assert np.array_equal(quiet.best_energy, loud.best_energy)
        assert _counter_tuple(quiet.counters) == _counter_tuple(loud.counters)
