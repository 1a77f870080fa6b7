"""Bit-plane backend: packing helpers, tiers, fallback, exactness.

The differential suite (``test_equivalence.py``) already pins
``bitplane`` step-for-step against the scalar references via the
``available_backends()`` parametrization; this module covers what that
sweep cannot: the packed-plane helper algebra, the fallback lane and
the cause it reports (``REPRO_NO_CC``, no compiler, a failed build),
the refusal of another backend's prepared weights, dtype-tier selection
including the forced int64 tier, explicit single-step lockstep runs of
both dense tiers and the sparse CSR kernel, and the CSR kernels'
per-word Δ minima: ties, ragged sizes, a raised word minimum, and
prepared weights shared across engines; and the per-call argument
arena, which no engine array may alias.
"""

import warnings

import numpy as np
import pytest

import repro.backends.bitplane as bp_mod
from repro.backends import NumpyBackend, resolve_backend
from repro.backends.bitplane import (
    BitplaneBackend,
    cc_available,
    make_bitplane_backend,
    pack_rows,
    unpack_rows,
)
from repro.gpusim import BulkSearchEngine
from repro.problems.maxcut import maxcut_to_qubo, maxcut_to_sparse_qubo, random_graph
from repro.qubo import QuboMatrix, SparseQubo
from repro.telemetry import MemorySink, TelemetryBus, validate_record

needs_cc = pytest.mark.skipif(not cc_available(), reason="no C compiler")


class TestPackedPlanes:
    # 48, 96 and 160 are the service-stream sizes, 2000 the MaxCut one:
    # none is a multiple of 64.
    @pytest.mark.parametrize("n", [1, 5, 48, 63, 64, 65, 96, 130, 160, 256, 2000])
    def test_pack_unpack_roundtrip(self, n):
        rng = np.random.default_rng(n)
        X = rng.integers(0, 2, (7, n), dtype=np.uint8)
        planes = pack_rows(X)
        assert planes.dtype == np.uint64
        assert planes.shape == (7, (n + 63) // 64)
        assert np.array_equal(unpack_rows(planes, n), X)

    def test_bit_layout_is_little_endian(self):
        # Bit i lives in word i >> 6 at position i & 63.
        x = np.zeros((1, 130), dtype=np.uint8)
        x[0, 0] = 1
        x[0, 64] = 1
        x[0, 129] = 1
        planes = pack_rows(x)
        assert planes[0, 0] == 1
        assert planes[0, 1] == 1
        assert planes[0, 2] == 1 << (129 - 128)

    def test_pad_bits_are_zero(self):
        x = np.ones((2, 70), dtype=np.uint8)
        planes = pack_rows(x)
        assert planes[0, 1] == (1 << (70 - 64)) - 1

    @pytest.mark.parametrize("n", [5, 64, 96])
    def test_one_and_three_dimensional_rows(self, n):
        rng = np.random.default_rng(n)
        nw = (n + 63) // 64
        x = rng.integers(0, 2, n, dtype=np.uint8)
        planes = pack_rows(x)
        assert planes.shape == (nw,)
        assert np.array_equal(unpack_rows(planes, n), x)
        X = rng.integers(0, 2, (2, 3, n), dtype=np.uint8)
        planes = pack_rows(X)
        assert planes.shape == (2, 3, nw)
        assert np.array_equal(unpack_rows(planes, n), X)
        assert np.array_equal(planes[1, 2], pack_rows(X[1, 2]))


class TestFallback:
    @pytest.fixture
    def masked(self, monkeypatch):
        """Compiler masked (as on a machine without cc), warning reset."""
        monkeypatch.setenv("REPRO_NO_CC", "1")
        monkeypatch.setattr(bp_mod, "_warned", False)

    def test_cc_available_respects_mask(self, masked):
        assert not cc_available()

    def test_fallback_is_tagged_numpy(self, masked):
        with pytest.warns(RuntimeWarning, match="falling back"):
            backend = make_bitplane_backend()
        assert isinstance(backend, NumpyBackend)
        assert not isinstance(backend, BitplaneBackend)
        assert backend.name == "numpy"
        assert backend.fallback_from == "bitplane"

    def test_warning_fires_once_per_process(self, masked):
        with pytest.warns(RuntimeWarning):
            make_bitplane_backend()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            make_bitplane_backend()

    def test_engine_emits_fallback_event(self, masked):
        sink = MemorySink()
        bus = TelemetryBus([sink])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            BulkSearchEngine(
                QuboMatrix.random(16, seed=0), 2, backend="bitplane", bus=bus
            )
        events = sink.named("backend.fallback")
        assert len(events) == 1
        assert events[0].fields["requested"] == "bitplane"
        assert events[0].fields["using"] == "numpy"
        assert events[0].fields["reason"] == "REPRO_NO_CC is set"
        for record in sink.records():
            validate_record(record)

    @pytest.fixture
    def broken_cc(self, monkeypatch, tmp_path):
        """A compiler that exists but cannot build, and a counter of its
        spawns; nothing loaded or failed yet in this process."""
        log = tmp_path / "calls"
        cc = tmp_path / "broken-cc"
        cc.write_text(f'#!/bin/sh\necho "$@" >> {log}\nexit 1\n')
        cc.chmod(0o755)
        monkeypatch.delenv("REPRO_NO_CC", raising=False)
        monkeypatch.setenv("CC", str(cc))
        monkeypatch.setattr(bp_mod.tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(bp_mod, "_warned", False)
        monkeypatch.setattr(BitplaneBackend, "_lib", None)
        monkeypatch.setattr(BitplaneBackend, "_build_error", None)

        def spawns() -> int:
            return len(log.read_text().splitlines()) if log.exists() else 0

        return spawns

    def test_failed_build_is_not_retried(self, broken_cc):
        spawns = broken_cc
        assert type(resolve_backend("auto")) is NumpyBackend
        assert spawns() == 3  # --version, then both flag sets
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert resolve_backend("bitplane").fallback_from == "bitplane"
        for _ in range(3):
            resolve_backend("auto")
        assert spawns() == 3
        with pytest.raises(RuntimeError, match="compilation failed"):
            BitplaneBackend.ensure_compiled()

    def test_reason_names_a_failed_build(self, broken_cc):
        with pytest.warns(RuntimeWarning, match="kernel build failed"):
            backend = make_bitplane_backend()
        assert backend.fallback_reason.startswith(
            "the kernel build failed: bit-plane kernel compilation failed"
        )

    def test_reason_names_a_missing_compiler(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_NO_CC", raising=False)
        monkeypatch.delenv("CC", raising=False)
        monkeypatch.setenv("PATH", str(tmp_path))  # holds no compiler
        monkeypatch.setattr(bp_mod, "_warned", False)
        with pytest.warns(RuntimeWarning, match="no C compiler found"):
            backend = make_bitplane_backend()
        assert backend.fallback_reason == "no C compiler found ($CC, cc, gcc or clang)"

    def test_fallback_still_solves(self, masked):
        from repro.api import solve

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = solve(
                QuboMatrix.random(24, seed=5), max_rounds=3, seed=7,
                backend="bitplane",
            )
        assert res.best_energy <= 0


_STATE = ("X", "delta", "energy", "best_energy", "best_x", "offsets", "windows")


@needs_cc
class TestPerCallArena:
    """Each walk copies its arguments into an arena of its own and its
    results out of it: no engine array may alias one, so nothing an
    engine holds changes when another walk runs."""

    @pytest.mark.parametrize("tier", ["dense_w16_d32", "dense_w64", "sparse_w64"])
    def test_engine_arrays_survive_other_walks(self, tier):
        q = QuboMatrix.random(96, seed=21)
        W = np.asarray(q.W, dtype=np.int64) * (5 if tier == "dense_w64" else 1)
        weights = SparseQubo.from_dense(W) if tier == "sparse_w64" else QuboMatrix(W)
        rng = np.random.default_rng(22)
        first = BulkSearchEngine(weights, 4, windows=7, backend="bitplane")
        assert first._pw.planes.variant == tier
        first.straight_to(rng.integers(0, 2, (4, 96), dtype=np.uint8))
        first.local_steps(5)
        held = {f: getattr(first, f) for f in _STATE}
        values = {f: a.copy() for f, a in held.items()}
        other = BulkSearchEngine(
            weights, 4, windows=3, backend="bitplane", prepared=first.prepared
        )
        for _ in range(3):
            other.straight_to(rng.integers(0, 2, (4, 96), dtype=np.uint8))
            other.local_steps(9)
        for f in _STATE:
            assert getattr(first, f) is held[f]
            assert np.array_equal(held[f], values[f]), f"{f} changed"
        # The next walk of the same engine starts from those values.
        ref = BulkSearchEngine(weights, 4, windows=7, backend="numpy")
        for f in ("X", "delta", "energy", "best_energy", "best_x", "offsets"):
            getattr(ref, f)[:] = values[f]
        for eng in (first, ref):
            eng.local_steps(4)
        for f in ("X", "delta", "energy", "best_energy", "best_x", "offsets"):
            assert np.array_equal(getattr(first, f), getattr(ref, f)), f


@needs_cc
class TestForeignPreparedWeights:
    """``prepared=`` from another backend is refused, never run on a
    guessed layout."""

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_numpy_prepared_weights_raise(self, sparse):
        g = random_graph(40, 120, weighted=True, seed=3)
        weights = maxcut_to_sparse_qubo(g) if sparse else maxcut_to_qubo(g)
        donor = BulkSearchEngine(weights, 2, backend="numpy")
        eng = BulkSearchEngine(
            weights, 2, backend=BitplaneBackend(), prepared=donor.prepared
        )
        with pytest.raises(TypeError, match="its own prepare_dense"):
            eng.local_steps(3)
        with pytest.raises(TypeError, match="its own prepare_dense"):
            eng.local_steps(0)
        with pytest.raises(TypeError, match="its own prepare_dense"):
            eng.straight_to(np.ones((2, weights.n), dtype=np.uint8))


@needs_cc
class TestTierSelection:
    def test_int16_weights_pick_w16_d32(self):
        pw = BitplaneBackend().prepare_dense(
            np.ascontiguousarray(QuboMatrix.random(64, seed=1).W, dtype=np.int64)
        )
        assert pw.planes.variant == "dense_w16_d32"
        assert pw.planes.weights.dtype == np.int16

    def test_wide_weights_pick_w64(self):
        W = np.ascontiguousarray(QuboMatrix.random(64, seed=2).W, dtype=np.int64)
        pw = BitplaneBackend().prepare_dense(W * 3)  # beyond int16
        assert pw.planes.variant == "dense_w64"

    def test_int16_min_edge_stays_w16(self):
        # -32768 is representable in int16; sign is applied after the
        # int32 widening in-kernel, so no wrap fixup is needed.
        W = np.zeros((4, 4), dtype=np.int64)
        W[0, 1] = W[1, 0] = -(2**15)
        pw = BitplaneBackend().prepare_dense(W)
        assert pw.planes.variant == "dense_w16_d32"

    def test_huge_diagonal_forces_w64(self):
        # Off-diagonals fit int16 but the Δ bound exceeds int32.
        W = np.zeros((4, 4), dtype=np.int64)
        W[0, 1] = W[1, 0] = 7
        W[2, 2] = 2**40
        pw = BitplaneBackend().prepare_dense(W)
        assert pw.planes.variant == "dense_w64"

    def test_sparse_uses_csr_kernel(self):
        q = QuboMatrix.random(32, seed=3)
        pw = BitplaneBackend().prepare_sparse(SparseQubo.from_dense(q.W))
        assert pw.planes.variant == "sparse_w64"

    def test_stored_rows_have_zero_diagonal(self):
        pw = BitplaneBackend().prepare_dense(
            np.ascontiguousarray(QuboMatrix.random(16, seed=4).W, dtype=np.int64)
        )
        assert not np.diagonal(pw.planes.weights).any()


_FIELDS = ("X", "delta", "energy", "best_energy", "best_x", "offsets")


def _lockstep(problem, *, steps, windows=16, sparse=False):
    """Two engines, one step at a time: every intermediate state equal.
    Returns the bitplane engine."""
    weights = SparseQubo.from_dense(problem.W) if sparse else problem
    ref = BulkSearchEngine(weights, 6, windows=windows, backend="numpy")
    bit = BulkSearchEngine(weights, 6, windows=windows, backend=resolve_backend("bitplane"))
    assert bit.backend.name == "bitplane"
    for step in range(steps):
        ref.local_steps(1)
        bit.local_steps(1)
        for field in _FIELDS:
            assert np.array_equal(getattr(ref, field), getattr(bit, field)), (
                f"{field} diverged at step {step + 1}"
            )
    assert ref.counters.as_dict() == bit.counters.as_dict()
    return bit


@needs_cc
class TestSingleStepEquivalence:
    """Per-step ΔE/select pin against the scalar Algorithm 4/5 semantics
    (via the numpy reference, itself pinned to the scalar walk)."""

    def test_w16_tier_every_step(self):
        _lockstep(QuboMatrix.random(48, seed=11), steps=25)

    def test_w16_tier_window_one(self):
        _lockstep(QuboMatrix.random(33, seed=12), steps=25, windows=1)

    def test_w64_tier_every_step(self):
        q = QuboMatrix.random(48, seed=13)
        wide = QuboMatrix(np.asarray(q.W, dtype=np.int64) * 5, check=False)
        ref = BulkSearchEngine(wide, 4, windows=9, backend="numpy")
        bit = BulkSearchEngine(wide, 4, windows=9, backend="bitplane")
        assert bit._pw.planes.variant == "dense_w64"
        for step in range(25):
            ref.local_steps(1)
            bit.local_steps(1)
            for field in ("X", "delta", "energy", "best_energy", "best_x"):
                assert np.array_equal(getattr(ref, field), getattr(bit, field)), (
                    f"{field} diverged at step {step + 1}"
                )

    def test_sparse_every_step(self):
        _lockstep(QuboMatrix.random(48, seed=14), steps=25, sparse=True)

    def test_sparse_delta_update_counter_matches(self):
        q = QuboMatrix.random(40, seed=15)
        sp = SparseQubo.from_dense(q.W)
        ref = BulkSearchEngine(sp, 5, windows=8, backend="numpy")
        bit = BulkSearchEngine(sp, 5, windows=8, backend="bitplane")
        ref.local_steps(60)
        bit.local_steps(60)
        # Sparse updates are degree(k)+1 per flip — data dependent, so
        # equality here means the same bits were flipped in the same order.
        assert ref.counters.delta_updates == bit.counters.delta_updates
        assert np.array_equal(ref.X, bit.X)

    def test_multi_step_batch_matches_single_steps(self):
        q = QuboMatrix.random(52, seed=16)
        one = BulkSearchEngine(q, 3, windows=12, backend="bitplane")
        batch = BulkSearchEngine(q, 3, windows=12, backend="bitplane")
        for _ in range(30):
            one.local_steps(1)
        batch.local_steps(30)
        for field in ("X", "delta", "energy", "best_energy", "best_x", "offsets"):
            assert np.array_equal(getattr(one, field), getattr(batch, field))


def _assert_same(ref, bit, context):
    for field in _FIELDS:
        assert np.array_equal(getattr(ref, field), getattr(bit, field)), (
            f"{context}: {field} diverged"
        )
    assert ref.counters.as_dict() == bit.counters.as_dict(), context


def _walk(eng, targets):
    """Straight search under both incumbent rules, then local search."""
    eng.straight_to(targets, scan_neighbors=True)
    eng.local_steps(9)
    eng.straight_to(targets ^ 1, scan_neighbors=False)
    eng.local_steps(9)


def _isolated_qubo(n, seed):
    """Weighted sparse problem on n bits where every third vertex has
    no edges (a degree-0 CSR row) but keeps its linear term."""
    rng = np.random.default_rng(seed)
    W = np.zeros((n, n), dtype=np.int64)
    live = np.flatnonzero(np.arange(n) % 3 != 0)
    for _ in range(2 * len(live)):
        i, j = rng.choice(live, 2)
        if i != j:
            W[i, j] = W[j, i] = rng.integers(-4, 5)
    np.fill_diagonal(W, rng.integers(-6, 7, n))
    return SparseQubo.from_dense(W)


@needs_cc
class TestSparseWordMinima:
    """The CSR kernels keep one Δ minimum per 64-bit plane word instead
    of rescanning all n entries per flip; every answer must still be
    the numpy reference's, first-minimum tie rule included."""

    @pytest.mark.parametrize("windows", [1, 16])
    def test_ties_every_step(self, windows):
        # Unweighted MaxCut: Δ ties everywhere, so update_best must take
        # the first minimum across three plane words at every step.
        q = maxcut_to_qubo(random_graph(130, 520, seed=43))
        bit = _lockstep(q, steps=40, windows=windows, sparse=True)
        assert bit._pw.planes.variant == "sparse_w64"
        tied = (bit.delta == bit.delta.min(axis=1, keepdims=True)).sum(axis=1)
        assert tied.max() > 1

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_sizes_with_isolated_vertices(self, n):
        q = _isolated_qubo(n, seed=n)
        targets = np.random.default_rng(n).integers(0, 2, (3, n), dtype=np.uint8)
        windows = min(n, 5)
        ref = BulkSearchEngine(q, 3, windows=windows, backend="numpy")
        bit = BulkSearchEngine(q, 3, windows=windows, backend="bitplane")
        assert bit._pw.planes.variant == "sparse_w64"
        _walk(ref, targets)
        _walk(bit, targets)
        _assert_same(ref, bit, f"n={n}")

    @pytest.mark.parametrize("run", ["local", "straight-scan", "straight-track"])
    def test_raised_word_minimum_is_rescanned(self, run):
        # Flipping bit 0 (word 0) raises its neighbour bit 70 from the
        # unique minimum of word 1 (Δ = -10) to Δ = +30.  Word 1's new
        # minimum, bit 80 (Δ = -5), is found only by rescanning word 1.
        n = 130
        W = np.zeros((n, n), dtype=np.int64)
        W[0, 0], W[70, 70], W[80, 80], W[129, 129] = -20, -10, -5, -3
        W[0, 70] = W[70, 0] = 20
        q = SparseQubo.from_dense(W)
        ref, bit = (
            BulkSearchEngine(q, 1, windows=1, offsets=np.zeros(1, dtype=np.int64),
                             backend=backend)
            for backend in ("numpy", "bitplane")
        )
        assert ref.delta[0, 64:128].argmin() == 70 - 64
        if run == "local":
            # Window 1 at offset 0: k = 0, then update_best.
            for eng in (ref, bit):
                eng.local_steps(1)
            assert ref.delta[0, 70] == 30 and ref.delta[0, 64:128].min() == -5
        else:
            # Bits {0, 70, 80} differ: k = 0 (Δ = -20), then the
            # still-differing minimum must move from bit 70 to bit 80.
            target = np.zeros((1, n), dtype=np.uint8)
            target[0, [0, 70, 80]] = 1
            for eng in (ref, bit):
                eng.straight_to(target, scan_neighbors=run == "straight-scan")
        _assert_same(ref, bit, run)

    def test_kernels_stay_stateless_under_shared_weights(self):
        # The service's per-digest cache hands one PreparedWeights to
        # many engines; the kernels' scratch must never live on it.
        q = maxcut_to_sparse_qubo(random_graph(300, 1500, weighted=True, seed=47))
        rng = np.random.default_rng(48)
        targets = [rng.integers(0, 2, (4, 300), dtype=np.uint8) for _ in range(2)]
        owner = BulkSearchEngine(q, 1, backend="bitplane")
        assert owner._pw.planes.variant == "sparse_w64"
        shared = [
            BulkSearchEngine(q, 4, windows=w, backend="bitplane", prepared=owner.prepared)
            for w in (3, 11)
        ]
        alone = [BulkSearchEngine(q, 4, windows=w, backend="bitplane") for w in (3, 11)]
        for t in range(2):
            for eng, tgt in zip(shared, targets):
                eng.straight_to(tgt if t == 0 else tgt ^ 1)
            for eng in shared:
                eng.local_steps(25)
        for eng, tgt in zip(alone, targets):
            for t in range(2):
                eng.straight_to(tgt if t == 0 else tgt ^ 1)
                eng.local_steps(25)
        for a, b in zip(shared, alone):
            _assert_same(b, a, "shared prepared weights")
