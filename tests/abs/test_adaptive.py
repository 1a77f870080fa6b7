"""Tests for the adaptive window tuner (paper §5 future work)."""

import numpy as np
import pytest

from repro.abs import AbsConfig, AdaptiveBulkSearch, VariantController, WindowAdapter
from repro.abs.device import DeviceSimulator
from repro.qubo import QuboMatrix
from repro.telemetry import MemorySink, TelemetryBus


class TestWindowAdapter:
    def test_not_ready_before_period(self):
        a = WindowAdapter(64, 8, period=3, seed=0)
        a.observe(np.zeros(8))
        a.observe(np.zeros(8))
        assert not a.ready
        assert a.maybe_adapt(np.full(8, 16)) is None
        with pytest.raises(RuntimeError):
            a.adapt(np.full(8, 16))

    def test_adapt_replaces_worst_with_winner_derived(self):
        a = WindowAdapter(64, 8, period=1, fraction=0.25, seed=1)
        energies = np.array([-100, -90, -80, -70, -60, -50, -40, 10])
        a.observe(energies)
        windows = np.array([2, 4, 8, 16, 32, 64, 5, 7], dtype=np.int64)
        new = a.adapt(windows)
        k = 2  # 25 % of 8
        # Winners (lowest energy) keep their windows.
        assert np.array_equal(new[:6], windows[:6])
        # Losers got windows derived from winners' {2, 4} by ×{0.5,1,2}.
        allowed = {1, 2, 4, 8}
        assert set(new[6:].tolist()) <= allowed
        assert a.adaptations == k

    def test_windows_clamped_to_range(self):
        a = WindowAdapter(8, 4, period=1, fraction=0.5, seed=2)
        a.observe(np.array([-10, -9, 0, 1]))
        new = a.adapt(np.array([8, 8, 1, 1], dtype=np.int64))
        assert (new >= 1).all() and (new <= 8).all()

    def test_period_resets_after_adapt(self):
        a = WindowAdapter(64, 4, period=2, seed=3)
        a.observe(np.zeros(4))
        a.observe(np.zeros(4))
        a.adapt(np.full(4, 8))
        assert not a.ready

    def test_deterministic_by_seed(self):
        def run(seed):
            a = WindowAdapter(64, 8, period=1, seed=seed)
            a.observe(np.arange(8, dtype=float))
            return a.adapt(np.full(8, 16, dtype=np.int64))

        assert np.array_equal(run(5), run(5))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0, "n_blocks": 2},
            {"n": 4, "n_blocks": 0},
            {"n": 4, "n_blocks": 2, "period": 0},
            {"n": 4, "n_blocks": 2, "fraction": 0.0},
            {"n": 4, "n_blocks": 2, "fraction": 0.9},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            WindowAdapter(**{"n": 4, "n_blocks": 2, **kwargs})

    def test_observe_shape_checked(self):
        a = WindowAdapter(16, 4, seed=0)
        with pytest.raises(ValueError):
            a.observe(np.zeros(5))


class TestDeviceIntegration:
    def test_device_adapts_windows_over_rounds(self):
        q = QuboMatrix.random(32, seed=1)
        adapter = WindowAdapter(32, 8, period=2, seed=4)
        dev = DeviceSimulator(
            q, 8, windows=np.full(8, 4, dtype=np.int64),
            local_steps=8, adapter=adapter,
        )
        rng = np.random.default_rng(0)
        for _ in range(6):
            dev.round(rng.integers(0, 2, (8, 32), dtype=np.uint8))
        assert adapter.adaptations > 0

    def test_block_count_mismatch_rejected(self):
        q = QuboMatrix.random(16, seed=2)
        adapter = WindowAdapter(16, 4, seed=0)
        with pytest.raises(ValueError, match="blocks"):
            DeviceSimulator(q, 8, adapter=adapter)


class TestSolverIntegration:
    def test_sync_solver_with_adaptation(self):
        q = QuboMatrix.random(48, seed=3)
        cfg = AbsConfig(
            blocks_per_gpu=8, local_steps=16, max_rounds=20,
            adapt_windows=True, adapt_period=2, seed=6,
        )
        res = AdaptiveBulkSearch(q, cfg).solve("sync")
        from repro.qubo import energy

        assert res.best_energy == energy(q, res.best_x)

    def test_adaptation_deterministic_by_seed(self):
        q = QuboMatrix.random(48, seed=3)
        cfg = AbsConfig(
            blocks_per_gpu=8, local_steps=16, max_rounds=15,
            adapt_windows=True, adapt_period=2, seed=9,
        )
        a = AdaptiveBulkSearch(q, cfg).solve("sync")
        b = AdaptiveBulkSearch(q, cfg).solve("sync")
        assert a.best_energy == b.best_energy
        assert np.array_equal(a.best_x, b.best_x)

    def test_process_mode_with_adaptation(self):
        q = QuboMatrix.random(32, seed=4)
        cfg = AbsConfig(
            blocks_per_gpu=4, local_steps=8, max_rounds=6, time_limit=30.0,
            adapt_windows=True, adapt_period=2, seed=10,
        )
        res = AdaptiveBulkSearch(q, cfg).solve("process")
        assert res.rounds >= 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AbsConfig(max_rounds=1, adapt_period=0)
        with pytest.raises(ValueError):
            AbsConfig(max_rounds=1, adapt_fraction=0.8)


class TestAdaptOverlapRegression:
    """``adapt`` must never pick a block as donor *and* loser."""

    def test_single_block_is_noop(self):
        a = WindowAdapter(64, 1, period=1, fraction=0.5, seed=0)
        a.observe(np.array([-5.0]))
        new = a.adapt(np.array([16], dtype=np.int64))
        assert np.array_equal(new, [16])
        assert a.adaptations == 0
        # The period still resets — the next round starts a fresh window.
        assert not a.ready

    def test_single_block_emits_nothing(self):
        sink = MemorySink()
        bus = TelemetryBus()
        bus.attach(sink)
        a = WindowAdapter(64, 1, period=1, fraction=0.5, seed=0, bus=bus)
        a.observe(np.array([-5.0]))
        a.adapt(np.array([16], dtype=np.int64))
        assert sink.records() == []
        assert a.adaptations == 0

    @pytest.mark.parametrize("n_blocks", [2, 3, 4, 5, 8])
    def test_winners_and_losers_disjoint_at_half_fraction(self, n_blocks):
        a = WindowAdapter(64, n_blocks, period=1, fraction=0.5, seed=7)
        energies = np.arange(n_blocks, dtype=float)
        a.observe(energies)
        windows = np.arange(1, n_blocks + 1, dtype=np.int64)
        new = a.adapt(windows)
        k = min(max(1, int(n_blocks * 0.5)), n_blocks // 2)
        # The k best-ranked blocks (lowest energy = lowest index here)
        # keep their windows untouched.
        assert np.array_equal(new[:k], windows[:k])
        assert a.adaptations == k

    def test_best_block_never_overwritten(self):
        # B=3, fraction=0.5 → k=1: rank 0 is a donor, rank 2 a loser;
        # the old code could overlap them at B=1 (covered above) — here
        # the winner's window must survive many adaptations.
        a = WindowAdapter(64, 3, period=1, fraction=0.5, seed=11)
        windows = np.array([4, 8, 16], dtype=np.int64)
        for _ in range(10):
            a.observe(np.array([-100.0, -50.0, 0.0]))
            windows = a.adapt(windows)
            assert windows[0] == 4


class TestObserveNonFiniteRegression:
    """A NaN round-best must not poison the ranking sums forever."""

    def test_nan_does_not_poison_sums(self):
        a = WindowAdapter(64, 4, period=2, seed=0)
        a.observe(np.array([1.0, np.nan, 3.0, 4.0]))
        a.observe(np.array([1.0, 2.0, 3.0, 4.0]))
        assert np.isfinite(a._sums).all()
        new = a.adapt(np.full(4, 8, dtype=np.int64))
        assert (new >= 1).all()

    def test_nonfinite_counted_and_ranked_as_loser(self):
        a = WindowAdapter(64, 4, period=1, fraction=0.25, seed=0)
        a.observe(np.array([-10.0, np.inf, -5.0, -7.0]))
        assert a.nonfinite_observations == 1
        # The inf block was substituted with the round's worst finite
        # energy (-5), not +inf — sums stay usable.
        assert a._sums[1] == -5.0

    def test_all_nonfinite_round_skipped(self):
        a = WindowAdapter(64, 3, period=1, seed=0)
        a.observe(np.full(3, np.nan))
        assert not a.ready
        assert a.nonfinite_observations == 3

    def test_nonfinite_counter_on_bus(self):
        """The adapter counts on its attribute only; the count reaches
        the bus through the solve's ``result.counters`` fold."""
        bus = TelemetryBus()
        a = WindowAdapter(64, 2, period=1, seed=0, bus=bus)
        a.observe(np.array([np.nan, 1.0]))
        assert a.nonfinite_observations == 1
        assert bus.counters.snapshot() == {}


@pytest.mark.diverse
class TestVariantController:
    def test_validation(self):
        with pytest.raises(ValueError):
            VariantController([])
        with pytest.raises(ValueError):
            VariantController(["a"], period=0)
        c = VariantController(["a", "b"])
        with pytest.raises(ValueError):
            c.observe(2, 1.0)

    def test_no_move_during_baseline_window(self):
        c = VariantController(["a", "a", "b", "b"], period=1)
        for g in range(4):
            c.observe(g, 0.0)
        assert c.end_sweep() is None  # first window only baselines

    def test_device_migrates_to_improving_variant(self):
        c = VariantController(["a", "a", "b", "b"], period=1)
        for g in range(4):
            c.observe(g, 10.0)
        c.end_sweep()
        # Variant "a" improves, "b" stagnates → one b-device joins a.
        for g, e in enumerate([5.0, 5.0, 10.0, 10.0]):
            c.observe(g, e)
        move = c.end_sweep()
        assert move is not None
        device, src, dst = move
        assert (src, dst) == ("b", "a")
        assert c.assignment == ["a", "a", "a", "b"] or device == 3
        assert c.reassignments == 1

    def test_never_extinguishes_a_variant(self):
        c = VariantController(["a", "a", "a", "b"], period=1)
        for g in range(4):
            c.observe(g, 10.0)
        c.end_sweep()
        for g, e in enumerate([5.0, 5.0, 5.0, 10.0]):
            c.observe(g, e)
        assert c.end_sweep() is None  # b has one device left
        assert c.assignment == ["a", "a", "a", "b"]

    def test_no_move_without_strict_difference(self):
        c = VariantController(["a", "a", "b", "b"], period=1)
        for _ in range(2):
            for g in range(4):
                c.observe(g, 7.0)
            c.end_sweep()
        assert c.reassignments == 0

    def test_nonfinite_observation_guarded(self):
        c = VariantController(["a", "b"], period=1)
        c.observe(0, np.nan)
        c.observe(1, np.inf)
        assert c.nonfinite_observations == 2
        assert c.end_sweep() is None

    def test_deterministic(self):
        def run():
            c = VariantController(["a", "b", "a", "b"], period=2)
            for sweep in range(8):
                for g in range(4):
                    c.observe(g, float((g + 1) * (8 - sweep)))
                c.end_sweep()
            return c.assignment, c.reassignments

        assert run() == run()

    def test_migration_event_and_counter(self):
        sink = MemorySink()
        bus = TelemetryBus()
        bus.attach(sink)
        c = VariantController(["a", "a", "b", "b"], period=1, bus=bus)
        for g in range(4):
            c.observe(g, 10.0)
        c.end_sweep()
        for g, e in enumerate([5.0, 5.0, 10.0, 10.0]):
            c.observe(g, e)
        c.end_sweep()
        events = [r for r in sink.records() if r["event"] == "adapt.variant"]
        assert len(events) == 1
        assert events[0]["from_variant"] == "b"
        assert events[0]["to_variant"] == "a"
        assert c.reassignments == 1
