"""Tests for the device-side §3.2 loop."""

import numpy as np
import pytest

from repro.abs.adaptive import WindowAdapter
from repro.abs.device import DevicePlan, DeviceSimulator
from repro.abs.exchange import ENGINE_COUNTER_KEYS
from repro.qubo import QuboMatrix, energy


@pytest.fixture
def problem():
    return QuboMatrix.random(24, seed=404)


def targets_for(problem, B, seed=0):
    return np.random.default_rng(seed).integers(
        0, 2, (B, problem.n), dtype=np.uint8
    )


class TestRound:
    def test_returns_batched_energies_and_solutions(self, problem):
        dev = DeviceSimulator(problem, 5, local_steps=10)
        energies, xs = dev.round(targets_for(problem, 5))
        assert energies.shape == (5,)
        assert xs.shape == (5, problem.n)
        assert xs.dtype == np.uint8
        for e, x in zip(energies, xs):
            assert e == energy(problem, x)

    def test_round_returns_copies(self, problem):
        """Step-5 output must not alias engine state across rounds."""
        dev = DeviceSimulator(problem, 3, local_steps=4)
        energies, xs = dev.round(targets_for(problem, 3))
        snap_e, snap_x = energies.copy(), xs.copy()
        dev.round(targets_for(problem, 3, seed=1))
        assert (energies == snap_e).all()
        assert (xs == snap_x).all()

    def test_round_counter(self, problem):
        dev = DeviceSimulator(problem, 2, local_steps=4)
        dev.round(targets_for(problem, 2))
        dev.round(targets_for(problem, 2, seed=1))
        assert dev.rounds == 2

    def test_walk_position_persists_across_rounds(self, problem):
        """Figure 4: iteration i starts from iteration i−1's end."""
        dev = DeviceSimulator(problem, 1, local_steps=7)
        dev.round(targets_for(problem, 1))
        flips_before = dev.engine.counters.flips
        same_target = dev.engine.X[0:1].copy()
        dev.round(same_target)
        # Straight search from the current position to itself is free.
        assert dev.engine.counters.straight_flips == flips_before - 7

    def test_best_reset_between_rounds(self, problem):
        """Step 3: each round reports bests found *that* round."""
        dev = DeviceSimulator(problem, 1, local_steps=3)
        dev.round(targets_for(problem, 1))
        # Force the walk into a deliberately bad corner for round 2.
        worst_target = np.ones((1, problem.n), dtype=np.uint8)
        energies, xs = dev.round(worst_target)
        # Energies are still self-consistent even if worse than round 1.
        assert energies[0] == energy(problem, xs[0])

    def test_evaluated_monotone(self, problem):
        dev = DeviceSimulator(problem, 3, local_steps=5)
        dev.round(targets_for(problem, 3))
        e1 = dev.evaluated
        dev.round(targets_for(problem, 3, seed=2))
        assert dev.evaluated > e1

    def test_zero_local_steps_is_straight_only(self, problem):
        dev = DeviceSimulator(problem, 2, local_steps=0)
        t = targets_for(problem, 2)
        dev.round(t)
        assert (dev.engine.X == t).all()

    def test_invalid_local_steps(self, problem):
        with pytest.raises(ValueError):
            DeviceSimulator(problem, 2, local_steps=-1)

    def test_scan_neighbors_improves_or_ties(self, problem):
        t = targets_for(problem, 4)
        dev_scan = DeviceSimulator(problem, 4, local_steps=0, scan_neighbors=True)
        dev_plain = DeviceSimulator(problem, 4, local_steps=0, scan_neighbors=False)
        e_scan, _ = dev_scan.round(t)
        e_plain, _ = dev_plain.round(t)
        assert (e_scan <= e_plain).all()


class TestTotals:
    def test_keys_are_the_wire_counter_keys(self, problem):
        """``totals()`` is the record the shm meta slots and the tcp
        RESULT counter vector carry: same keys, same order."""
        dev = DeviceSimulator(
            problem, 4, windows=4, local_steps=4, tabu_steps=8,
            adapter=WindowAdapter(problem.n, 4, period=1, seed=3),
        )
        for seed in range(3):
            dev.round(targets_for(problem, 4, seed=seed))
        totals = dev.totals()
        assert tuple(totals) == ENGINE_COUNTER_KEYS
        assert totals["engine.evaluated"] == dev.evaluated
        assert totals["variant.tabu_steps"] == dev.tabu_steps_done > 0
        assert totals["adapt.reassignments"] == dev.adapter.adaptations


class TestPlan:
    def test_from_plan_matches_keyword_construction(self, problem):
        windows = np.array([2, 3, 5], dtype=np.int64)
        plan = DevicePlan(windows, 6, False, tabu_steps=4, tabu_tenure=3)
        planned = DeviceSimulator.from_plan(problem, 3, plan)
        direct = DeviceSimulator(
            problem, 3, windows=windows, local_steps=6, scan_neighbors=False,
            tabu_steps=4, tabu_tenure=3,
        )
        t = targets_for(problem, 3)
        e_plan, x_plan = planned.round(t)
        e_direct, x_direct = direct.round(t)
        assert (e_plan == e_direct).all() and (x_plan == x_direct).all()
        assert planned.totals() == direct.totals()

    def test_apply_keeps_walk_state(self, problem):
        dev = DeviceSimulator(problem, 2, windows=4, local_steps=4)
        dev.round(targets_for(problem, 2))
        X, counts = dev.engine.X.copy(), dev.totals()
        dev.apply(DevicePlan(np.array([1, 7]), 9, False, tabu_steps=2))
        assert (dev.engine.X == X).all() and dev.totals() == counts
        assert dev.engine.windows.tolist() == [1, 7]
        assert (dev.local_steps, dev.scan_neighbors, dev.tabu_steps) == (9, False, 2)
