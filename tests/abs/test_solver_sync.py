"""Tests for the sync-mode ABS solver."""

import re

import numpy as np
import pytest

from repro.abs import AbsConfig, AdaptiveBulkSearch, DeviceSimulator
from repro.qubo import QuboMatrix, energy
from repro.search import solve_exact


@pytest.fixture
def small():
    return QuboMatrix.random(16, seed=808)


class TestSolveSync:
    def test_reaches_exact_optimum(self, small):
        opt = solve_exact(small).energy
        cfg = AbsConfig(
            n_gpus=1,
            blocks_per_gpu=16,
            local_steps=16,
            pool_capacity=16,
            target_energy=opt,
            max_rounds=200,
            seed=7,
        )
        res = AdaptiveBulkSearch(small, cfg).solve("sync")
        assert res.reached_target
        assert res.best_energy == opt
        assert res.time_to_target is not None

    def test_result_self_consistent(self, small):
        cfg = AbsConfig(max_rounds=5, blocks_per_gpu=8, seed=1)
        res = AdaptiveBulkSearch(small, cfg).solve("sync")
        assert res.best_energy == energy(small, res.best_x)
        assert res.evaluated > 0
        assert res.flips > 0
        assert res.search_rate > 0
        assert res.rounds == 5
        assert res.n_gpus == 1

    def test_deterministic_given_seed(self, small):
        cfg = AbsConfig(max_rounds=8, blocks_per_gpu=8, seed=99)
        a = AdaptiveBulkSearch(small, cfg).solve("sync")
        b = AdaptiveBulkSearch(small, cfg).solve("sync")
        assert a.best_energy == b.best_energy
        assert np.array_equal(a.best_x, b.best_x)
        assert a.evaluated == b.evaluated

    def test_different_seeds_explore_differently(self, small):
        res = [
            AdaptiveBulkSearch(
                small, AbsConfig(max_rounds=2, blocks_per_gpu=4, seed=s)
            ).solve("sync")
            for s in (1, 2, 3)
        ]
        evaluated = {r.evaluated for r in res}
        assert len(evaluated) > 1  # Hamming distances differ by seed

    def test_max_rounds_stops(self, small):
        cfg = AbsConfig(max_rounds=3, blocks_per_gpu=4, seed=0)
        res = AdaptiveBulkSearch(small, cfg).solve("sync")
        assert res.rounds == 3
        assert not res.reached_target

    def test_time_limit_stops(self, small):
        cfg = AbsConfig(time_limit=0.2, blocks_per_gpu=4, seed=0)
        res = AdaptiveBulkSearch(small, cfg).solve("sync")
        assert res.elapsed < 5.0

    def test_history_is_monotone_nonincreasing(self, small):
        cfg = AbsConfig(max_rounds=20, blocks_per_gpu=8, seed=3)
        res = AdaptiveBulkSearch(small, cfg).solve("sync")
        energies = [e for _, e in res.history]
        assert energies
        assert all(energies[i + 1] <= energies[i] for i in range(len(energies) - 1))

    def test_multi_gpu_sync(self, small):
        cfg = AbsConfig(n_gpus=3, blocks_per_gpu=4, max_rounds=9, seed=5)
        res = AdaptiveBulkSearch(small, cfg).solve("sync")
        assert res.n_gpus == 3
        assert res.rounds == 9
        assert res.best_energy == energy(small, res.best_x)

    def test_unknown_mode_rejected(self, small):
        with pytest.raises(ValueError, match="mode"):
            AdaptiveBulkSearch(small, AbsConfig(max_rounds=1)).solve("quantum")

    def test_empty_problem_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveBulkSearch(QuboMatrix.zeros(0), AbsConfig(max_rounds=1))

    def test_summary_string(self, small):
        cfg = AbsConfig(max_rounds=2, blocks_per_gpu=4, seed=0)
        res = AdaptiveBulkSearch(small, cfg).solve("sync")
        s = res.summary()
        assert "best=" in s and "rounds=" in s

    def test_ga_improves_over_time(self):
        """Longer runs should not be worse (best is monotone)."""
        q = QuboMatrix.random(48, seed=4242)
        short = AdaptiveBulkSearch(
            q, AbsConfig(max_rounds=2, blocks_per_gpu=8, seed=11)
        ).solve("sync")
        long = AdaptiveBulkSearch(
            q, AbsConfig(max_rounds=30, blocks_per_gpu=8, seed=11)
        ).solve("sync")
        assert long.best_energy <= short.best_energy


class TestAnswerOracle:
    def test_under_reported_energy_raises(self, small, monkeypatch):
        """A device that under-reports one block's energy is caught:
        the solver recomputes the reported answer's energy from
        scratch instead of returning the wrong value."""
        real = DeviceSimulator.round

        def lying_round(self, targets):
            energies, xs = real(self, targets)
            if self.device_id == 1 and self.rounds == 2:
                energies = energies.copy()
                energies[0] -= 10**9
            return energies, xs

        monkeypatch.setattr(DeviceSimulator, "round", lying_round)
        cfg = AbsConfig(n_gpus=2, max_rounds=6, blocks_per_gpu=4, seed=3)
        with pytest.raises(RuntimeError, match="recomputed from scratch") as err:
            AdaptiveBulkSearch(small, cfg).solve("sync")
        found = re.search(r"energy (-?\d+) but best_x has energy (-?\d+)", str(err.value))
        reported, actual = map(int, found.groups())
        assert actual - reported == 10**9
