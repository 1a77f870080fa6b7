"""Tests for the one-call convenience API."""

import dataclasses

import numpy as np
import pytest

from repro.abs import AbsConfig
from repro.api import IsingResult, solve, solve_ising
from repro.qubo import QuboMatrix, energy, qubo_to_ising
from repro.qubo.ising import bits_to_spins
from repro.search import solve_exact


class TestSolve:
    def test_reaches_optimum_with_target(self):
        q = QuboMatrix.random(14, seed=1)
        opt = solve_exact(q).energy
        res = solve(q, target_energy=opt, max_rounds=300, seed=2)
        assert res.best_energy == opt
        assert res.reached_target

    def test_default_budget_applied(self):
        q = QuboMatrix.random(32, seed=2)
        res = solve(q, max_rounds=5, seed=0)
        assert res.rounds == 5

    def test_accepts_plain_ndarray(self):
        W = QuboMatrix.random(16, seed=3).W
        res = solve(W, max_rounds=5, seed=0)
        assert res.best_energy == energy(W, res.best_x)

    def test_accepts_sparse(self):
        from repro.problems.maxcut import maxcut_to_sparse_qubo, random_graph

        g = random_graph(30, 90, seed=4)
        sq = maxcut_to_sparse_qubo(g)
        res = solve(sq, max_rounds=8, seed=1)
        assert res.best_energy == sq.energy(res.best_x)

    def test_adapt_flag_passes_through(self):
        q = QuboMatrix.random(32, seed=5)
        res = solve(q, max_rounds=10, adapt_windows=True, seed=1)
        assert res.best_energy == energy(q, res.best_x)

    def test_no_criterion_defaults_to_time_limit(self):
        q = QuboMatrix.random(16, seed=6)
        res = solve(q, seed=0)  # must not raise; 2 s default budget
        assert res.elapsed <= 10.0

    def test_every_config_field_is_a_keyword(self, monkeypatch):
        """``solve`` forwards each AbsConfig field under its own name."""
        import repro.api as api

        seen = {}

        class Recorder:
            def __init__(self, weights, config, *, telemetry):
                seen["config"] = config

            def solve(self, mode):
                return mode

        monkeypatch.setattr(api, "AdaptiveBulkSearch", Recorder)
        want = AbsConfig(
            max_rounds=3, seed=9, blocks_per_gpu=4, adapt_windows=True,
            backend="numpy", exchange="shm", lockstep=True, variants="fleet",
        )
        kwargs = {f.name: getattr(want, f.name) for f in dataclasses.fields(want)}
        assert solve(np.zeros((4, 4)), mode="process", **kwargs) == "process"
        assert seen["config"] == want

    def test_misspelled_field_rejected(self):
        q = QuboMatrix.random(8, seed=6)
        with pytest.raises(TypeError, match="max_round"):
            solve(q, max_round=3)


class TestSolveIsing:
    def test_matches_qubo_solution(self):
        q = QuboMatrix.random(12, seed=7)
        model = qubo_to_ising(q)
        opt = solve_exact(q).energy
        res = solve_ising(model, target_energy=opt, max_rounds=300, seed=3)
        assert isinstance(res, IsingResult)
        assert res.hamiltonian == pytest.approx(opt)
        assert np.isin(res.spins, (-1, 1)).all()

    def test_hamiltonian_consistent_with_spins(self):
        q = QuboMatrix.random(10, seed=8)
        model = qubo_to_ising(q)
        res = solve_ising(model, max_rounds=20, seed=4)
        assert model.energy(res.spins) == pytest.approx(res.hamiltonian)

    def test_spins_map_back_to_bits(self):
        q = QuboMatrix.random(10, seed=9)
        model = qubo_to_ising(q)
        res = solve_ising(model, max_rounds=10, seed=5)
        assert np.array_equal(
            bits_to_spins(res.qubo_result.best_x), res.spins
        )
