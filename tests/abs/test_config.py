"""Tests for AbsConfig and window resolution."""

import numpy as np
import pytest

from repro.abs.config import AbsConfig, resolve_windows


class TestResolveWindows:
    def test_scalar_broadcast(self):
        w = resolve_windows(8, 4, 100)
        assert np.array_equal(w, [8, 8, 8, 8])

    def test_spread_is_ladder(self):
        w = resolve_windows("spread", 16, 1024)
        assert len(w) == 16
        assert len(set(w.tolist())) > 1
        assert w.min() >= 1 and w.max() <= 1024

    def test_spread_small_problem(self):
        w = resolve_windows("spread", 4, 8)
        assert (w <= 8).all() and (w >= 1).all()

    def test_explicit_sequence(self):
        w = resolve_windows([1, 2, 3], 3, 10)
        assert np.array_equal(w, [1, 2, 3])

    def test_sequence_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            resolve_windows([1, 2], 3, 10)

    def test_out_of_range_values(self):
        with pytest.raises(ValueError):
            resolve_windows(0, 2, 10)
        with pytest.raises(ValueError):
            resolve_windows([1, 11], 2, 10)

    def test_unknown_string(self):
        with pytest.raises(ValueError, match="spread"):
            resolve_windows("chaos", 2, 10)

    def test_invalid_block_count(self):
        with pytest.raises(ValueError):
            resolve_windows(4, 0, 10)


class TestAbsConfig:
    def test_defaults_with_stop_criterion(self):
        cfg = AbsConfig(max_rounds=10)
        assert cfg.total_blocks == cfg.n_gpus * cfg.blocks_per_gpu

    def test_requires_some_stop_criterion(self):
        with pytest.raises(ValueError, match="stopping"):
            AbsConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_gpus": 0, "max_rounds": 1},
            {"blocks_per_gpu": 0, "max_rounds": 1},
            {"local_steps": -1, "max_rounds": 1},
            {"pool_capacity": 0, "max_rounds": 1},
            {"time_limit": 0.0},
            {"max_rounds": 0},
            {"max_worker_restarts": -1, "max_rounds": 1},
            {"worker_stall_timeout": 0.0, "max_rounds": 1},
            {"worker_stall_timeout": -2.0, "max_rounds": 1},
            {"start_method": "thread", "max_rounds": 1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AbsConfig(**kwargs)

    def test_target_energy_alone_is_enough(self):
        AbsConfig(target_energy=-100)

    def test_supervision_defaults(self):
        cfg = AbsConfig(max_rounds=1)
        assert cfg.max_worker_restarts == 2
        assert cfg.worker_stall_timeout is None
        assert cfg.start_method is None

    @pytest.mark.parametrize("method", [None, "fork", "spawn", "forkserver"])
    def test_start_method_accepts_known_values(self, method):
        AbsConfig(max_rounds=1, start_method=method)


class TestRemovedChoices:
    def test_removed_names_are_rejected_with_remaining_choices(self, monkeypatch):
        """``queue`` and ``tcp`` are not transports and ``numba`` and
        ``graycode`` are not backends; asking for any of them fails and
        names what can be chosen."""
        from repro.abs.exchange import resolve_exchange

        with pytest.raises(ValueError, match=r"\('shm',\).*'queue'"):
            AbsConfig(exchange="queue")
        with pytest.raises(ValueError, match=r"\('shm',\).*'tcp'"):
            AbsConfig(exchange="tcp")
        with pytest.raises(
            ValueError,
            match=r"'numba' \(registered: bitplane, numpy\)",
        ):
            AbsConfig(backend="numba")
        with pytest.raises(
            ValueError,
            match=r"'graycode' \(registered: bitplane, numpy\)",
        ):
            AbsConfig(backend="graycode")
        monkeypatch.setenv("REPRO_EXCHANGE", "queue")
        with pytest.raises(ValueError, match=r"'queue' \(use one of: shm\)"):
            resolve_exchange(None)
        monkeypatch.setenv("REPRO_EXCHANGE", "tcp")
        with pytest.raises(ValueError, match=r"'tcp' \(use one of: shm\)"):
            resolve_exchange(None)

    def test_process_solve_refuses_removed_transport_from_env(self, monkeypatch):
        """``REPRO_EXCHANGE=tcp`` fails a process solve before any
        worker spawns, instead of being ignored."""
        from repro.abs import AdaptiveBulkSearch
        from repro.qubo import QuboMatrix

        monkeypatch.setenv("REPRO_EXCHANGE", "tcp")
        solver = AdaptiveBulkSearch(
            QuboMatrix.random(8, seed=0), AbsConfig(max_rounds=1)
        )
        with pytest.raises(ValueError, match=r"'tcp' \(use one of: shm\)"):
            solver.solve("process")
