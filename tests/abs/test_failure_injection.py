"""Failure-injection tests for the multi-process solver."""

import multiprocessing
import os
import time

import numpy as np
import pytest

import repro.abs.fleet as fleet_mod
from repro.abs import AbsConfig, AdaptiveBulkSearch
from repro.abs.buffers import SharedWeights
from repro.qubo import QuboMatrix, energy
from repro.telemetry import MemorySink, TelemetryBus

pytestmark = [pytest.mark.process, pytest.mark.timeout(60)]


class TestWorkerDeath:
    def test_all_workers_dying_raises(self, monkeypatch):
        """If every device process exits without producing results, the
        host must fail loudly instead of spinning forever.

        ``max_worker_restarts=0`` keeps the test fast; the default
        budget is covered below."""

        def _suicidal_worker(*args, **kwargs):
            raise SystemExit(1)

        monkeypatch.setattr(fleet_mod, "_fleet_worker_main", _suicidal_worker)
        q = QuboMatrix.random(16, seed=0)
        cfg = AbsConfig(
            blocks_per_gpu=4,
            local_steps=4,
            max_rounds=5,
            max_worker_restarts=0,
            seed=1,
        )
        with pytest.raises(RuntimeError, match="workers died"):
            AdaptiveBulkSearch(q, cfg).solve("process")

    def test_restart_budget_spent_before_giving_up(self, monkeypatch):
        """With a restart budget, a persistently crashing worker is
        retried that many times before the run fails."""

        def _suicidal_worker(*args, **kwargs):
            raise SystemExit(1)

        monkeypatch.setattr(fleet_mod, "_fleet_worker_main", _suicidal_worker)
        q = QuboMatrix.random(16, seed=0)
        cfg = AbsConfig(
            blocks_per_gpu=4,
            local_steps=4,
            max_rounds=5,
            max_worker_restarts=2,
            seed=1,
        )
        with pytest.raises(RuntimeError, match="after 2 restarts"):
            AdaptiveBulkSearch(q, cfg).solve("process")

    def test_shared_memory_cleaned_after_worker_death(self, monkeypatch):
        import glob

        def _suicidal_worker(*args, **kwargs):
            raise SystemExit(1)

        monkeypatch.setattr(fleet_mod, "_fleet_worker_main", _suicidal_worker)
        before = set(glob.glob("/dev/shm/*"))
        q = QuboMatrix.random(16, seed=0)
        cfg = AbsConfig(
            blocks_per_gpu=4,
            local_steps=4,
            max_rounds=5,
            max_worker_restarts=0,
            seed=1,
        )
        with pytest.raises(RuntimeError):
            AdaptiveBulkSearch(q, cfg).solve("process")
        after = set(glob.glob("/dev/shm/*"))
        assert after <= before


class _SetOnEvent:
    def __init__(self, name, evt):
        self.name = name
        self.evt = evt

    def handle(self, event):
        if event.name == self.name:
            self.evt.set()


class TestFaultRecovery:
    """The supervisor under injected faults at the fleet level: stall
    or kill a worker and a fresh incarnation finishes the solve with a
    valid result."""

    def test_stalled_worker_restarted(self, monkeypatch):
        """A worker that never acks or publishes (silent past
        ``worker_stall_timeout``) must be declared stalled and
        replaced, not waited on forever."""
        ctx = multiprocessing.get_context("fork")
        restarted = ctx.Event()
        real_worker = fleet_mod._fleet_worker_main

        def stalling_worker(worker_id, incarnation, *rest):
            if worker_id == 0 and incarnation == 0:
                time.sleep(300)  # silent far past the stall threshold
                os._exit(13)
            restarted.wait()
            real_worker(worker_id, incarnation, *rest)

        monkeypatch.setattr(fleet_mod, "_fleet_worker_main", stalling_worker)
        q = QuboMatrix.random(24, seed=321)
        sink = MemorySink()
        bus = TelemetryBus([sink, _SetOnEvent("supervisor.restart", restarted)])
        cfg = AbsConfig(
            n_gpus=1,
            blocks_per_gpu=4,
            local_steps=8,
            max_rounds=3,
            max_worker_restarts=1,
            worker_stall_timeout=1.0,
            time_limit=60.0,
            seed=5,
        )
        res = AdaptiveBulkSearch(q, cfg, telemetry=bus).solve("process")
        assert res.workers_restarted == 1
        assert res.best_energy == energy(q, res.best_x)
        assert len(sink.named("supervisor.stall")) >= 1
        restart_events = sink.named("supervisor.restart")
        assert restart_events and restart_events[0].fields["incarnation"] == 1

    @pytest.mark.timeout(120)
    def test_acceptance_n1024_four_workers_one_kill(self, monkeypatch):
        """n=1024 over four workers, surviving one injected worker kill
        with a valid final result."""
        ctx = multiprocessing.get_context("fork")
        restarted = ctx.Event()
        real_worker = fleet_mod._fleet_worker_main

        def flaky_worker(worker_id, incarnation, *rest):
            if worker_id == 2 and incarnation == 0:
                from repro.abs.exchange import ShmWorkerEndpoint

                exchange_ref, stop_evt = rest[1], rest[2]
                ShmWorkerEndpoint(  # attach the rings first, then die
                    exchange_ref, worker_id=2, incarnation=0, stop_evt=stop_evt
                )
                os._exit(11)
            if worker_id == 2:
                restarted.wait()
            real_worker(worker_id, incarnation, *rest)

        monkeypatch.setattr(fleet_mod, "_fleet_worker_main", flaky_worker)
        q = QuboMatrix.random(1024, seed=10)
        sink = MemorySink()
        bus = TelemetryBus([sink, _SetOnEvent("supervisor.restart", restarted)])
        cfg = AbsConfig(
            n_gpus=4,
            blocks_per_gpu=4,
            local_steps=8,
            max_rounds=8,
            max_worker_restarts=1,
            time_limit=110.0,
            seed=2020,
        )
        res = AdaptiveBulkSearch(q, cfg, telemetry=bus).solve("process")
        assert res.workers_restarted == 1
        assert res.workers_lost == 0
        assert res.best_x.shape == (1024,)
        assert res.best_energy == energy(q, res.best_x)  # no invalid result
        assert res.best_energy < 0
        assert sink.named("exchange.open")[0].fields["workers"] == 4


class TestSharedWeightsFailures:
    def test_attach_to_missing_segment(self):
        with pytest.raises(FileNotFoundError):
            SharedWeights.attach(("nonexistent-segment-xyz", (2, 2), "int64"))

    def test_attach_after_unlink(self):
        owner = SharedWeights.create(np.zeros((2, 2), dtype=np.int64))
        desc = owner.descriptor
        owner.unlink()
        with pytest.raises(FileNotFoundError):
            SharedWeights.attach(desc)


class TestBadInputsToSolver:
    def test_asymmetric_weights_rejected_at_construction(self):
        W = np.array([[0, 1], [2, 0]])
        with pytest.raises(ValueError):
            AdaptiveBulkSearch(QuboMatrix(W), AbsConfig(max_rounds=1))

    def test_float_ndarray_rejected(self):
        with pytest.raises(TypeError):
            AdaptiveBulkSearch(np.eye(4), AbsConfig(max_rounds=1))
