"""Failure injection against the persistent warm fleet.

The satellite cases from the ISSUE: a job cancelled mid-round, and a
worker dying while a queued job is in flight — the supervisor's
replacement must re-arm with the *current* job frame, never its dead
predecessor's.
"""

import os

import pytest

import repro.abs.fleet as fleet_mod
from repro.abs import AbsConfig, AdaptiveBulkSearch
from repro.qubo import QuboMatrix, energy
from repro.service import SolverService
from repro.telemetry import MemorySink, TelemetryBus

pytestmark = [pytest.mark.service, pytest.mark.process, pytest.mark.timeout(120)]


@pytest.fixture
def problem():
    return QuboMatrix.random(24, seed=321)


def lockstep_cfg(seed, **overrides):
    kwargs = dict(
        n_gpus=1,
        blocks_per_gpu=6,
        local_steps=8,
        pool_capacity=16,
        max_rounds=8,
        seed=seed,
        exchange="shm",
        lockstep=True,
    )
    kwargs.update(overrides)
    return AbsConfig(**kwargs)


def fingerprint(res):
    return (res.best_energy, res.best_x.tobytes(), res.rounds, res.sweeps)


class TestCancelMidRound:
    def test_cancel_running_job_returns_partial_result(self, problem):
        # An effectively unbounded job; cancellation is the only way out.
        cfg = lockstep_cfg(seed=1, max_rounds=2_000_000)
        with SolverService() as svc:
            jid = svc.submit(problem, cfg)
            while True:
                snap = svc.status(jid)
                assert snap["status"] in ("queued", "running")
                if snap.get("rounds") or snap["status"] == "running":
                    break
            assert svc.cancel(jid)
            partial = svc.result(jid, timeout=60)
            assert svc.status(jid)["status"] == "cancelled"
            assert partial.rounds < 2_000_000
            assert partial.best_energy == energy(problem, partial.best_x)
            # The truncated result must not enter the result cache: a
            # later identical submission would get it as a DONE hit.
            assert not svc._result_cache

            # The fleet must come back clean: the next job is still
            # bit-identical to its cold one-shot.
            follow_cfg = lockstep_cfg(seed=9)
            followed = svc.result(svc.submit(problem, follow_cfg), timeout=120)
        one_shot = AdaptiveBulkSearch(problem, follow_cfg).solve("process")
        assert fingerprint(followed) == fingerprint(one_shot)


class TestWorkerDeathWithJobInFlight:
    def test_replacement_rearms_with_current_frame(self, problem, monkeypatch):
        """First incarnation consumes its job frame and dies *before
        acking* — the frame dies with it.  The supervisor's replacement
        must be handed the current job at spawn and finish it, and the
        result must still match the cold one-shot bit for bit."""
        real = fleet_mod._fleet_worker_main

        def frame_eating_worker(worker_id, incarnation, control, *rest):
            if incarnation == 0:
                control.get(timeout=30)  # swallow the job frame
                os._exit(11)
            return real(worker_id, incarnation, control, *rest)

        monkeypatch.setattr(fleet_mod, "_fleet_worker_main", frame_eating_worker)
        cfg = lockstep_cfg(seed=42)
        with SolverService() as svc:
            served = svc.result(svc.submit(problem, cfg), timeout=120)
        one_shot = AdaptiveBulkSearch(problem, cfg).solve("process")
        assert served.workers_restarted == 1
        assert fingerprint(served) == fingerprint(one_shot)

    def test_worker_killed_arming_a_new_size(self, problem, monkeypatch):
        """The first incarnation runs the n=24 job, then dies on reading
        the n=40 frame, before acking it.  The replacement is spawned
        mid-arm with the current frame and attaches the new job's
        segments: no second fleet, and the answer is the one-shot's."""
        real = fleet_mod._fleet_worker_main

        class DieOnSecondJob:
            def __init__(self, control):
                self._control = control

            def get(self, timeout=None):
                frame = self._control.get(timeout=timeout)
                if isinstance(frame, fleet_mod.WorkerJob) and frame.job_seq > 1:
                    os._exit(11)
                return frame

            def empty(self):
                return self._control.empty()

        def dies_arming_second_job(worker_id, incarnation, control, *rest):
            if incarnation == 0:
                control = DieOnSecondJob(control)
            return real(worker_id, incarnation, control, *rest)

        monkeypatch.setattr(fleet_mod, "_fleet_worker_main", dies_arming_second_job)
        large = QuboMatrix.random(40, seed=5)
        cfg_a, cfg_b = lockstep_cfg(seed=1), lockstep_cfg(seed=2)
        bus = TelemetryBus([MemorySink()])
        with SolverService(telemetry=bus) as svc:
            svc.result(svc.submit(problem, cfg_a), timeout=120)
            served = svc.result(svc.submit(large, cfg_b), timeout=120)
        monkeypatch.setattr(fleet_mod, "_fleet_worker_main", real)
        one_shot = AdaptiveBulkSearch(large, cfg_b).solve("process")
        assert served.workers_restarted == 1
        assert fingerprint(served) == fingerprint(one_shot)
        assert bus.counters.snapshot()["service.fleet_spawns"] == 1

    def test_worker_killed_between_jobs(self, problem):
        """Kill the idle worker after job A; job B's arm handshake must
        detect the death, restart, and arm the replacement with job B
        (a predecessor-frame re-arm would ack job A's sequence and time
        the handshake out)."""
        cfg_a = lockstep_cfg(seed=1)
        cfg_b = lockstep_cfg(seed=2)
        with SolverService() as svc:
            svc.result(svc.submit(problem, cfg_a), timeout=120)
            for proc in svc._fleet.supervisor.all_processes:
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=10)
            served = svc.result(svc.submit(problem, cfg_b), timeout=120)
        one_shot = AdaptiveBulkSearch(problem, cfg_b).solve("process")
        assert served.workers_restarted == 1
        assert fingerprint(served) == fingerprint(one_shot)


class TestFleetRebuild:
    def test_fleet_failure_marks_job_failed_and_rebuilds(self, problem, monkeypatch):
        """Every incarnation dying exhausts the restart budget: the job
        fails, the broken fleet is dropped, and the next job gets a
        fresh fleet (patch removed) and still matches its one-shot."""
        real = fleet_mod._fleet_worker_main
        sink = MemorySink()
        bus = TelemetryBus([sink])

        def suicidal_worker(*args, **kwargs):
            os._exit(11)

        cfg = lockstep_cfg(seed=5, max_worker_restarts=1)
        with SolverService(telemetry=bus) as svc:
            monkeypatch.setattr(fleet_mod, "_fleet_worker_main", suicidal_worker)
            doomed = svc.submit(problem, cfg)
            with pytest.raises(RuntimeError):
                svc.result(doomed, timeout=120)
            assert svc.status(doomed)["status"] == "failed"
            assert svc._fleet is None  # torn down, not left half-dead

            monkeypatch.setattr(fleet_mod, "_fleet_worker_main", real)
            healed = svc.result(svc.submit(problem, cfg), timeout=120)
        one_shot = AdaptiveBulkSearch(problem, cfg).solve("process")
        assert fingerprint(healed) == fingerprint(one_shot)
        assert bus.counters.snapshot()["service.fleet_spawns"] == 2
