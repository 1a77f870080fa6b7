"""Tests for the multi-process ABS solver (the multi-GPU simulation).

The worker-death scenarios are deterministic without wall-clock races:
the surviving (or restarted) worker is *gated* on a supervision
telemetry event — it only starts searching once the host has provably
detected and handled the failure, so every assertion about
``workers_lost`` / ``workers_restarted`` is exact.
"""

import glob
import multiprocessing
import os
import time

import numpy as np
import pytest

import repro.abs.fleet as fleet_mod
from repro.abs import AbsConfig, AdaptiveBulkSearch
from repro.qubo import QuboMatrix, energy
from repro.search import solve_exact
from repro.telemetry import MemorySink, TelemetryBus

pytestmark = [pytest.mark.process, pytest.mark.timeout(60)]


@pytest.fixture
def small():
    return QuboMatrix.random(16, seed=909)


class _SetOnEvent:
    """Telemetry sink that sets a multiprocessing event on a given name."""

    def __init__(self, name, evt):
        self.name = name
        self.evt = evt

    def handle(self, event):
        if event.name == self.name:
            self.evt.set()


class TestSolveProcess:
    def test_reaches_exact_optimum(self, small):
        opt = solve_exact(small).energy
        cfg = AbsConfig(
            n_gpus=2,
            blocks_per_gpu=8,
            local_steps=16,
            pool_capacity=16,
            target_energy=opt,
            time_limit=30.0,
            seed=13,
        )
        res = AdaptiveBulkSearch(small, cfg).solve("process")
        assert res.reached_target
        assert res.best_energy == opt

    def test_result_self_consistent(self, small):
        cfg = AbsConfig(max_rounds=6, blocks_per_gpu=4, time_limit=30.0, seed=1)
        res = AdaptiveBulkSearch(small, cfg).solve("process")
        assert res.best_energy == energy(small, res.best_x)
        assert res.evaluated > 0
        assert res.rounds >= 1

    def test_time_limit_honoured(self, small):
        cfg = AbsConfig(time_limit=0.5, blocks_per_gpu=4, seed=2)
        res = AdaptiveBulkSearch(small, cfg).solve("process")
        assert res.elapsed < 10.0

    def test_multi_worker_counters_aggregate(self, small):
        cfg = AbsConfig(
            n_gpus=2, blocks_per_gpu=4, max_rounds=8, time_limit=30.0, seed=3
        )
        res = AdaptiveBulkSearch(small, cfg).solve("process")
        assert res.n_gpus == 2
        assert res.evaluated > 0
        assert res.flips > 0

    def test_no_shared_memory_leak(self, small):
        before = set(glob.glob("/dev/shm/*"))
        cfg = AbsConfig(max_rounds=4, blocks_per_gpu=4, time_limit=30.0, seed=4)
        AdaptiveBulkSearch(small, cfg).solve("process")
        after = set(glob.glob("/dev/shm/*"))
        assert after <= before  # nothing new left behind

    def test_healthy_run_reports_no_restarts(self, small):
        cfg = AbsConfig(max_rounds=4, blocks_per_gpu=4, time_limit=30.0, seed=6)
        res = AdaptiveBulkSearch(small, cfg).solve("process")
        assert res.workers_restarted == 0
        assert res.workers_lost == 0
        assert res.counters["supervisor.restarts"] == 0
        assert res.counters["supervisor.workers_lost"] == 0

    def test_one_shot_emits_no_service_counters(self, small):
        """A one-shot solve runs on a fleet too, but the ``service.*``
        counters belong to the service: a traced one-shot has none."""
        bus = TelemetryBus([MemorySink()])
        cfg = AbsConfig(max_rounds=4, blocks_per_gpu=4, time_limit=30.0, seed=6)
        AdaptiveBulkSearch(small, cfg, telemetry=bus).solve("process")
        counts = bus.counters.snapshot()
        assert counts["host.rounds"] >= 1  # the bus really was live
        assert [k for k in counts if k.startswith("service.")] == []


class TestPhaseClocks:
    def test_worker_startup_lands_in_setup_not_search(self, small, monkeypatch):
        """Worker spawn and start-up run before the arm acknowledgement,
        so a worker that takes 0.5 s to come up adds 0.5 s to
        ``setup_ns`` and nothing to ``search_ns`` or ``elapsed``."""
        real_worker = fleet_mod._fleet_worker_main

        def slow_worker(*args):
            time.sleep(0.5)
            real_worker(*args)

        monkeypatch.setattr(fleet_mod, "_fleet_worker_main", slow_worker)
        cfg = AbsConfig(max_rounds=3, blocks_per_gpu=4, time_limit=30.0, seed=5)
        res = AdaptiveBulkSearch(small, cfg).solve("process")
        assert res.rounds == 3
        assert res.setup_ns >= 500_000_000
        assert res.search_ns < 500_000_000
        assert res.elapsed < 0.5


class TestStartMethod:
    def test_spawn_start_method_roundtrip(self, small):
        """Worker arguments stay picklable, so ``spawn`` must work."""
        cfg = AbsConfig(
            blocks_per_gpu=4,
            local_steps=8,
            max_rounds=2,
            time_limit=30.0,
            seed=8,
            start_method="spawn",
        )
        res = AdaptiveBulkSearch(small, cfg).solve("process")
        assert res.best_energy == energy(small, res.best_x)
        assert res.rounds >= 1

    def test_unknown_start_method_rejected_by_config(self):
        with pytest.raises(ValueError, match="start_method"):
            AbsConfig(max_rounds=1, start_method="thread")


def _exit_at_once(*args):
    """A worker entry that dies before reading its job frame."""
    raise SystemExit(3)


class TestWorkersThatNeverStart:
    """When every worker dies before finishing, the error names their
    exit codes, and under ``spawn`` the likely cause."""

    @staticmethod
    def _cfg(start_method, restarts):
        return AbsConfig(
            blocks_per_gpu=2,
            local_steps=4,
            max_rounds=2,
            max_worker_restarts=restarts,
            start_method=start_method,
            seed=1,
        )

    def test_exit_codes_named(self, small, monkeypatch):
        monkeypatch.setattr(fleet_mod, "_fleet_worker_main", _exit_at_once)
        with pytest.raises(RuntimeError) as err:
            AdaptiveBulkSearch(small, self._cfg("fork", 1)).solve("process")
        message = str(err.value)
        assert "after 1 restarts; exit codes [3, 3]" in message
        assert "__main__" not in message  # fork never re-imports main

    def test_spawn_names_the_main_guard(self, small, monkeypatch):
        monkeypatch.setattr(fleet_mod, "_fleet_worker_main", _exit_at_once)
        with pytest.raises(RuntimeError) as err:
            AdaptiveBulkSearch(small, self._cfg("spawn", 0)).solve("process")
        message = str(err.value)
        assert "exit codes [3]" in message
        assert 'if __name__ == "__main__":' in message

    def test_script_without_main_guard(self, tmp_path):
        """The real cause: a spawn-started fleet driven from a script
        with no ``__main__`` guard.  Each worker re-runs the script and
        dies in multiprocessing's bootstrap check."""
        import subprocess
        import sys

        script = tmp_path / "unguarded.py"
        script.write_text(
            "from repro.abs import AbsConfig, AdaptiveBulkSearch\n"
            "from repro.qubo import QuboMatrix\n"
            "cfg = AbsConfig(blocks_per_gpu=2, local_steps=4, max_rounds=2,\n"
            "                max_worker_restarts=0, start_method='spawn', seed=1)\n"
            "AdaptiveBulkSearch(QuboMatrix.random(8, seed=0), cfg)"
            ".solve('process')\n"
        )
        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(os.path.dirname(fleet_mod.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, timeout=50, env=env,
        )
        assert proc.returncode != 0
        last = proc.stderr.strip().splitlines()[-1]
        assert "exit codes [1]" in last
        assert 'if __name__ == "__main__":' in last


class TestWorkerSupervision:
    """Kill workers mid-solve; the run must degrade or recover."""

    def test_one_dead_worker_solve_completes_degraded(self, small, monkeypatch):
        """One of two workers dies before producing anything: the host
        marks it lost (budget 0) and the survivor finishes the solve —
        no hang, and nothing is ever queued to the dead worker."""
        ctx = multiprocessing.get_context("fork")
        degraded = ctx.Event()
        real_worker = fleet_mod._fleet_worker_main

        def flaky_worker(worker_id, incarnation, *rest):
            if worker_id == 1:
                os._exit(17)
            degraded.wait()  # survivor starts once the loss is handled
            real_worker(worker_id, incarnation, *rest)

        monkeypatch.setattr(fleet_mod, "_fleet_worker_main", flaky_worker)
        sink = MemorySink()
        bus = TelemetryBus([sink, _SetOnEvent("supervisor.degrade", degraded)])
        cfg = AbsConfig(
            n_gpus=2,
            blocks_per_gpu=4,
            local_steps=8,
            max_rounds=6,
            max_worker_restarts=0,
            time_limit=60.0,
            seed=21,
        )
        res = AdaptiveBulkSearch(small, cfg, telemetry=bus).solve("process")
        assert res.workers_lost == 1
        assert res.workers_restarted == 0
        assert res.rounds >= 1
        assert res.best_energy == energy(small, res.best_x)
        # Every result came from the survivor…
        workers = {e.fields["worker"] for e in sink.named("worker.result")}
        assert workers == {0}
        # …and the host never fed the dead worker's queue (bounded-queue
        # guarantee: targets only flow to healthy workers).
        fed = {e.fields["device"] for e in sink.named("host.queue")}
        assert 1 not in fed
        degrade = sink.named("supervisor.degrade")
        assert len(degrade) == 1
        assert degrade[0].fields["worker"] == 1
        assert degrade[0].fields["exitcode"] == 17

    def test_restarted_worker_contributes_results(self, small, monkeypatch):
        """A worker that dies on its first incarnation is restarted and
        rehydrated with pool targets; every result of the run comes from
        the replacement (the other worker deliberately idles)."""
        ctx = multiprocessing.get_context("fork")
        restarted = ctx.Event()
        real_worker = fleet_mod._fleet_worker_main

        def flaky_worker(worker_id, incarnation, *rest):
            # (control, events_q, stop_evt, ack_q)
            control, stop_evt, ack_q = rest[0], rest[2], rest[3]
            if worker_id == 1 and incarnation == 0:
                os._exit(9)
            if worker_id == 0:
                # Acknowledge the job frame so the arm handshake
                # completes, then contribute nothing: prove the
                # replacement carries the run.
                job = control.get(timeout=30)
                ack_q.put((worker_id, job.job_seq))
                while not stop_evt.is_set():
                    time.sleep(0.01)
                return
            restarted.wait()
            real_worker(worker_id, incarnation, *rest)

        monkeypatch.setattr(fleet_mod, "_fleet_worker_main", flaky_worker)
        sink = MemorySink()
        bus = TelemetryBus([sink, _SetOnEvent("supervisor.restart", restarted)])
        cfg = AbsConfig(
            n_gpus=2,
            blocks_per_gpu=4,
            local_steps=8,
            max_rounds=4,
            max_worker_restarts=1,
            time_limit=60.0,
            seed=22,
        )
        res = AdaptiveBulkSearch(small, cfg, telemetry=bus).solve("process")
        assert res.workers_restarted == 1
        assert res.workers_lost == 0
        assert res.rounds == cfg.max_rounds
        # All results were produced by the restarted worker 1.
        workers = {e.fields["worker"] for e in sink.named("worker.result")}
        assert workers == {1}
        restart = sink.named("supervisor.restart")
        assert len(restart) == 1
        assert restart[0].fields["worker"] == 1
        assert restart[0].fields["incarnation"] == 1
        assert restart[0].fields["reason"] == "died"
        # The run snapshot carries the supervision outcome too.
        assert res.counters["supervisor.restarts"] == 1
        assert res.counters["supervisor.workers_lost"] == 0

    def test_restart_banks_the_dead_incarnations_totals(self, small, monkeypatch):
        """Worker 1's first incarnation ships exactly one result and dies
        once the host has taken it in; its replacement finishes the run.
        The dead incarnation's cumulative totals are banked, so the
        result's ``evaluated``/``flips`` are the sum of both
        incarnations' last reports and agree with ``result.counters``."""
        ctx = multiprocessing.get_context("fork")
        taken = ctx.Event()
        restarted = ctx.Event()
        real_worker = fleet_mod._fleet_worker_main
        real_rounds = fleet_mod.run_device_rounds

        def die_after_first_result(device, endpoint, *args):
            real_publish = endpoint.publish

            def publish(*a):
                real_publish(*a)
                taken.wait(30)  # the host absorbed and counted it
                os._exit(9)

            endpoint.publish = publish
            real_rounds(device, endpoint, *args)

        def flaky_worker(worker_id, incarnation, *rest):
            control, stop_evt, ack_q = rest[0], rest[2], rest[3]
            if worker_id == 0:
                job = control.get(timeout=30)
                ack_q.put((worker_id, job.job_seq))
                while not stop_evt.is_set():
                    time.sleep(0.01)
                return
            if incarnation == 0:
                # Forked child: the patch stays in this process.
                fleet_mod.run_device_rounds = die_after_first_result
            else:
                restarted.wait()
            real_worker(worker_id, incarnation, *rest)

        monkeypatch.setattr(fleet_mod, "_fleet_worker_main", flaky_worker)
        sink = MemorySink()
        bus = TelemetryBus([
            sink,
            _SetOnEvent("worker.result", taken),
            _SetOnEvent("supervisor.restart", restarted),
        ])
        cfg = AbsConfig(
            n_gpus=2,
            blocks_per_gpu=4,
            local_steps=8,
            max_rounds=4,
            max_worker_restarts=1,
            time_limit=60.0,
            seed=23,
        )
        res = AdaptiveBulkSearch(small, cfg, telemetry=bus).solve("process")
        assert res.workers_restarted == 1
        assert res.rounds == cfg.max_rounds
        results = sink.named("worker.result")
        assert {e.fields["worker"] for e in results} == {1}
        first, last = results[0].fields, results[-1].fields
        assert first["evaluated"] > 0
        assert res.evaluated == first["evaluated"] + last["evaluated"]
        assert res.flips == first["flips"] + last["flips"]
        assert res.evaluated == res.counters["engine.evaluated"]
        assert res.flips == res.counters["engine.flips"]


class _IdleProc:
    """A worker process stand-in that is alive until ``alive`` drops."""

    def __init__(self):
        self.alive = True
        self.exitcode = None

    def is_alive(self):
        return self.alive

    def join(self, timeout=None):
        pass


class TestFleetDevicesPublish:
    def test_lost_worker_mailbox_gets_no_publish(self):
        """Targets go to healthy workers only, stamped with the slot's
        current incarnation; a lost worker's mailbox stays untouched."""
        from types import SimpleNamespace

        from multiprocessing import shared_memory

        from repro.abs.exchange import ShmHostTransport, TargetMailbox
        from repro.abs.fleet import FleetDevices
        from repro.abs.supervisor import WorkerSupervisor
        from repro.telemetry import NULL_BUS

        procs = {}

        def spawn(worker_id, incarnation):
            procs[worker_id] = _IdleProc()
            return procs[worker_id]

        sup = WorkerSupervisor(2, spawn, max_restarts=1)
        sup.start()
        procs[0].alive = False
        sup.poll()  # worker 0 restarted: incarnation 1
        for _ in range(2):  # worker 1 restarted, then out of budget
            procs[1].alive = False
            sup.poll()
        assert sup.healthy_ids == [0]
        transport = ShmHostTransport(n_workers=2, n_blocks=2, n=8)
        # The worker's view: a second attach of each worker's segment,
        # whose mailbox sits at offset 0.
        segments = [
            shared_memory.SharedMemory(name=transport.worker_ref(w)[0])
            for w in (0, 1)
        ]
        boxes = [TargetMailbox(seg.buf, 0, 2, 8) for seg in segments]
        try:
            devices = FleetDevices(
                SimpleNamespace(supervisor=sup, transport=transport), 1, NULL_BUS
            )
            targets = np.ones((2, 8), dtype=np.uint8)
            devices.put(0, targets)
            devices.put(1, targets)
            assert transport.stats["exchange.targets_published"] == 1
            assert boxes[1].generation == 0
            assert boxes[0].fetch(0, 0) is None  # not for the dead incarnation
            gen, got = boxes[0].fetch(0, 1)
            assert gen == 1 and (got == targets).all()
        finally:
            for box, seg in zip(boxes, segments):
                box.release()
                seg.close()
            transport.close()


class TestFleetDevicesFinish:
    def test_finish_ends_the_job_for_its_workers(self):
        """Once the host loop is done, a worker blocked in a target
        wait (or about to start another free-running round) is told in
        shared memory, and its wait returns at once."""
        import threading
        from types import SimpleNamespace

        from repro.abs.exchange import ShmHostTransport, ShmWorkerEndpoint
        from repro.abs.fleet import FleetDevices
        from repro.abs.supervisor import WorkerSupervisor
        from repro.telemetry import NULL_BUS

        sup = WorkerSupervisor(1, lambda worker_id, incarnation: _IdleProc())
        sup.start()
        transport = ShmHostTransport(n_workers=1, n_blocks=2, n=8)
        endpoint = ShmWorkerEndpoint(
            transport.worker_ref(0), None, worker_id=0, job_seq=1,
            incarnation=0, stop_evt=threading.Event(), bells=transport.bells(0),
        )
        try:
            fleet = SimpleNamespace(
                supervisor=sup, transport=transport, take_job_stats=dict
            )
            waiter = threading.Thread(
                target=endpoint.fetch_targets, kwargs={"wait": True}, daemon=True
            )
            waiter.start()
            assert not endpoint.stopping()
            FleetDevices(fleet, 1, NULL_BUS).finish()
            waiter.join(timeout=1.0)
            assert not waiter.is_alive()
            assert endpoint.stopping()
        finally:
            endpoint.close()
            transport.close()


class TestSupersededFrame:
    def test_frame_whose_segments_are_gone_is_skipped(self):
        """A replacement spawned with job A's frame may read it only
        after the host armed job B and unlinked A's segments.  The
        worker skips that frame (no crash, no ack) and keeps serving."""
        import queue
        import threading

        from repro.abs.exchange import ShmHostTransport

        transport = ShmHostTransport(n_workers=1, n_blocks=2, n=8)
        gone = transport.worker_ref(0)
        transport.close()
        frame = fleet_mod.WorkerJob(
            job_seq=1,
            weights_ref=("sparse", None),
            digest=None,
            n_blocks=2,
            plan=None,
            backend=None,
            telemetry_enabled=False,
            lockstep=True,
            exchange_ref=gone,
        )
        control, ack_q = queue.Queue(), queue.Queue()
        control.put(frame)
        control.put(fleet_mod._SHUTDOWN)
        fleet_mod._fleet_worker_main(
            0, 1, control, queue.Queue(), threading.Event(), ack_q
        )
        assert control.empty()
        assert ack_q.empty()
