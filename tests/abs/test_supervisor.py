"""Unit tests for the process-mode worker supervision state machine.

Everything in :class:`~repro.abs.supervisor.WorkerSupervisor` is
injectable (spawn, queues, clock), so the restart/degrade logic is
exercised deterministically with fake processes — no OS processes, no
wall-clock sleeps.  Integration with real processes lives in
``test_solver_process.py``.
"""

import pytest

from repro.abs.supervisor import WorkerSupervisor
from repro.telemetry import MemorySink, TelemetryBus, validate_record


class FakeProc:
    """A controllable stand-in for ``multiprocessing.Process``."""

    def __init__(self, worker_id: int, incarnation: int):
        self.worker_id = worker_id
        self.incarnation = incarnation
        self.alive = True
        self.exitcode = None
        self.terminated = False
        self.killed = False

    def is_alive(self):
        return self.alive

    def join(self, timeout=None):
        pass

    def terminate(self):
        self.terminated = True
        self.alive = False
        self.exitcode = -15

    def kill(self):
        self.killed = True
        self.alive = False
        self.exitcode = -9

    def die(self, exitcode=1):
        self.alive = False
        self.exitcode = exitcode


class Harness:
    """Records every spawn; exposes the latest proc per worker."""

    def __init__(self):
        self.spawned = []  # (worker_id, incarnation, queue)
        self.procs = {}

    def spawn(self, worker_id, incarnation, target_q):
        proc = FakeProc(worker_id, incarnation)
        self.spawned.append((worker_id, incarnation, target_q))
        self.procs[worker_id] = proc
        return proc


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_supervisor(n_workers=2, **kwargs):
    harness = Harness()
    clock = kwargs.pop("clock", FakeClock())
    sup = WorkerSupervisor(
        n_workers,
        harness.spawn,
        channel_factory=lambda wid, inc: object(),
        clock=clock,
        **kwargs,
    )
    return sup, harness, clock


class TestLifecycle:
    def test_start_spawns_every_worker_once(self):
        sup, harness, _ = make_supervisor(n_workers=3)
        sup.start()
        assert [(w, i) for w, i, _ in harness.spawned] == [(0, 0), (1, 0), (2, 0)]
        assert sup.n_healthy == 3
        assert sup.healthy_ids == [0, 1, 2]
        assert len(sup.all_processes) == 3

    def test_double_start_rejected(self):
        sup, _, _ = make_supervisor()
        sup.start()
        with pytest.raises(RuntimeError, match="already started"):
            sup.start()

    def test_poll_before_start_rejected(self):
        sup, _, _ = make_supervisor()
        with pytest.raises(RuntimeError, match="not started"):
            sup.poll()

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerSupervisor(0, lambda *a: None, channel_factory=lambda wid, inc: object())
        with pytest.raises(ValueError):
            WorkerSupervisor(
                1, lambda *a: None, channel_factory=lambda wid, inc: object(), max_restarts=-1
            )
        with pytest.raises(ValueError):
            WorkerSupervisor(
                1, lambda *a: None, channel_factory=lambda wid, inc: object(), stall_timeout=0.0
            )

    def test_healthy_workers_produce_no_actions(self):
        sup, _, _ = make_supervisor()
        sup.start()
        assert sup.poll() == []
        assert sup.workers_restarted == 0
        assert sup.workers_lost == 0


class TestRestartOnDeath:
    def test_dead_worker_restarted_with_fresh_channel(self):
        sup, harness, _ = make_supervisor(max_restarts=2)
        sup.start()
        q0 = sup.target_channel(1)
        harness.procs[1].die(exitcode=1)
        actions = sup.poll()
        assert [(a.worker_id, a.kind, a.reason) for a in actions] == [
            (1, "restart", "died")
        ]
        assert actions[0].exitcode == 1
        assert sup.workers_restarted == 1
        assert sup.incarnation(1) == 1
        # Replacement reads a *new* channel handle; the old one is
        # retained only for final draining.
        assert sup.target_channel(1) is not q0
        assert harness.spawned[-1][:2] == (1, 1)
        # The healthy worker was untouched.
        assert sup.incarnation(0) == 0

    def test_restart_budget_exhaustion_degrades(self):
        sup, harness, _ = make_supervisor(max_restarts=1)
        sup.start()
        harness.procs[1].die()
        assert sup.poll()[0].kind == "restart"
        harness.procs[1].die()
        actions = sup.poll()
        assert [(a.worker_id, a.kind) for a in actions] == [(1, "lost")]
        assert sup.workers_lost == 1
        assert sup.n_healthy == 1
        assert sup.target_channel(1) is None
        # A lost worker is never polled again.
        assert sup.poll() == []

    def test_zero_budget_loses_worker_immediately(self):
        sup, harness, _ = make_supervisor(max_restarts=0)
        sup.start()
        harness.procs[0].die()
        assert sup.poll()[0].kind == "lost"
        assert sup.workers_restarted == 0
        assert sup.n_healthy == 1

    def test_all_workers_lost(self):
        sup, harness, _ = make_supervisor(max_restarts=0)
        sup.start()
        harness.procs[0].die()
        harness.procs[1].die()
        sup.poll()
        assert sup.n_healthy == 0
        assert sup.healthy_ids == []


class TestStallDetection:
    def test_stalled_worker_is_reaped_and_restarted(self):
        clock = FakeClock()
        sup, harness, _ = make_supervisor(
            max_restarts=1, stall_timeout=5.0, clock=clock
        )
        sup.start()
        stalled = harness.procs[0]
        clock.now = 6.0
        actions = sup.poll()
        kinds = {(a.worker_id, a.kind, a.reason) for a in actions}
        assert (0, "restart", "stalled") in kinds
        assert stalled.terminated  # the silent process was torn down
        assert sup.workers_restarted >= 1

    def test_results_reset_the_stall_clock(self):
        clock = FakeClock()
        sup, _, _ = make_supervisor(stall_timeout=5.0, clock=clock)
        sup.start()
        clock.now = 4.0
        assert sup.note_result(0, 0) is True
        assert sup.note_result(1, 0) is True
        clock.now = 8.0  # 4 s since last result < 5 s deadline
        assert sup.poll() == []

    def test_no_stall_detection_by_default(self):
        clock = FakeClock()
        sup, _, _ = make_supervisor(clock=clock)  # stall_timeout=None
        sup.start()
        clock.now = 1e6
        assert sup.poll() == []


class TestIncarnationAccounting:
    def test_stale_result_is_flagged_and_does_not_reset_clock(self):
        clock = FakeClock()
        sup, harness, _ = make_supervisor(
            max_restarts=1, stall_timeout=10.0, clock=clock
        )
        sup.start()
        harness.procs[1].die()
        sup.poll()  # restart → incarnation 1
        clock.now = 5.0
        # A result from the dead incarnation 0 must not count as
        # progress for the replacement.
        assert sup.note_result(1, 0) is False
        assert sup.note_result(0, 0) is True  # keep worker 0 fresh
        clock.now = 11.0
        actions = sup.poll()
        assert [(a.worker_id, a.kind) for a in actions] == [(1, "lost")]

    def test_result_for_lost_worker_is_stale(self):
        sup, harness, _ = make_supervisor(max_restarts=0)
        sup.start()
        harness.procs[0].die()
        sup.poll()
        assert sup.note_result(0, 0) is False


class TestSupervisorTelemetry:
    def test_events_emitted_and_schema_valid(self):
        clock = FakeClock()
        sink = MemorySink()
        bus = TelemetryBus([sink])
        harness = Harness()
        sup = WorkerSupervisor(
            2,
            harness.spawn,
            channel_factory=lambda wid, inc: object(),
            max_restarts=1,
            stall_timeout=5.0,
            bus=bus,
            clock=clock,
        )
        sup.start()
        harness.procs[0].die(exitcode=3)   # death → restart
        clock.now = 6.0                     # worker 1 stalls → restart
        sup.poll()
        harness.procs[0].die()              # budget gone → degrade
        sup.poll()
        names = [e.name for e in sink.events]
        assert names.count("supervisor.restart") == 2
        assert names.count("supervisor.stall") == 1
        assert names.count("supervisor.degrade") == 1
        restart = sink.named("supervisor.restart")[0]
        assert restart.fields["worker"] == 0
        assert restart.fields["reason"] == "died"
        assert restart.fields["exitcode"] == 3
        degrade = sink.named("supervisor.degrade")[0]
        assert degrade.fields["healthy_left"] == 1
        for record in sink.records():
            validate_record(record)
        assert sup.workers_restarted == 2
        assert sup.workers_lost == 1


class TestRebindChannels:
    def test_rebind_restamps_through_channel_factory(self):
        """A fleet re-arm asks the channel factory again for every
        healthy worker's current incarnation; no process is spawned
        and lost workers stay without a channel."""
        made = []

        def factory(wid, inc):
            made.append((wid, inc))
            return object()

        harness = Harness()
        sup = WorkerSupervisor(
            2, harness.spawn, channel_factory=factory, max_restarts=0,
            clock=FakeClock(),
        )
        sup.start()
        harness.procs[1].die()
        sup.poll()  # worker 1 is lost (no restart budget)
        before = sup.target_channel(0)
        sup.rebind_channels()
        assert made == [(0, 0), (1, 0), (0, 0)]
        assert sup.target_channel(0) is not before
        assert sup.target_channel(1) is None
        assert len(harness.spawned) == 2

    def test_rebind_before_start_rejected(self):
        sup, _, _ = make_supervisor()
        with pytest.raises(RuntimeError, match="not started"):
            sup.rebind_channels()
