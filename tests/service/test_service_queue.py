"""Queue semantics of the warm-fleet solver service.

These tests avoid spawning worker processes: jobs run in ``sync`` mode
on the dispatcher thread, and a gate patched into ``solve`` holds the
dispatcher busy so queue ordering and cancellation can be observed
deterministically.
"""

import threading

import pytest

from repro.abs import AbsConfig
from repro.abs.solver import AdaptiveBulkSearch
from repro.qubo import QuboMatrix
from repro.service import ServiceConfig, SolverService
from repro.telemetry import MemorySink, TelemetryBus

pytestmark = [pytest.mark.service, pytest.mark.timeout(60)]


@pytest.fixture
def problem():
    return QuboMatrix.random(20, seed=11)


def cfg(seed, **overrides):
    kwargs = dict(blocks_per_gpu=4, local_steps=4, max_rounds=3, seed=seed)
    kwargs.update(overrides)
    return AbsConfig(**kwargs)


@pytest.fixture
def gate(monkeypatch):
    """Patch ``solve`` so every job blocks until the gate opens."""
    evt = threading.Event()
    real = AdaptiveBulkSearch.solve

    def gated(self, mode="sync"):
        assert evt.wait(30), "test gate never opened"
        return real(self, mode)

    monkeypatch.setattr(AdaptiveBulkSearch, "solve", gated)
    return evt


class TestScheduling:
    def test_priority_then_fifo(self, problem, gate):
        sink = MemorySink()
        with SolverService(telemetry=TelemetryBus([sink])) as svc:
            first = svc.submit(problem, cfg(1), mode="sync")
            while svc.status(first)["status"] == "queued":
                pass
            # While the dispatcher is gated on job 1, queue three more:
            # the high-priority job must overtake, ties stay FIFO.
            low_a = svc.submit(problem, cfg(2), mode="sync")
            high = svc.submit(problem, cfg(3), mode="sync", priority=5)
            low_b = svc.submit(problem, cfg(4), mode="sync")
            gate.set()
            for jid in (first, low_a, high, low_b):
                svc.result(jid, timeout=30)
        started = [e.fields["job"] for e in sink.named("service.job_start")]
        assert started == [first, high, low_a, low_b]

    def test_status_lifecycle(self, problem, gate):
        with SolverService() as svc:
            jid = svc.submit(problem, cfg(1), mode="sync")
            queued_or_running = svc.status(jid)["status"]
            assert queued_or_running in ("queued", "running")
            gate.set()
            res = svc.result(jid, timeout=30)
            snap = svc.status(jid)
        assert snap["status"] == "done"
        assert snap["best_energy"] == res.best_energy
        assert snap["rounds"] == res.rounds == 3
        assert snap["elapsed"] >= 0.0

    def test_unknown_job_and_bad_mode(self, problem):
        with SolverService() as svc:
            with pytest.raises(KeyError):
                svc.status(99)
            with pytest.raises(ValueError, match="unknown mode"):
                svc.submit(problem, cfg(1), mode="thread")

    def test_max_queue_enforced(self, problem, gate):
        with SolverService(ServiceConfig(max_queue=1)) as svc:
            running = svc.submit(problem, cfg(1), mode="sync")
            # Wait until job 1 leaves the queue for the dispatcher.
            while svc.status(running)["status"] == "queued":
                pass
            svc.submit(problem, cfg(2), mode="sync")
            with pytest.raises(RuntimeError, match="queue is full"):
                svc.submit(problem, cfg(3), mode="sync")
            gate.set()

    def test_cancelled_queued_job_frees_its_slot(self, problem, gate):
        """max_queue counts QUEUED jobs — a cancelled job's stale heap
        entry (lazily popped by the dispatcher) must not occupy a slot."""
        with SolverService(ServiceConfig(max_queue=1)) as svc:
            running = svc.submit(problem, cfg(1), mode="sync")
            while svc.status(running)["status"] == "queued":
                pass
            stale = svc.submit(problem, cfg(2), mode="sync")
            assert svc.cancel(stale)
            replacement = svc.submit(problem, cfg(3), mode="sync")
            with pytest.raises(RuntimeError, match="queue is full"):
                svc.submit(problem, cfg(4), mode="sync")
            gate.set()
            assert svc.result(replacement, timeout=30).rounds == 3

    def test_submit_after_close_raises(self, problem):
        svc = SolverService()
        svc.close()
        with pytest.raises(RuntimeError, match="closed"):
            svc.submit(problem, cfg(1), mode="sync")


class TestCancellation:
    def test_cancel_queued_job(self, problem, gate):
        with SolverService() as svc:
            running = svc.submit(problem, cfg(1), mode="sync")
            queued = svc.submit(problem, cfg(2), mode="sync")
            assert svc.cancel(queued)
            assert svc.status(queued)["status"] == "cancelled"
            with pytest.raises(RuntimeError, match="cancelled"):
                svc.result(queued, timeout=5)
            gate.set()
            svc.result(running, timeout=30)
            # Cancelling a finished job is a no-op.
            assert not svc.cancel(running)

    def test_close_cancels_queued_jobs(self, problem, gate):
        svc = SolverService()
        running = svc.submit(problem, cfg(1), mode="sync")
        queued = svc.submit(problem, cfg(2), mode="sync")
        gate.set()
        svc.close()
        assert svc.status(queued)["status"] == "cancelled"
        assert svc.status(running)["status"] in ("done", "cancelled")


class TestResultCache:
    def test_seeded_repeat_hits_and_is_bit_identical(self, problem):
        sink = MemorySink()
        bus = TelemetryBus([sink])
        with SolverService(telemetry=bus) as svc:
            a = svc.result(svc.submit(problem, cfg(7), mode="sync"), timeout=30)
            b_id = svc.submit(problem, cfg(7), mode="sync")
            b = svc.result(b_id, timeout=30)
            assert svc.status(b_id)["cache_hit"]
        assert b.best_energy == a.best_energy
        assert b.best_x.tobytes() == a.best_x.tobytes()
        assert (b.rounds, b.sweeps, b.counters) == (a.rounds, a.sweeps, a.counters)
        assert b is not a  # deep copy, not the cached object itself
        assert bus.counters.snapshot()["service.cache_hits"] == 1

    def test_unseeded_jobs_never_cached(self, problem):
        with SolverService() as svc:
            first = svc.submit(problem, cfg(None), mode="sync")
            svc.result(first, timeout=30)
            second = svc.submit(problem, cfg(None), mode="sync")
            svc.result(second, timeout=30)
            assert not svc.status(second)["cache_hit"]

    def test_mode_is_part_of_the_key(self, problem):
        # A sync result must never answer for a process-mode submission
        # of the same (problem, config, seed) — the digests differ.
        from repro.qubo.io import run_digest

        assert run_digest(problem, cfg(7), extra={"mode": "sync"}) != run_digest(
            problem, cfg(7), extra={"mode": "process"}
        )

    def test_cancelled_job_is_not_cached(self, problem, gate):
        """A job cancelled while running must not poison the cache: a
        resubmission of the same (problem, config, seed) runs fresh
        instead of returning the truncated result as a DONE hit."""
        with SolverService() as svc:
            jid = svc.submit(problem, cfg(7), mode="sync")
            while svc.status(jid)["status"] == "queued":
                pass
            assert svc.cancel(jid)
            gate.set()
            svc.result(jid, timeout=30)
            assert svc.status(jid)["status"] == "cancelled"
            assert not svc._result_cache
            again = svc.submit(problem, cfg(7), mode="sync")
            res = svc.result(again, timeout=30)
            assert not svc.status(again)["cache_hit"]
            assert svc.status(again)["status"] == "done"
            assert res.rounds == 3

    def test_nondeterministic_configs_are_never_cached(self, problem, gate):
        """A wall-clock time_limit or free-running process mode makes a
        seeded run a sample, not a pure function of the run digest —
        such jobs get no cache key.  Lockstep process jobs do."""
        with SolverService() as svc:
            running = svc.submit(problem, cfg(1), mode="sync")
            while svc.status(running)["status"] == "queued":
                pass
            timed = svc.submit(problem, cfg(7, time_limit=60.0), mode="sync")
            free = svc.submit(problem, cfg(7), mode="process")
            locked = svc.submit(problem, cfg(7, lockstep=True), mode="process")
            assert svc._jobs[timed].run_key is None
            assert svc._jobs[free].run_key is None
            assert svc._jobs[locked].run_key is not None
            for jid in (timed, free, locked):  # never reach the fleet
                assert svc.cancel(jid)
            gate.set()
            svc.result(running, timeout=30)

    def test_submit_hashes_the_weights_once(self, problem, monkeypatch):
        """The run key reuses the problem digest computed for the job;
        the key itself is pinned, so reusing it changed no key."""
        import repro.qubo.io as io
        import repro.service.core as core

        calls = []
        real = io.problem_digest

        def counting(weights):
            calls.append(weights)
            return real(weights)

        monkeypatch.setattr(core, "problem_digest", counting)
        monkeypatch.setattr(io, "problem_digest", counting)
        with SolverService() as svc:
            jid = svc.submit(problem, cfg(1), mode="sync")
            assert len(calls) == 1
            assert svc._jobs[jid].run_key == (
                "e580c218377ba4f9e4b3b24e7686ab22038220aebdb5355bad4204dded28fea7"
            )
            svc.result(jid, timeout=30)

    def test_cache_disabled_when_size_zero(self, problem):
        with SolverService(ServiceConfig(result_cache_size=0)) as svc:
            svc.result(svc.submit(problem, cfg(7), mode="sync"), timeout=30)
            again = svc.submit(problem, cfg(7), mode="sync")
            svc.result(again, timeout=30)
            assert not svc.status(again)["cache_hit"]


class TestFailureIsolation:
    def test_failed_job_does_not_poison_the_service(self, problem, monkeypatch):
        real = AdaptiveBulkSearch.solve
        calls = {"n": 0}

        def flaky(self, mode="sync"):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ValueError("injected failure")
            return real(self, mode)

        monkeypatch.setattr(AdaptiveBulkSearch, "solve", flaky)
        sink = MemorySink()
        bus = TelemetryBus([sink])
        with SolverService(telemetry=bus) as svc:
            bad = svc.submit(problem, cfg(1), mode="sync")
            good = svc.submit(problem, cfg(2), mode="sync")
            with pytest.raises(RuntimeError, match="injected failure"):
                svc.result(bad, timeout=30)
            assert svc.status(bad)["status"] == "failed"
            assert svc.result(good, timeout=30).rounds == 3
        counts = bus.counters.snapshot()
        assert counts["service.jobs_failed"] == 1
        assert counts["service.jobs_completed"] == 1
        ends = {e.fields["job"]: e.fields["status"] for e in sink.named("service.job_end")}
        assert ends == {bad: "failed", good: "done"}
