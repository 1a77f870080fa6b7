"""Service-vs-one-shot bit-identity — the service's core contract.

A job run through :class:`SolverService` reuses processes, transports,
shared-memory segments, and backend-prepared weights across jobs, yet
none of that reuse may leak into the search: with the same (problem,
config, seed) the service must return *exactly* what a one-shot
``AdaptiveBulkSearch.solve("process")`` returns.  As in
``tests/abs/test_transport_determinism.py``, bit-identity is defined in
lockstep mode with a single worker.
"""

import pytest

from repro.abs import AbsConfig, AdaptiveBulkSearch
from repro.qubo import QuboMatrix, energy
from repro.service import ServiceConfig, SolverService
from repro.telemetry import MemorySink, TelemetryBus

pytestmark = [pytest.mark.service, pytest.mark.process, pytest.mark.timeout(180)]

#: The transports: the shared-memory rings are the only one.
TRANSPORTS = ["shm"]


def fingerprint(res):
    return (res.best_energy, res.best_x.tobytes(), res.rounds, res.sweeps)


def lockstep_cfg(exchange, seed, **overrides):
    kwargs = dict(
        n_gpus=1,
        blocks_per_gpu=6,
        local_steps=8,
        pool_capacity=16,
        max_rounds=8,
        seed=seed,
        exchange=exchange,
        lockstep=True,
    )
    kwargs.update(overrides)
    return AbsConfig(**kwargs)


@pytest.fixture
def problem():
    return QuboMatrix.random(24, seed=321)


@pytest.mark.parametrize("exchange", TRANSPORTS)
class TestBitIdentity:
    def test_service_job_equals_one_shot(self, problem, exchange):
        cfg = lockstep_cfg(exchange, seed=42)
        one_shot = AdaptiveBulkSearch(problem, cfg).solve("process")
        with SolverService() as svc:
            served = svc.result(svc.submit(problem, cfg), timeout=120)
        assert fingerprint(served) == fingerprint(one_shot)
        assert served.best_energy == energy(problem, served.best_x)

    def test_warm_jobs_equal_their_one_shots(self, problem, exchange):
        """Three different jobs through ONE warm fleet, each pinned
        against its own cold one-shot — prepared-state reuse and epoch
        re-arming must not bleed state between jobs."""
        cfgs = [lockstep_cfg(exchange, seed=s) for s in (42, 7, 42)]
        cfgs[2] = lockstep_cfg(exchange, seed=42, max_rounds=5)  # distinct run key
        one_shots = [AdaptiveBulkSearch(problem, c).solve("process") for c in cfgs]
        sink = MemorySink()
        bus = TelemetryBus([sink])
        with SolverService(telemetry=bus) as svc:
            ids = [svc.submit(problem, c) for c in cfgs]
            served = [svc.result(j, timeout=120) for j in ids]
        for got, want in zip(served, one_shots):
            assert fingerprint(got) == fingerprint(want)
        counts = bus.counters.snapshot()
        # One fleet spawn serving three jobs is the whole point.
        assert counts["service.fleet_spawns"] == 1
        assert counts["service.fleet_rearms"] == 3
        assert counts["service.weights_cache_hits"] == 2

    def test_cache_hit_is_bit_identical(self, problem, exchange):
        cfg = lockstep_cfg(exchange, seed=42)
        with SolverService() as svc:
            first = svc.result(svc.submit(problem, cfg), timeout=120)
            repeat_id = svc.submit(problem, cfg)
            repeat = svc.result(repeat_id, timeout=120)
            assert svc.status(repeat_id)["cache_hit"]
        assert fingerprint(repeat) == fingerprint(first)
        assert repeat.counters == first.counters


class TestAlternatingSizes:
    def test_one_fleet_serves_every_size(self):
        """Sizes 24/40/24 through one service: one fleet spawn, each job
        on its own exchange segments, every answer its one-shot's, and
        no shared-memory segment left behind."""
        import glob

        small, large = QuboMatrix.random(24, seed=321), QuboMatrix.random(40, seed=5)
        stream = [
            (small, lockstep_cfg("shm", seed=42)),
            (large, lockstep_cfg("shm", seed=7)),
            (small, lockstep_cfg("shm", seed=9)),
        ]
        one_shots = [AdaptiveBulkSearch(q, c).solve("process") for q, c in stream]
        before = set(glob.glob("/dev/shm/*"))
        bus = TelemetryBus([MemorySink()])
        with SolverService(telemetry=bus) as svc:
            ids = [svc.submit(q, c) for q, c in stream]
            served = [svc.result(j, timeout=120) for j in ids]
        assert set(glob.glob("/dev/shm/*")) <= before
        for got, want in zip(served, one_shots):
            assert fingerprint(got) == fingerprint(want)
        counts = bus.counters.snapshot()
        assert counts["service.fleet_spawns"] == 1
        assert counts["service.fleet_rearms"] == 3


class TestCacheEligibility:
    def test_two_worker_lockstep_is_never_cached(self, problem):
        """Lockstep makes only a *single* worker deterministic: with two,
        the order in which results reach the host varies from run to
        run, so a repeat submission must solve afresh instead of
        returning the first run's draw from the result cache."""
        cfg = lockstep_cfg("shm", seed=42, n_gpus=2, blocks_per_gpu=3)
        with SolverService() as svc:
            svc.result(svc.submit(problem, cfg), timeout=120)
            again = svc.submit(problem, cfg)
            svc.result(again, timeout=120)
            assert not svc.status(again)["cache_hit"]


class TestStampedTelemetry:
    def test_job_stamp_on_solver_events_and_no_search_change(self, problem):
        cfg = lockstep_cfg("shm", seed=42)
        quiet = AdaptiveBulkSearch(problem, cfg).solve("process")
        sink = MemorySink()
        with SolverService(telemetry=TelemetryBus([sink])) as svc:
            jid = svc.submit(problem, cfg)
            traced = svc.result(jid, timeout=120)
        assert fingerprint(traced) == fingerprint(quiet)
        rounds = sink.named("host.round")
        assert rounds and all(e.fields["job"] == jid for e in rounds)
        opens = sink.named("exchange.open")
        assert len(opens) == 1 and opens[0].fields["job"] == jid
