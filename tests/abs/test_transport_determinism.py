"""Cross-transport determinism and sweeps accounting.

The exchange layer's contract is that it only *moves bits*: a seeded
solve must visit the same solutions whichever transport carries them,
whether telemetry is on or off, and (in lockstep mode) whether the
devices run in-process or as OS processes.  These tests pin that
contract bit-for-bit.

Free-running process mode is timing-dependent by design (the paper's
asynchronous tolerance), so the bit-identity tests use
``lockstep=True`` with a single worker — the configuration in which
process mode is defined to reproduce sync mode exactly.
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
from repro.telemetry import MemorySink, TelemetryBus

pytestmark = [pytest.mark.process, pytest.mark.timeout(120)]

#: All three transports; the tcp lane carries its marker so the
#: loopback guard in tests/conftest.py can skip it where socket binds
#: are forbidden.
ALL_TRANSPORTS = [
    "shm",
    "queue",
    pytest.param("tcp", marks=pytest.mark.tcp),
]


@pytest.fixture
def problem():
    return QuboMatrix.random(24, seed=321)


def lockstep_cfg(exchange, **overrides):
    kwargs = dict(
        n_gpus=1,
        blocks_per_gpu=6,
        local_steps=8,
        pool_capacity=16,
        max_rounds=10,
        time_limit=120.0,
        seed=42,
        exchange=exchange,
        lockstep=True,
    )
    kwargs.update(overrides)
    return AbsConfig(**kwargs)


def fingerprint(res):
    return (res.best_energy, res.best_x.tobytes(), res.rounds, res.sweeps)


class TestCrossTransportDeterminism:
    def test_shm_and_queue_bit_identical(self, problem):
        a = AdaptiveBulkSearch(problem, lockstep_cfg("shm")).solve("process")
        b = AdaptiveBulkSearch(problem, lockstep_cfg("queue")).solve("process")
        assert fingerprint(a) == fingerprint(b)

    @pytest.mark.tcp
    def test_tcp_bit_identical_to_shm(self, problem):
        """The acceptance bar: tcp ≡ shm ≡ queue bit-for-bit in
        lockstep mode, and telemetry-inert — the solver's search
        counters agree exactly modulo the transport's own
        ``exchange.*`` accounting."""
        a = AdaptiveBulkSearch(problem, lockstep_cfg("shm")).solve("process")
        b = AdaptiveBulkSearch(problem, lockstep_cfg("tcp")).solve("process")
        assert fingerprint(a) == fingerprint(b)
        solver_keys = {
            k for k in (set(a.counters) | set(b.counters))
            if not k.startswith("exchange.")
        }
        for key in sorted(solver_keys):
            assert a.counters.get(key, 0) == b.counters.get(key, 0), key
        # and the tcp lane really ran over sockets
        assert b.counters["exchange.tcp.connects"] >= 1
        assert b.counters["exchange.tcp.frames_from_device"] >= 1

    @pytest.mark.parametrize("exchange", ALL_TRANSPORTS)
    def test_process_lockstep_matches_sync(self, problem, exchange):
        sync_cfg = AbsConfig(
            n_gpus=1, blocks_per_gpu=6, local_steps=8, pool_capacity=16,
            max_rounds=10, seed=42,
        )
        s = AdaptiveBulkSearch(problem, sync_cfg).solve("sync")
        p = AdaptiveBulkSearch(problem, lockstep_cfg(exchange)).solve("process")
        assert fingerprint(s) == fingerprint(p)
        # The search-work counters agree too (timing-free subset).
        for key in ("engine.flips", "engine.evaluated", "pool.inserted"):
            assert s.counters[key] == p.counters[key], key

    @pytest.mark.parametrize("exchange", ALL_TRANSPORTS)
    def test_telemetry_does_not_change_search(self, problem, exchange):
        quiet = AdaptiveBulkSearch(problem, lockstep_cfg(exchange)).solve("process")
        sink = MemorySink()
        bus = TelemetryBus([sink])
        loud = AdaptiveBulkSearch(
            problem, lockstep_cfg(exchange), telemetry=bus
        ).solve("process")
        assert fingerprint(quiet) == fingerprint(loud)
        # And the instrumented run actually produced exchange telemetry.
        assert len(sink.named("exchange.open")) == 1
        assert sink.named("exchange.open")[0].fields["transport"] == exchange

    def test_run_to_run_determinism(self, problem):
        runs = [
            AdaptiveBulkSearch(problem, lockstep_cfg("shm")).solve("process")
            for _ in range(2)
        ]
        assert fingerprint(runs[0]) == fingerprint(runs[1])


class _SetOnEvent:
    def __init__(self, name, evt):
        self.name = name
        self.evt = evt

    def handle(self, event):
        if event.name == self.name:
            self.evt.set()


class TestRestartWithRings:
    def test_worker_restart_reuses_ring_segments(self, problem, monkeypatch):
        """Kill a worker's first incarnation under the shm transport:
        the replacement binds to the *same* shared-memory segments (no
        new /dev/shm entries appear mid-run), skips its predecessor's
        stale targets via the epoch, and carries the solve to the end."""
        ctx = multiprocessing.get_context("fork")
        restarted = ctx.Event()
        real_worker = fleet_mod._fleet_worker_main

        def flaky_worker(worker_id, incarnation, *rest):
            if worker_id == 0 and incarnation == 0:
                os._exit(11)
            restarted.wait()  # start only after the host handled the death
            real_worker(worker_id, incarnation, *rest)

        monkeypatch.setattr(fleet_mod, "_fleet_worker_main", flaky_worker)
        before = set(glob.glob("/dev/shm/*"))
        sink = MemorySink()
        bus = TelemetryBus([sink, _SetOnEvent("supervisor.restart", restarted)])
        cfg = AbsConfig(
            n_gpus=1,
            blocks_per_gpu=4,
            local_steps=8,
            max_rounds=4,
            max_worker_restarts=1,
            time_limit=120.0,
            seed=77,
            exchange="shm",
        )
        res = AdaptiveBulkSearch(problem, cfg, telemetry=bus).solve("process")
        assert res.workers_restarted == 1
        assert res.workers_lost == 0
        assert res.rounds == cfg.max_rounds
        assert res.best_energy == energy(problem, res.best_x)
        # All results came from incarnation 1 via the surviving rings.
        assert {e.fields["worker"] for e in sink.named("worker.result")} == {0}
        # Exactly one transport was ever opened — the restart allocated
        # no second set of mailboxes/rings.
        assert len(sink.named("exchange.open")) == 1
        # And nothing leaked afterwards.
        after = set(glob.glob("/dev/shm/*"))
        assert after <= before


class TestSweepsAccounting:
    def test_sync_sweeps_are_min_per_device_rounds(self, problem):
        """7 total rounds over 2 devices: device 0 ran 4, device 1 ran
        3 — the slowest device bounds the sweep count."""
        cfg = AbsConfig(n_gpus=2, blocks_per_gpu=4, local_steps=8,
                        max_rounds=7, seed=9)
        res = AdaptiveBulkSearch(problem, cfg).solve("sync")
        assert res.rounds == 7
        assert res.sweeps == 3

    def test_sync_single_device_sweeps_equal_rounds(self, problem):
        cfg = AbsConfig(n_gpus=1, blocks_per_gpu=4, local_steps=8,
                        max_rounds=5, seed=9)
        res = AdaptiveBulkSearch(problem, cfg).solve("sync")
        assert res.rounds == res.sweeps == 5

    def test_process_sweeps_bounded_by_rounds(self, problem):
        cfg = AbsConfig(n_gpus=2, blocks_per_gpu=4, local_steps=8,
                        max_rounds=8, time_limit=120.0, seed=9)
        res = AdaptiveBulkSearch(problem, cfg).solve("process")
        assert 0 <= res.sweeps <= res.rounds
        assert res.sweeps * cfg.n_gpus <= res.rounds + cfg.n_gpus

    def test_summary_reports_both(self, problem):
        cfg = AbsConfig(n_gpus=1, blocks_per_gpu=4, local_steps=8,
                        max_rounds=3, seed=9)
        res = AdaptiveBulkSearch(problem, cfg).solve("sync")
        assert f"rounds={res.rounds} sweeps={res.sweeps}" in res.summary()
