"""Run counters on the bus are exactly the sum of ``result.counters``.

Every run builds ``SolveResult.counters`` from component state in the
solver's one result path (``AdaptiveBulkSearch._search``) and folds it
into the bus's session counters there — the one path run counters take
to the bus.
So after one solve on a fresh bus every ``result.counters`` key has
the same session value, in sync mode and over both process-mode
transports, and a bus shared by several runs holds their sum.
"""

import pytest

from repro.abs import AbsConfig, AdaptiveBulkSearch
from repro.qubo import QuboMatrix
from repro.service import SolverService
from repro.telemetry import MemorySink, TelemetryBus, validate_record

#: The process-mode transports: the shared-memory rings are the only one.
TRANSPORTS = ["shm"]


@pytest.fixture
def problem():
    return QuboMatrix.random(32, seed=321)


def assert_folded(bus, *results):
    """Each run-counter key's session value is its sum over ``results``."""
    keys = set().union(*(r.counters for r in results))
    for key in sorted(keys):
        want = sum(r.counters.get(key, 0) for r in results)
        assert bus.counters.get(key) == want, key


def lockstep_cfg(exchange, seed, **overrides):
    kwargs = dict(
        n_gpus=1,
        blocks_per_gpu=4,
        local_steps=8,
        max_rounds=10,
        adapt_windows=True,
        adapt_period=2,
        time_limit=60.0,
        seed=seed,
        exchange=exchange,
        lockstep=True,
    )
    kwargs.update(overrides)
    return AbsConfig(**kwargs)


class TestSyncReconciliation:
    def test_bus_counters_match_result_counters(self, problem):
        cfg = AbsConfig(
            blocks_per_gpu=8,
            local_steps=16,
            max_rounds=8,
            adapt_windows=True,
            seed=11,
        )
        bus = TelemetryBus()
        res = AdaptiveBulkSearch(problem, cfg, telemetry=bus).solve("sync")
        assert_folded(bus, res)
        # …and both agree with the result's headline fields.
        session = bus.counters.snapshot()
        assert session["engine.evaluated"] == res.evaluated
        assert session["engine.flips"] == res.flips

    def test_flip_family_is_internally_consistent(self, problem):
        cfg = AbsConfig(blocks_per_gpu=8, local_steps=16, max_rounds=6, seed=12)
        bus = TelemetryBus()
        AdaptiveBulkSearch(problem, cfg, telemetry=bus).solve("sync")
        snap = bus.counters.snapshot()
        assert (
            snap["engine.straight_flips"] + snap["engine.local_flips"]
            == snap["engine.flips"]
        )


@pytest.mark.process
@pytest.mark.timeout(60)
class TestProcessReconciliation:
    def test_bus_counters_match_result_counters(self, problem):
        cfg = AbsConfig(
            n_gpus=2,
            blocks_per_gpu=4,
            local_steps=8,
            max_rounds=6,
            adapt_windows=True,
            time_limit=30.0,
            seed=13,
        )
        bus = TelemetryBus()
        res = AdaptiveBulkSearch(problem, cfg, telemetry=bus).solve("process")
        assert_folded(bus, res)
        assert bus.counters.get("engine.evaluated") == res.evaluated
        assert bus.counters.get("engine.flips") == res.flips

    @pytest.mark.parametrize("exchange", TRANSPORTS)
    def test_every_key_on_one_worker(self, problem, exchange):
        """The transport's own ``exchange.*`` accounting included."""
        bus = TelemetryBus()
        res = AdaptiveBulkSearch(
            problem, lockstep_cfg(exchange, seed=15), telemetry=bus
        ).solve("process")
        assert res.counters["exchange.targets_published"] > 0
        assert_folded(bus, res)

    def test_worker_events_relayed_with_device_stamp(self, problem):
        """Process mode must not silently drop worker-side events: the
        host re-emits them stamped with the producing worker's id.

        A single worker keeps the run deterministic (every round lands
        on worker 0), so the adapter provably fires within the round
        budget."""
        cfg = AbsConfig(
            n_gpus=1,
            blocks_per_gpu=8,
            local_steps=8,
            max_rounds=10,
            adapt_windows=True,
            time_limit=30.0,
            seed=14,
        )
        sink = MemorySink()
        bus = TelemetryBus([sink])
        AdaptiveBulkSearch(problem, cfg, telemetry=bus).solve("process")
        for name in ("engine.straight", "engine.local", "adapt.windows"):
            relayed = sink.named(name)
            assert relayed, name
            assert all(e.fields["device"] == 0 for e in relayed), name
        for record in sink.records():
            validate_record(record)


@pytest.mark.service
@pytest.mark.process
@pytest.mark.timeout(120)
def test_service_jobs_sum_on_one_bus(problem):
    """Three jobs through one warm fleet: the session holds their sum."""
    bus = TelemetryBus()
    with SolverService(telemetry=bus) as svc:
        ids = [
            svc.submit(problem, lockstep_cfg("shm", seed=s)) for s in (3, 4, 5)
        ]
        results = [svc.result(j, timeout=60) for j in ids]
    assert_folded(bus, *results)
    assert bus.counters.get("service.jobs_completed") == 3
