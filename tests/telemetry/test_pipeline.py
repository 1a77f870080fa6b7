"""End-to-end telemetry: full-pipeline traces, counters, determinism.

The acceptance contract for the instrumentation layer: a sync-mode
solve with telemetry enabled produces a schema-valid JSONL trace
covering host rounds, device local-search batches, straight-search
retirements, GA pool operations, and window adaptation — and the
search result is bit-identical to the same seeded run with telemetry
disabled.
"""

import numpy as np
import pytest

from repro.abs import AbsConfig, AdaptiveBulkSearch
from repro.qubo import QuboMatrix
from repro.telemetry import (
    JsonlSink,
    MemorySink,
    TelemetryBus,
    validate_record,
    validate_trace,
)


@pytest.fixture
def problem():
    return QuboMatrix.random(48, seed=77)


@pytest.fixture
def config():
    return AbsConfig(
        blocks_per_gpu=8,
        local_steps=16,
        pool_capacity=24,
        max_rounds=10,
        adapt_windows=True,  # so the trace includes adapt.windows
        seed=42,
    )


class TestSyncTraceCoverage:
    def test_jsonl_trace_is_schema_valid_and_complete(self, problem, config, tmp_path):
        path = tmp_path / "solve.jsonl"
        with TelemetryBus([JsonlSink(path)]) as bus:
            AdaptiveBulkSearch(problem, config, telemetry=bus).solve("sync")
        counts = validate_trace(path)  # raises on any schema violation
        # Every pipeline stage must appear in the trace.
        assert counts["solve.start"] == 1
        assert counts["solve.end"] == 1
        assert counts["host.round"] == config.max_rounds
        assert counts["device.round"] == config.max_rounds
        assert counts["engine.straight"] == config.max_rounds
        assert counts["engine.local"] == config.max_rounds
        assert counts["host.absorb"] == config.max_rounds
        assert counts["host.targets"] == config.max_rounds - 1
        assert counts["adapt.windows"] >= 1

    def test_straight_retirements_recorded(self, problem, config):
        sink = MemorySink()
        bus = TelemetryBus([sink])
        AdaptiveBulkSearch(problem, config, telemetry=bus).solve("sync")
        retired = [e.fields["retired"] for e in sink.named("engine.straight")]
        # Every round walks blocks to fresh GA targets, so blocks retire.
        assert sum(retired) > 0
        assert all(0 <= r <= config.blocks_per_gpu for r in retired)
        for e in sink.named("device.round"):
            assert e.fields["retired"] >= 0

    def test_pool_operations_visible(self, problem, config):
        sink = MemorySink()
        bus = TelemetryBus([sink])
        AdaptiveBulkSearch(problem, config, telemetry=bus).solve("sync")
        absorbs = sink.named("host.absorb")
        assert all(
            e.fields["arrived"] == config.blocks_per_gpu for e in absorbs
        )
        # After the first round the pool has real energies → a spread.
        assert absorbs[-1].fields["pool_spread"] is not None
        targets = sink.named("host.targets")
        ops = targets[-1].fields
        assert ops["mutation"] + ops["crossover"] + ops["copy"] > 0

    def test_session_counters_accumulate_on_bus(self, problem, config):
        bus = TelemetryBus()
        AdaptiveBulkSearch(problem, config, telemetry=bus).solve("sync")
        snap = bus.counters.snapshot()
        assert snap["host.rounds"] == config.max_rounds
        assert snap["pool.inserted"] > 0
        assert snap["engine.local_flips"] > 0
        assert snap["engine.straight_retirements"] > 0


class TestTelemetryIsInert:
    def test_sync_results_bit_identical_on_vs_off(self, problem, config):
        """The regression pin: telemetry must never perturb the search."""
        off = AdaptiveBulkSearch(problem, config).solve("sync")
        bus = TelemetryBus([MemorySink()])
        on = AdaptiveBulkSearch(problem, config, telemetry=bus).solve("sync")
        assert on.best_energy == off.best_energy
        assert np.array_equal(on.best_x, off.best_x)
        assert on.evaluated == off.evaluated
        assert on.flips == off.flips
        assert on.rounds == off.rounds

    def test_counter_snapshots_identical_on_vs_off(self, problem, config):
        off = AdaptiveBulkSearch(problem, config).solve("sync")
        on = AdaptiveBulkSearch(problem, config, telemetry=TelemetryBus()).solve("sync")
        assert on.counters == off.counters


class TestResultCounters:
    def test_populated_without_telemetry(self, problem, config):
        res = AdaptiveBulkSearch(problem, config).solve("sync")
        c = res.counters
        assert c["engine.flips"] == res.flips
        assert c["engine.evaluated"] == res.evaluated
        assert c["engine.straight_flips"] + c["engine.local_flips"] == c["engine.flips"]
        assert c["host.solutions_absorbed"] == config.blocks_per_gpu * res.rounds
        assert c["ga.mutation"] + c["ga.crossover"] + c["ga.copy"] > 0
        assert c["adapt.reassignments"] > 0  # adapt_windows=True in config
        assert c["pool.inserted"] >= config.pool_capacity  # includes seeding

    def test_all_values_are_ints(self, problem, config):
        res = AdaptiveBulkSearch(problem, config).solve("sync")
        assert all(isinstance(v, int) for v in res.counters.values())


class TestProcessMode:
    def test_trace_covers_workers_and_queues(self, tmp_path):
        problem = QuboMatrix.random(16, seed=5)
        cfg = AbsConfig(
            n_gpus=2, blocks_per_gpu=4, max_rounds=6, time_limit=30.0, seed=9
        )
        path = tmp_path / "proc.jsonl"
        with TelemetryBus([JsonlSink(path)]) as bus:
            res = AdaptiveBulkSearch(problem, cfg, telemetry=bus).solve("process")
        counts = validate_trace(path)
        assert counts["solve.start"] == 1
        assert counts["solve.end"] == 1
        assert counts["worker.result"] >= 1
        assert counts["host.round"] >= 1
        assert counts.get("host.queue", 0) >= 1
        # Worker engine counters make it back into the run snapshot.
        assert res.counters["engine.flips"] == res.flips
        assert res.counters["engine.straight_retirements"] > 0


class TestActiveBackendUnderDefault:
    """``solve.start`` names the backend ``auto`` resolved to, and the
    engines (host or worker) ran that same backend."""

    @pytest.mark.parametrize("mode", ["sync", "process"])
    @pytest.mark.parametrize("masked", [False, True], ids=["as-installed", "no-cc"])
    def test_solve_start_carries_resolved_name(self, monkeypatch, mode, masked):
        from repro.backends import cc_available

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        if masked:
            monkeypatch.setenv("REPRO_NO_CC", "1")
        expected = "bitplane" if cc_available() else "numpy"
        cfg = AbsConfig(
            blocks_per_gpu=4, local_steps=8, max_rounds=3, time_limit=30.0, seed=3
        )
        sink = MemorySink()
        with TelemetryBus([sink]) as bus:
            AdaptiveBulkSearch(QuboMatrix.random(16, seed=5), cfg, telemetry=bus).solve(mode)
        (start,) = sink.named("solve.start")
        assert start.fields["backend"] == expected
        kernels = sink.named("engine.local") + sink.named("engine.straight")
        assert kernels
        assert {e.fields["backend"] for e in kernels} == {expected}
        assert not sink.named("backend.fallback")


class TestScalarSearchInstrumentation:
    def test_bulk_local_search_emits_one_run_event(self, small_qubo):
        from repro.search import BulkLocalSearch, WindowMinDeltaPolicy

        sink = MemorySink()
        bus = TelemetryBus([sink])
        search = BulkLocalSearch(WindowMinDeltaPolicy(4), bus=bus)
        rec = search.run(
            small_qubo, np.zeros(small_qubo.n, dtype=np.uint8), steps=20, seed=3
        )
        runs = sink.named("search.run")
        assert len(runs) == 1
        assert runs[0].fields["flips"] == rec.flips
        assert runs[0].fields["evaluated"] == rec.evaluated
        assert runs[0].fields["best_energy"] == rec.best_energy
        for r in sink.records():
            validate_record(r)
