"""The top-level ABS solver: host + devices in sync or process mode.

``"sync"`` mode interleaves the host loop and device rounds in one
process — deterministic given a seed, and the mode every
time-to-solution benchmark uses.  It keeps its own round loop on
purpose: a homogeneous sweep draws one ``make_targets(total_blocks)``
per sweep and records history per sweep, and only sync mode reassigns
variants between devices (:class:`~repro.abs.adaptive.VariantController`).

``"process"`` mode runs one OS process per simulated GPU on a
:class:`~repro.abs.fleet.WorkerFleet`, mirroring the paper's multi-GPU
deployment.  A one-shot ``solve("process")`` builds a fleet from the
config, runs one job on it through :meth:`AdaptiveBulkSearch.
solve_on_fleet`, and shuts it down; the solver service runs many jobs
on one fleet through the same method.  The weight matrix lives in
shared memory (one copy, like GPU global memory), targets flow host →
device and solutions device → host through the exchange transport
(:mod:`repro.abs.exchange` — bit-packed shared-memory rings by default,
TCP sockets on request), and nobody blocks on anybody — a device that
sees no fresh targets keeps searching from its current state, exactly
the paper's asynchronous tolerance.
``AbsConfig.lockstep`` makes workers wait for fresh targets after every
round, which makes a single-worker run deterministic (with several
workers the arrival order still varies).

Both modes build the host and every device's
:class:`~repro.abs.device.DevicePlan` with one job plan
(:meth:`AdaptiveBulkSearch._job_plan`), count with one per-device
record (:meth:`~repro.abs.device.DeviceSimulator.totals`), and build
their result with one :func:`~repro.abs.fleet.assemble_result`.
``SolveResult.setup_ns`` runs from ``solve()`` entry to the first
round: in process mode that includes worker spawn and the job's arm
handshake, and the search clock (and ``time_limit``) starts only after
every worker acknowledged.

Process mode is *supervised*
(:class:`~repro.abs.supervisor.WorkerSupervisor`): a worker whose
process dies — or, with ``worker_stall_timeout`` set, one that stops
shipping results — is restarted up to ``max_worker_restarts`` times.
A replacement starts from the engine's zero state and is rehydrated
with fresh GA targets from the current pool (the straight-search
handoff of Algorithm 5 makes workers state-free, so nothing else needs
recovering); the shared-memory rings *survive* the restart — the
replacement binds to the same segments under a bumped epoch, so stale
targets are skipped without reallocating anything.  When a worker's
restart budget is exhausted the solve degrades onto the survivors
(``SolveResult.workers_restarted`` / ``workers_lost`` report what
happened) and fails loudly only when no healthy worker remains.  The
multiprocessing start method is configurable via
``AbsConfig.start_method`` (``fork`` where available by default; job
frames stay picklable so ``spawn`` works too).
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.abs.adaptive import VariantController, WindowAdapter
from repro.abs.config import AbsConfig, resolve_windows
from repro.abs.device import DevicePlan, DeviceSimulator
from repro.abs.fleet import (
    SearchOutcome,
    WorkerFleet,
    WorkerJob,
    _merge_counts,
    assemble_result,
    fleet_params,
    run_search_rounds,
)
from repro.abs.host import Host
from repro.abs.result import SolveResult
from repro.abs.variants import SearchVariant, get_variant, resolve_fleet
from repro.qubo.matrix import WeightsLike, as_weight_matrix
from repro.telemetry.bus import NULL_BUS, NullBus, TelemetryBus
from repro.utils.rng import RngFactory
from repro.utils.timer import Stopwatch


class AdaptiveBulkSearch:
    """Adaptive Bulk Search over a QUBO instance.

    Example
    -------
    >>> from repro.qubo import QuboMatrix
    >>> from repro.abs import AdaptiveBulkSearch, AbsConfig
    >>> q = QuboMatrix.random(64, seed=0)
    >>> res = AdaptiveBulkSearch(q, AbsConfig(max_rounds=20, seed=1)).solve()
    >>> res.best_energy <= 0
    True
    """

    def __init__(
        self,
        weights: WeightsLike,
        config: AbsConfig | None = None,
        *,
        telemetry: TelemetryBus | NullBus | None = None,
    ) -> None:
        from repro.qubo.sparse import SparseQubo

        if isinstance(weights, SparseQubo):
            self.W: object = weights
            self.n = weights.n
        else:
            self.W = as_weight_matrix(weights)
            self.n = self.W.shape[0]
        if self.n < 1:
            raise ValueError("problem must have at least one bit")
        self.config = config or AbsConfig(max_rounds=100)
        #: Telemetry bus; :data:`~repro.telemetry.NULL_BUS` (all no-ops)
        #: unless the caller wires one in.  The solver never closes it —
        #: lifecycle belongs to whoever attached the sinks.
        self.bus = telemetry if telemetry is not None else NULL_BUS

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def solve(self, mode: str = "sync") -> SolveResult:
        """Run to a stopping criterion; returns the best found solution.

        ``"process"`` runs on a transient :class:`WorkerFleet`: built
        from the config, started, handed this one job, shut down.
        """
        if mode == "sync":
            return self._solve_sync()
        if mode != "process":
            raise ValueError(f"unknown mode {mode!r} (use 'sync' or 'process')")
        t_entry = time.perf_counter_ns()
        self._check_process_config()
        with WorkerFleet(**fleet_params(self.config, self.n), bus=self.bus) as workers:
            workers.start()
            return self.solve_on_fleet(workers, setup_start_ns=t_entry)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _met_target(self, energy: float) -> bool:
        t = self.config.target_energy
        return t is not None and energy <= t

    def _variants(self) -> list[SearchVariant] | None:
        """Per-device Diverse-ABS variants, or ``None`` when disabled."""
        cfg = self.config
        if cfg.variants is None:
            return None
        return resolve_fleet(cfg.variants, cfg.n_gpus)

    def _device_plan(self, variant: SearchVariant | None, g: int) -> DevicePlan:
        """Device ``g``'s parameters.  Devices get rotated window
        ladders so the temperature spread differs across GPUs; with a
        variant, the ladder and step counts come from its spec."""
        cfg = self.config
        if variant is None:
            base = resolve_windows(cfg.window, cfg.blocks_per_gpu, self.n)
            return DevicePlan(np.roll(base, g), cfg.local_steps, cfg.scan_neighbors)
        return DevicePlan(
            np.roll(variant.windows(cfg.window, cfg.blocks_per_gpu, self.n), g),
            variant.effective_local_steps(cfg.local_steps),
            variant.effective_scan(cfg.scan_neighbors),
            variant.tabu_steps,
            variant.tabu_tenure,
        )

    def _job_plan(
        self, factory: RngFactory, variants: list[SearchVariant] | None
    ) -> tuple[Host, list[DevicePlan]]:
        """The host (Step 1 pool, GA streams) and every device's plan —
        built identically for sync solves, one-shot process solves, and
        service jobs, which is what keeps them bit-identical."""
        cfg = self.config
        host = Host(
            self.n,
            cfg.pool_capacity,
            cfg.ga,
            rng_factory=factory,
            bus=self.bus,
            min_distance=cfg.diversity_min_dist,
            device_ga=(
                [v.effective_ga(cfg.ga) for v in variants]
                if variants is not None
                else None
            ),
        )
        plans = [
            self._device_plan(variants[g] if variants is not None else None, g)
            for g in range(cfg.n_gpus)
        ]
        return host, plans

    def _make_adapter(self, factory: RngFactory, g: int) -> WindowAdapter | None:
        cfg = self.config
        if not cfg.adapt_windows:
            return None
        return WindowAdapter(
            self.n,
            cfg.blocks_per_gpu,
            period=cfg.adapt_period,
            fraction=cfg.adapt_fraction,
            seed=factory.stream("adapt", g),
            bus=self.bus,
        )

    def _check_process_config(self) -> None:
        if self.config.variant_adapt:
            raise ValueError(
                "variant_adapt is sync-mode only: process-mode fleets are "
                "static (workers are armed with their variant baked in)"
            )

    def _emit_start(self, mode: str) -> None:
        from repro.backends import resolve_backend

        cfg = self.config
        variants = cfg.variants
        if variants is not None and not isinstance(variants, str):
            variants = ",".join(str(v) for v in variants)
        self.bus.emit(
            "solve.start",
            mode=mode,
            n=self.n,
            n_gpus=cfg.n_gpus,
            blocks_per_gpu=cfg.blocks_per_gpu,
            local_steps=cfg.local_steps,
            pool_capacity=cfg.pool_capacity,
            seed=cfg.seed,
            adapt_windows=cfg.adapt_windows,
            # The *active* backend: a bitplane request without a C
            # compiler resolves to numpy here, matching the engines.
            backend=resolve_backend(cfg.backend).name,
            diversity_min_dist=cfg.diversity_min_dist,
            **({"variants": variants} if variants is not None else {}),
        )

    def _emit_end(self, result: SolveResult) -> None:
        self.bus.emit(
            "solve.end",
            best_energy=result.best_energy,
            rounds=result.rounds,
            sweeps=result.sweeps,
            elapsed=result.elapsed,
            evaluated=result.evaluated,
            flips=result.flips,
            reached_target=result.reached_target,
            workers_restarted=result.workers_restarted,
            workers_lost=result.workers_lost,
        )

    # ------------------------------------------------------------------
    # Sync mode
    # ------------------------------------------------------------------
    def _apply_variant(
        self, device: DeviceSimulator, host: Host, variant: SearchVariant, g: int
    ) -> None:
        """Reconfigure device ``g`` (and its GA stream) to ``variant``."""
        device.apply(self._device_plan(variant, g))
        host.set_device_ga(g, variant.effective_ga(self.config.ga))

    def _sync_targets(
        self, host: Host, variants: list[SearchVariant] | None
    ) -> np.ndarray:
        """Step 4 for one sync sweep.

        Homogeneous runs keep the single ``make_targets(total)`` call —
        and with it the base RNG draw order, bit-for-bit.  A variant
        fleet generates each device's batch from that device's own
        variant generator.
        """
        cfg = self.config
        if variants is None:
            return host.make_targets(cfg.total_blocks)
        return np.concatenate(
            [
                host.make_targets(cfg.blocks_per_gpu, device=g)
                for g in range(cfg.n_gpus)
            ]
        )

    def _solve_sync(self) -> SolveResult:
        cfg = self.config
        bus = self.bus
        t_entry = time.perf_counter_ns()
        factory = RngFactory(cfg.seed)
        variants = self._variants()
        host, plans = self._job_plan(factory, variants)
        devices = [
            DeviceSimulator.from_plan(
                self.W,
                cfg.blocks_per_gpu,
                plan,
                adapter=self._make_adapter(factory, g),
                backend=cfg.backend,
                bus=bus,
                device_id=g,
            )
            for g, plan in enumerate(plans)
        ]
        controller = (
            VariantController(
                [v.name for v in variants],
                period=cfg.variant_adapt_period,
                bus=bus,
            )
            if variants is not None and cfg.variant_adapt
            else None
        )

        if bus.enabled:
            self._emit_start("sync")
        setup_ns = time.perf_counter_ns() - t_entry
        watch = Stopwatch().start()
        targets = host.initial_targets(cfg.total_blocks)
        out = SearchOutcome()
        rounds_by_device = [0] * cfg.n_gpus
        done = False

        while not done:
            for g, device in enumerate(devices):
                lo = g * cfg.blocks_per_gpu
                batch = np.ascontiguousarray(
                    targets[lo : lo + cfg.blocks_per_gpu]
                )
                energies, xs = device.round(batch)
                host.absorb_batch(energies, xs)
                if controller is not None:
                    controller.observe(g, float(energies.min()))
                out.rounds += 1
                rounds_by_device[g] += 1
                if bus.enabled:
                    bus.counters.inc("host.rounds")
                    bus.emit(
                        "host.round",
                        round=out.rounds,
                        device=g,
                        best_energy=host.best_energy,
                        pool_size=len(host.pool),
                        elapsed=watch.elapsed,
                    )
                if self._met_target(host.best_energy):
                    if out.time_to_target is None:
                        out.time_to_target = watch.elapsed
                    done = True
                    break
                if cfg.time_limit is not None and watch.elapsed >= cfg.time_limit:
                    done = True
                    break
                if cfg.max_rounds is not None and out.rounds >= cfg.max_rounds:
                    done = True
                    break
            if math.isfinite(host.best_energy):
                out.history.append((watch.elapsed, int(host.best_energy)))
            if not done:
                if controller is not None:
                    move = controller.end_sweep()
                    if move is not None:
                        moved, _, to_name = move
                        self._apply_variant(
                            devices[moved], host, get_variant(to_name), moved
                        )
                targets = self._sync_targets(host, variants)

        elapsed = watch.stop()
        out.sweeps = min(rounds_by_device)
        for d in devices:
            _merge_counts(out.engine_counts, d.totals())
        if controller is not None:
            out.engine_counts["adapt.nonfinite_observations"] += (
                controller.nonfinite_observations
            )
        result = assemble_result(
            cfg,
            self.n,
            host,
            out,
            elapsed,
            met_target=self._met_target,
            bus=bus,
            extra={
                "adapt.variant_reassignments": (
                    controller.reassignments if controller is not None else 0
                ),
            },
            setup_ns=setup_ns,
            search_ns=int(round(elapsed * 1e9)),
        )
        if bus.enabled:
            self._emit_end(result)
        return result

    # ------------------------------------------------------------------
    # Process mode
    # ------------------------------------------------------------------
    def solve_on_fleet(
        self,
        workers: WorkerFleet,
        *,
        digest: str | None = None,
        cancelled=None,
        setup_start_ns: int | None = None,
    ) -> SolveResult:
        """Run one process-mode job on a started :class:`WorkerFleet`.

        The job is pushed onto the fleet's workers via its re-arm
        handshake, so a warm fleet (the service) skips spawn, transport
        setup and weight preparation.  Everything search-relevant — RNG
        factory, host pool, GA target sequence, device plans, adapt
        seeds — depends only on the problem and the config, never on
        the fleet's history, so a seeded job gives the same result on a
        warm fleet as on the fresh one ``solve("process")`` builds.

        ``digest`` (the problem digest from
        :func:`repro.qubo.io.problem_digest`) keys the fleet's
        shared-memory weights cache and the workers' prepared-weights
        caches; ``None`` disables both reuses.  ``cancelled`` is an
        optional zero-arg callable polled between rounds.
        ``setup_start_ns`` is the ``time.perf_counter_ns()`` reading the
        setup clock starts from (default: this call's entry); the search
        clock starts once every worker acknowledged the job.
        """
        cfg = self.config
        bus = self.bus
        t_entry = (
            time.perf_counter_ns() if setup_start_ns is None else setup_start_ns
        )
        self._check_process_config()
        wanted = fleet_params(cfg, self.n)
        if workers.params != wanted:
            raise ValueError(
                f"fleet parameters {workers.params} do not match job "
                f"{wanted}; build a new fleet for this configuration"
            )
        factory = RngFactory(cfg.seed)
        host, plans = self._job_plan(factory, self._variants())
        weights_ref, _weights_hit = workers.weights_ref_for(self.W, digest)
        job_seq = workers.next_job_seq()
        jobs = [
            WorkerJob(
                job_seq=job_seq,
                weights_ref=weights_ref,
                digest=digest,
                n_blocks=cfg.blocks_per_gpu,
                plan=plan,
                backend=cfg.backend,
                adapt_params=(
                    cfg.adapt_windows,
                    cfg.adapt_period,
                    cfg.adapt_fraction,
                    int(factory.stream("adapt-seed", g).integers(2**62)),
                ),
                telemetry_enabled=bus.enabled,
                lockstep=cfg.lockstep,
            )
            for g, plan in enumerate(plans)
        ]
        if bus.enabled:
            self._emit_start("process")
            bus.emit("exchange.open", **workers.transport.describe())
        workers.arm_job(jobs)
        setup_ns = time.perf_counter_ns() - t_entry
        watch = Stopwatch().start()
        outcome = run_search_rounds(
            cfg,
            host,
            workers,
            watch,
            bus=bus,
            met_target=self._met_target,
            job_seq=job_seq,
            cancelled=cancelled,
        )
        elapsed = watch.stop()
        restarts, lost, transport_stats = workers.take_job_stats()
        result = assemble_result(
            cfg,
            self.n,
            host,
            outcome,
            elapsed,
            met_target=self._met_target,
            bus=bus,
            extra={
                "supervisor.restarts": restarts,
                "supervisor.workers_lost": lost,
                # Process-mode fleets are static; keep the key for
                # counter parity with sync-mode snapshots.
                "adapt.variant_reassignments": 0,
                **transport_stats,
            },
            restarts=restarts,
            lost=lost,
            setup_ns=setup_ns,
            search_ns=int(round(elapsed * 1e9)),
        )
        if bus.enabled:
            self._emit_end(result)
        return result
