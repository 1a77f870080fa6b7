"""The top-level ABS solver: host + devices in sync or process mode.

``"sync"`` mode runs every device in this process
(:class:`InProcessDevices`) — deterministic given a seed, and the mode
every time-to-solution benchmark uses.

``"process"`` mode runs one OS process per simulated GPU on a
:class:`~repro.abs.fleet.WorkerFleet`, mirroring the paper's multi-GPU
deployment.  A one-shot ``solve("process")`` builds a fleet from the
config, runs one job on it through :meth:`AdaptiveBulkSearch.
solve_on_fleet`, and shuts it down; the solver service runs many jobs
on one fleet through the same method.  The weight matrix lives in
shared memory (one copy, like GPU global memory), targets flow host →
device and solutions device → host through the bit-packed
shared-memory rings of :mod:`repro.abs.exchange`, and nobody blocks on
anybody — a device that sees no fresh targets keeps searching from its
current state, exactly the paper's asynchronous tolerance.
``AbsConfig.lockstep`` makes workers wait for fresh targets after every
round, which makes a single-worker run deterministic (with several
workers the arrival order still varies).

Both modes build the host and every device's
:class:`~repro.abs.device.DevicePlan` with one job plan
(:meth:`AdaptiveBulkSearch._job_plan`), run one host loop
(:func:`~repro.abs.host.run_search_rounds`; the device set picks its
Step-4 policy), and take one result path
(:meth:`AdaptiveBulkSearch._search`), which recomputes the reported
energy from ``best_x`` and raises if they disagree.
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

import time
from typing import Callable

import numpy as np

from repro.abs.adaptive import AdaptPlan, VariantController
from repro.abs.config import AbsConfig, resolve_windows
from repro.abs.device import DevicePlan, DeviceSimulator
from repro.abs.exchange import ResultBatch, resolve_exchange
from repro.abs.fleet import FleetDevices, WorkerFleet, WorkerJob, fleet_params
from repro.abs.host import DeviceSet, Host, _merge_counts, run_search_rounds
from repro.abs.result import SolveResult
from repro.abs.variants import SearchVariant, get_variant, resolve_fleet
from repro.ga.host import GaConfig
from repro.qubo.energy import energy
from repro.qubo.matrix import WeightsLike, as_weight_matrix
from repro.telemetry.bus import NULL_BUS, NullBus, TelemetryBus
from repro.utils.rng import RngFactory
from repro.utils.timer import Stopwatch


class InProcessDevices:
    """Sync mode's :class:`~repro.abs.host.DeviceSet`: :meth:`poll` runs
    the next device's round inline, in device order (Step-4 policy
    ``sweep``; nothing to supervise).  Variant reassignment rides here,
    which keeps it sync-only: each round's best feeds the
    :class:`VariantController`, and :meth:`end_sweep` applies its
    migration before the sweep's targets are drawn."""

    sweep = True

    def __init__(
        self,
        devices: list[DeviceSimulator],
        controller: VariantController | None,
        plan: Callable[[SearchVariant, int], DevicePlan],
        ga: GaConfig,
    ) -> None:
        self.devices = devices
        self.controller = controller
        self._plan = plan
        self._ga = ga
        self.healthy_ids = list(range(len(devices)))
        self._targets: dict[int, np.ndarray] = {}
        self._next = 0

    def put(self, device: int, targets: np.ndarray) -> None:
        self._targets[device] = targets

    def poll(self, timeout: float) -> ResultBatch:
        g = self._next
        self._next = (g + 1) % len(self.devices)
        device = self.devices[g]
        energies, xs = device.round(self._targets[g])
        if self.controller is not None:
            self.controller.observe(g, float(energies.min()))
        return ResultBatch(g, 0, energies, xs, device.totals())

    def supervise(self) -> list[int]:
        return []

    def end_sweep(self, host: Host) -> None:
        move = self.controller.end_sweep() if self.controller else None
        if move is not None:
            g, _, to_name = move
            variant = get_variant(to_name)
            self.devices[g].apply(self._plan(variant, g))
            host.set_device_ga(g, variant.effective_ga(self._ga))

    def finish(self) -> dict[str, int]:
        c = self.controller
        if c is None:
            return {}
        return {
            "adapt.variant_reassignments": c.reassignments,
            "adapt.nonfinite_observations": c.nonfinite_observations,
        }


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

        ``"sync"`` runs every device in this process
        (:class:`InProcessDevices`).  ``"process"`` runs on a transient
        :class:`WorkerFleet`: built from the config, started, handed
        this one job, shut down.  Both drive the same host loop.
        """
        t_entry = time.perf_counter_ns()
        cfg = self.config
        if mode == "process":
            self._check_process_config()
            with WorkerFleet(**fleet_params(cfg), bus=self.bus) as workers:
                workers.start()
                return self.solve_on_fleet(workers, setup_start_ns=t_entry)
        if mode != "sync":
            raise ValueError(f"unknown mode {mode!r} (use 'sync' or 'process')")
        variants = self._variants()
        host, plans = self._job_plan(RngFactory(cfg.seed), variants)
        devices = [
            DeviceSimulator.from_plan(
                self.W,
                cfg.blocks_per_gpu,
                plan,
                backend=cfg.backend,
                bus=self.bus,
                device_id=g,
            )
            for g, plan in enumerate(plans)
        ]
        controller = (
            VariantController(
                [v.name for v in variants],
                period=cfg.variant_adapt_period,
                bus=self.bus,
            )
            if variants is not None and cfg.variant_adapt
            else None
        )
        if self.bus.enabled:
            self._emit_start("sync")
        return self._search(
            host,
            InProcessDevices(devices, controller, self._device_plan, cfg.ga),
            t_entry,
        )

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

    def _device_plan(
        self, variant: SearchVariant | None, g: int, adapt: AdaptPlan | None = None
    ) -> DevicePlan:
        """Device ``g``'s parameters.  Devices get rotated window
        ladders so the temperature spread differs across GPUs; with a
        variant, the ladder and step counts come from its spec."""
        cfg = self.config
        if variant is None:
            base = resolve_windows(cfg.window, cfg.blocks_per_gpu, self.n)
            return DevicePlan(
                np.roll(base, g), cfg.local_steps, cfg.scan_neighbors, adapt=adapt
            )
        return DevicePlan(
            np.roll(variant.windows(cfg.window, cfg.blocks_per_gpu, self.n), g),
            variant.effective_local_steps(cfg.local_steps),
            variant.effective_scan(cfg.scan_neighbors),
            variant.tabu_steps,
            variant.tabu_tenure,
            adapt,
        )

    def _adapt_plan(self, factory: RngFactory, g: int) -> AdaptPlan | None:
        cfg = self.config
        if not cfg.adapt_windows:
            return None
        return AdaptPlan(
            cfg.adapt_period, cfg.adapt_fraction, factory.seed_sequence("adapt", g)
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
            self._device_plan(
                variants[g] if variants is not None else None,
                g,
                self._adapt_plan(factory, g),
            )
            for g in range(cfg.n_gpus)
        ]
        return host, plans

    def _check_process_config(self) -> None:
        # Refuse a transport name from REPRO_EXCHANGE as AbsConfig
        # refuses one from the config.
        resolve_exchange(self.config.exchange)
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

    def _search(
        self,
        host: Host,
        devices: DeviceSet,
        t_entry: int,
        cancelled: Callable[[], bool] | None = None,
    ) -> SolveResult:
        """The one result path, sync or process.

        ``setup_ns`` runs from ``t_entry`` to here, then the search
        clock runs the host loop.  ``result.counters`` is derived from
        component state afterwards, telemetry or not: the devices'
        summed :meth:`~repro.abs.device.DeviceSimulator.totals`, the
        device set's own counters (:meth:`~repro.abs.host.DeviceSet.
        finish`; the ``supervisor.*`` ones are this job's, so a
        long-lived fleet's history does not leak into every result) and
        the host's; ``pool.inserted`` includes the Step-1 seeding.
        Wall-clock stays out of ``result.counters``: that snapshot is
        pinned bit-identical across runs and telemetry on and off (in
        process mode, apart from the workers' ``exchange.*`` wait
        counters, which depend on timing).  With telemetry on it is also added to ``bus.counters``
        here, the only place run counters reach the session; a run that
        raises first (the answer check included) adds none.
        """
        cfg = self.config
        bus = self.bus
        setup_ns = time.perf_counter_ns() - t_entry
        watch = Stopwatch().start()
        outcome = run_search_rounds(
            cfg,
            host,
            devices,
            watch,
            bus=bus,
            met_target=self._met_target,
            cancelled=cancelled,
        )
        elapsed = watch.stop()
        search_ns = int(round(elapsed * 1e9))
        best_x = host.best_x
        if best_x is not None:
            # The answer oracle: the device-reported energy must be the
            # reported solution's energy, recomputed from scratch.
            check = energy(self.W, best_x)
            if check != host.best_energy:
                raise RuntimeError(
                    f"reported best energy {int(host.best_energy)} but best_x "
                    f"has energy {check}, recomputed from scratch"
                )
        ga = host.ga_counts
        counters = {
            "host.solutions_absorbed": host.absorbed,
            "pool.inserted": host.pool.inserted,
            "pool.rejected_duplicate": host.pool.rejected_duplicate,
            "pool.rejected_worse": host.pool.rejected_worse,
            "pool.rejected_diverse": host.pool.rejected_diverse,
            "ga.mutation": ga["mutation"],
            "ga.crossover": ga["crossover"],
            "ga.copy": ga["copy"],
            # Keys every mode reports, whether or not it adapts.
            "adapt.reassignments": 0,
            "adapt.variant_reassignments": 0,
        }
        engine = outcome.engine_counts
        for add in (engine, devices.finish()):
            _merge_counts(counters, add)
        counters = dict(sorted(counters.items()))
        if bus.enabled:
            for key, value in counters.items():
                if value:
                    bus.counters.inc(key, value)
            bus.counters.inc("solver.setup_ns", setup_ns)
            bus.counters.inc("solver.search_ns", search_ns)
        result = SolveResult(
            best_x=best_x if best_x is not None else np.zeros(self.n, np.uint8),
            best_energy=int(host.best_energy) if best_x is not None else 0,
            elapsed=elapsed,
            rounds=outcome.rounds,
            sweeps=outcome.sweeps,
            evaluated=engine.get("engine.evaluated", 0),
            flips=engine.get("engine.flips", 0),
            reached_target=self._met_target(host.best_energy),
            time_to_target=outcome.time_to_target,
            history=outcome.history,
            n_gpus=cfg.n_gpus,
            counters=counters,
            workers_restarted=counters.get("supervisor.restarts", 0),
            workers_lost=counters.get("supervisor.workers_lost", 0),
            pool_mean_distance=host.pool.mean_pairwise_distance(),
            setup_ns=setup_ns,
            search_ns=search_ns,
        )
        if bus.enabled:
            bus.emit(
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
        wanted = fleet_params(cfg)
        if workers.params != wanted:
            raise ValueError(
                f"fleet parameters {workers.params} do not match job "
                f"{wanted}; build a new fleet for this configuration"
            )
        factory = RngFactory(cfg.seed)
        host, plans = self._job_plan(factory, self._variants())
        weights_ref, _weights_hit = workers.weights_ref_for(self.W, digest)
        jobs = [
            WorkerJob(
                weights_ref=weights_ref,
                digest=digest,
                n_blocks=cfg.blocks_per_gpu,
                plan=plan,
                backend=cfg.backend,
                telemetry_enabled=bus.enabled,
                lockstep=cfg.lockstep,
            )
            for g, plan in enumerate(plans)
        ]
        if bus.enabled:
            self._emit_start("process")
        job_seq = workers.arm_job(self.n, jobs)
        if bus.enabled:
            bus.emit("exchange.open", **workers.transport.describe())
        return self._search(
            host, FleetDevices(workers, job_seq, bus), t_entry, cancelled
        )
