"""The CPU host and its loop (paper §3.1, Figure 5).

Host steps:

1. initialize the solution pool (random bit vectors at energy +∞) and
   the target buffer;
2. wait for new solutions stored by devices (poll the counter);
3. insert arrived solutions into the sorted, duplicate-free pool;
4. generate and store as many new GA targets as solutions arrived.

:func:`run_search_rounds` runs Steps 2–4 for every solve, sync or
process, over a :class:`DeviceSet` that picks the Step-4 policy:
**sweep** (sync's in-process devices) absorbs every device's batch in
device order, then draws the whole sweep's targets; **per-result** (a
:class:`~repro.abs.fleet.WorkerFleet`) answers each batch as it lands.

The host **never evaluates the energy function** — every energy it
handles was computed by a device.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Protocol, Sequence

import numpy as np

from repro.abs.config import AbsConfig
from repro.ga.host import GaConfig, TargetGenerator
from repro.ga.pool import SolutionPool
from repro.telemetry.bus import NULL_BUS, NullBus, TelemetryBus
from repro.utils.rng import RngFactory

if TYPE_CHECKING:
    from repro.abs.exchange import ResultBatch


class Host:
    """Pool management + GA target generation for one solve."""

    def __init__(
        self,
        n: int,
        pool_capacity: int,
        ga: GaConfig | None = None,
        *,
        rng_factory: RngFactory | None = None,
        bus: TelemetryBus | NullBus | None = None,
        min_distance: int = 0,
        device_ga: Sequence[GaConfig] | None = None,
    ) -> None:
        factory = rng_factory or RngFactory(None)
        self.bus = bus if bus is not None else NULL_BUS
        self.pool = SolutionPool(n, pool_capacity, min_distance=min_distance)
        self.pool.seed_random(factory.stream("pool-seed"))       # Step 1
        self.generator = TargetGenerator(
            self.pool, ga or GaConfig(), seed=factory.stream("ga")
        )
        # Diverse-ABS heterogeneous fleet: one generator per device so
        # each variant's GA operator mix draws from its own stream.
        # ``None`` (the default) keeps the single-generator base-paper
        # behavior — and its RNG draw order — bit-for-bit.
        self.device_generators: list[TargetGenerator] | None = None
        if device_ga is not None:
            self.device_generators = [
                TargetGenerator(
                    self.pool, cfg_g, seed=factory.stream("ga-variant", g)
                )
                for g, cfg_g in enumerate(device_ga)
            ]
        #: Best device-reported solution ever seen (pool eviction-proof).
        self.best_energy: float = math.inf
        self.best_x: np.ndarray | None = None
        self.absorbed = 0

    @property
    def n(self) -> int:
        """Bits per solution."""
        return self.pool.n

    def initial_targets(self, count: int) -> np.ndarray:
        """Targets for the very first round: the seeded random pool.

        The devices' first straight search therefore walks from the
        zero vector to these random solutions, giving the pool its
        first real energies.  Returns a ``(count, n)`` uint8 matrix —
        pool entries repeated cyclically when ``count`` exceeds the
        pool size.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        return self.pool.rows(np.arange(count) % len(self.pool))

    def set_device_ga(self, device: int, ga: GaConfig) -> None:
        """Swap device ``device``'s GA operator mix (variant migration).

        The generator object — and therefore its RNG stream — is kept;
        only its config changes, so seeded runs stay reproducible
        across reallocations.
        """
        if self.device_generators is None:
            raise RuntimeError("host was built without per-device generators")
        self.device_generators[device].config = ga

    @property
    def ga_counts(self) -> dict[str, int]:
        """GA operator counts summed over every generator."""
        counts = dict(self.generator.counts)
        for gen in self.device_generators or ():
            for key, value in gen.counts.items():
                counts[key] += value
        return counts

    def absorb_batch(self, energies: np.ndarray, X: np.ndarray) -> int:
        """Step 3: pool one device round's ``(energies, X)``; returns #inserted.

        The incumbent is tracked outside the pool (one vectorized
        ``argmin``), and the pool takes the whole matrix through
        :meth:`~repro.ga.pool.SolutionPool.insert_batch` (one
        ``np.packbits`` for every duplicate key).
        """
        energies = np.asarray(energies)
        X = np.asarray(X, dtype=np.uint8)
        if X.ndim != 2 or energies.shape != (X.shape[0],):
            raise ValueError(
                f"want energies (k,) and X (k, n); got {energies.shape} "
                f"and {X.shape}"
            )
        pool = self.pool
        dup0, worse0 = pool.rejected_duplicate, pool.rejected_worse
        div0 = pool.rejected_diverse
        arrived = X.shape[0]
        self.absorbed += arrived
        if arrived:
            b = int(energies.argmin())
            if energies[b] < self.best_energy:
                self.best_energy = int(energies[b])
                self.best_x = X[b].copy()
        inserted = pool.insert_batch(X, energies)
        self._emit_absorb(arrived, inserted, dup0, worse0, div0)
        return inserted

    def _emit_absorb(
        self, arrived: int, inserted: int, dup0: int, worse0: int, div0: int
    ) -> None:
        bus = self.bus
        if not bus.enabled:
            return
        pool = self.pool
        rng = pool.finite_energy_range()
        bus.emit(
            "host.absorb",
            arrived=arrived,
            inserted=inserted,
            rejected_duplicate=pool.rejected_duplicate - dup0,
            rejected_worse=pool.rejected_worse - worse0,
            rejected_diverse=pool.rejected_diverse - div0,
            pool_size=len(pool),
            pool_best=rng[0] if rng else None,
            pool_worst=rng[1] if rng else None,
            pool_spread=rng[1] - rng[0] if rng else None,
        )

    def make_targets(self, count: int, device: int | None = None) -> np.ndarray:
        """Step 4: GA-generate ``count`` fresh targets (``(count, n)``).

        ``device`` selects that device's variant generator when the
        host was built with per-device GA configs; ``None`` uses the
        shared base generator (the only one that exists — and the only
        RNG stream consumed — on a homogeneous run).
        """
        if device is None or self.device_generators is None:
            generator = self.generator
        else:
            generator = self.device_generators[device]
        targets = generator.generate(count)
        bus = self.bus
        if bus.enabled:
            counts = self.ga_counts
            bus.counters.inc("host.targets_generated", count)
            bus.emit(
                "host.targets",
                count=count,
                mutation=counts["mutation"],
                crossover=counts["crossover"],
                copy=counts["copy"],
            )
        return targets


# ----------------------------------------------------------------------
# The host loop
# ----------------------------------------------------------------------
class DeviceSet(Protocol):
    """The devices of one job, as :func:`run_search_rounds` drives them.

    ``poll`` returns the next batch (``None``: none within ``timeout``)
    with the device's cumulative totals as ``counters`` — empty for a
    superseded incarnation, whose totals were banked.  ``supervise``
    restarts or retires unhealthy devices and returns their ids.
    ``end_sweep`` runs before a sweep's Step 4 (sweep sets only);
    ``finish`` returns the set's own run counters.
    """

    sweep: bool

    @property
    def healthy_ids(self) -> list[int]: ...
    def put(self, device: int, targets: np.ndarray) -> None: ...
    def poll(self, timeout: float) -> ResultBatch | None: ...
    def supervise(self) -> list[int]: ...
    def end_sweep(self, host: Host) -> None: ...
    def finish(self) -> dict[str, int]: ...


@dataclass
class SearchOutcome:
    """What one run of :func:`run_search_rounds` produced."""

    rounds: int = 0
    sweeps: int = 0
    engine_counts: dict[str, int] = field(default_factory=dict)
    history: list[tuple[float, int]] = field(default_factory=list)
    time_to_target: float | None = None


def _merge_counts(into: dict[str, int], add: dict[str, int]) -> None:
    for key, value in add.items():
        into[key] = into.get(key, 0) + int(value)


def _sweep_targets(cfg: AbsConfig, host: Host) -> list[np.ndarray]:
    """Step 4 for a sweep: one batch per device.  A homogeneous run
    draws once for the whole sweep, keeping the base RNG order."""
    per = cfg.blocks_per_gpu
    if host.device_generators is None:
        targets = host.make_targets(cfg.total_blocks)
        return [targets[g * per : (g + 1) * per] for g in range(cfg.n_gpus)]
    return [host.make_targets(per, device=g) for g in range(cfg.n_gpus)]


def run_search_rounds(
    cfg: AbsConfig,
    host: Host,
    devices: DeviceSet,
    watch: Any,
    *,
    bus: TelemetryBus | NullBus,
    met_target: Callable[[float], bool],
    cancelled: Callable[[], bool] | None = None,
) -> SearchOutcome:
    """The host loop: post the seeded pool as first targets, then absorb
    one device batch per round until the target energy, ``cancelled``,
    ``time_limit`` or ``max_rounds`` stops it, answering under the
    device set's Step-4 policy.  Counters are each device's latest
    absorbed totals plus those banked from replaced incarnations."""
    per = cfg.blocks_per_gpu
    out = SearchOutcome()
    rounds_by_device = [0] * cfg.n_gpus
    latest: list[dict[str, int]] = [{} for _ in range(cfg.n_gpus)]
    banked: dict[str, int] = {}

    targets = host.initial_targets(cfg.total_blocks)
    for g in devices.healthy_ids:
        devices.put(g, np.ascontiguousarray(targets[g * per : (g + 1) * per]))

    done = False
    while not done:
        for g in devices.supervise():
            # A replacement counts from zero and starts from fresh pool
            # targets (Algorithm 5 walks it there from the zero state).
            _merge_counts(banked, latest[g])
            latest[g] = {}
            if g in devices.healthy_ids:
                devices.put(g, host.make_targets(per, device=g))
        batch = devices.poll(timeout=0.25)
        if batch is None:
            done = (cancelled is not None and cancelled()) or (
                cfg.time_limit is not None and watch.elapsed >= cfg.time_limit
            )
            if not done and not devices.healthy_ids:
                raise RuntimeError("all ABS workers died before finishing")
            continue
        g = batch.worker_id
        out.rounds += 1
        rounds_by_device[g] += 1
        if batch.counters:
            latest[g] = batch.counters
        host.absorb_batch(batch.energies, batch.x)
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
        if math.isfinite(host.best_energy):
            out.history.append((watch.elapsed, int(host.best_energy)))
        if met_target(host.best_energy):
            out.time_to_target = watch.elapsed
            done = True
        elif (
            (cancelled is not None and cancelled())
            or (cfg.time_limit is not None and watch.elapsed >= cfg.time_limit)
            or (cfg.max_rounds is not None and out.rounds >= cfg.max_rounds)
        ):
            done = True
        elif not devices.sweep:
            if g in devices.healthy_ids:  # never feed a lost device
                devices.put(g, host.make_targets(per, device=g))
        elif out.rounds % cfg.n_gpus == 0:  # every device reported
            devices.end_sweep(host)
            for d, sweep_batch in enumerate(_sweep_targets(cfg, host)):
                devices.put(d, sweep_batch)

    for counts in latest:
        _merge_counts(banked, counts)
    out.engine_counts = banked
    healthy = devices.healthy_ids
    out.sweeps = min([rounds_by_device[g] for g in healthy] or rounds_by_device)
    return out
