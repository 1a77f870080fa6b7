"""The CPU host loop (paper §3.1).

Host steps:

1. initialize the solution pool (random bit vectors at energy +∞) and
   the target buffer;
2. wait for new solutions stored by devices (poll the counter);
3. insert arrived solutions into the sorted, duplicate-free pool;
4. generate and store as many new GA targets as solutions arrived.

The host **never evaluates the energy function** — every energy it
handles was computed by a device.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.ga.host import GaConfig, TargetGenerator
from repro.ga.pool import SolutionPool
from repro.telemetry.bus import NULL_BUS, NullBus, TelemetryBus
from repro.utils.rng import RngFactory


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
        pool_mat = self.pool.as_matrix()
        idx = np.arange(count) % len(self.pool)
        return np.ascontiguousarray(pool_mat[idx])

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
