"""Adaptive per-block search-parameter tuning (paper §5, future work).

The paper closes with: *"an application-agnostic universal QUBO solver
can be considered.  To this end, each CUDA block would perform
different algorithms and possibly they are changed automatically."*

This module implements that idea for the one knob the Figure-2 policy
exposes — the selection-window size ``l`` (the temperature analogue).
A :class:`WindowAdapter` watches each block's per-round best energy
and, every ``period`` rounds, reassigns the windows of the worst
blocks:

1. blocks are ranked by their mean round-best energy over the period;
2. the bottom ``fraction`` of blocks each adopt the window of a random
   top-``fraction`` block, multiplied or divided by 2 (clamped to
   ``[1, n]``) so the ladder keeps exploring neighbouring temperatures;
3. counters reset and the next period begins.

The adaptation is deterministic given its RNG stream, so solver runs
remain reproducible by seed.

:class:`VariantController` applies the same feedback loop one level
up for Diverse ABS (arXiv:2207.03069): whole devices migrate between
registered search-variant recipes (:mod:`repro.abs.variants`) when one
variant's energies improve strictly faster than another's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.telemetry.bus import NULL_BUS, NullBus, TelemetryBus
from repro.utils.rng import SeedLike, as_generator


@dataclass(frozen=True)
class AdaptPlan:
    """One device's :class:`WindowAdapter` settings for a job.

    ``seed`` is a :class:`~numpy.random.SeedSequence` rather than a
    live generator, so the plan pickles into a process-mode job frame
    and builds the same adapter there as in a sync solve.
    """

    period: int
    fraction: float
    seed: np.random.SeedSequence


class WindowAdapter:
    """Evolves per-block window sizes toward what is currently working.

    Parameters
    ----------
    n:
        Problem size (windows are clamped to ``[1, n]``).
    n_blocks:
        Number of blocks whose windows are managed.
    period:
        Rounds between adaptations.
    fraction:
        Share of blocks replaced (and imitated) per adaptation.
    seed:
        RNG stream for donor selection and perturbation direction.
    bus:
        Optional telemetry bus; each adaptation emits one
        ``adapt.windows`` event (the window-size trajectory).
    """

    def __init__(
        self,
        n: int,
        n_blocks: int,
        *,
        period: int = 4,
        fraction: float = 0.25,
        seed: SeedLike = None,
        bus: TelemetryBus | NullBus | None = None,
    ) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if n_blocks < 1:
            raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        if not (0.0 < fraction <= 0.5):
            raise ValueError(f"fraction must be in (0, 0.5], got {fraction}")
        self.n = int(n)
        self.B = int(n_blocks)
        self.period = int(period)
        self.fraction = float(fraction)
        self._rng = as_generator(seed)
        self._bus = bus if bus is not None else NULL_BUS
        self._sums = np.zeros(self.B, dtype=np.float64)
        self._rounds = 0
        #: Total window reassignments performed (``adapt.reassignments``).
        self.adaptations = 0
        #: Non-finite per-block energies seen (and excluded) by
        #: :meth:`observe` — surfaced as ``adapt.nonfinite_observations``.
        self.nonfinite_observations = 0

    def observe(self, round_best: np.ndarray) -> None:
        """Record each block's best energy for the finished round.

        Non-finite entries (NaN/±inf — e.g. a block that has not
        evaluated anything yet) are excluded from the ranking sums: a
        single NaN would otherwise poison ``_sums`` permanently and
        ``argsort`` would rank that block arbitrarily forever after.
        Affected entries are replaced by the round's worst *finite*
        energy (so the block ranks as a loser, not as garbage) and
        counted in :attr:`nonfinite_observations`; a round with no
        finite energy at all is skipped entirely.
        """
        rb = np.asarray(round_best, dtype=np.float64)
        if rb.shape != (self.B,):
            raise ValueError(f"round_best must have shape ({self.B},), got {rb.shape}")
        finite = np.isfinite(rb)
        if not finite.all():
            bad = int(self.B - finite.sum())
            self.nonfinite_observations += bad
            if not finite.any():
                return
            rb = np.where(finite, rb, rb[finite].max())
        self._sums += rb
        self._rounds += 1

    @property
    def ready(self) -> bool:
        """Whether a full period has been observed."""
        return self._rounds >= self.period

    def adapt(self, windows: np.ndarray) -> np.ndarray:
        """Return the adapted copy of ``windows`` and reset the period.

        Call only when :attr:`ready`; raises otherwise.
        """
        if not self.ready:
            raise RuntimeError(
                f"adapt() called after {self._rounds}/{self.period} rounds"
            )
        w = np.asarray(windows, dtype=np.int64).copy()
        if w.shape != (self.B,):
            raise ValueError(f"windows must have shape ({self.B},), got {w.shape}")
        # Winners (imitated) and losers (replaced) must never overlap:
        # with k > B // 2 the same rank would be selected as a donor
        # *and* have its window overwritten in the same period.  B = 1
        # therefore adapts nothing (k = 0) — the period still resets.
        k = min(max(1, int(self.B * self.fraction)), self.B // 2)
        if k == 0:
            self._sums.fill(0.0)
            self._rounds = 0
            return w
        order = np.argsort(self._sums)  # ascending mean energy = best first
        winners = order[:k]
        losers = order[-k:]
        donors = self._rng.choice(winners, size=k, replace=True)
        factors = self._rng.choice((0.5, 1.0, 2.0), size=k)
        new = np.clip((w[donors] * factors).astype(np.int64), 1, self.n)
        w[losers] = np.maximum(new, 1)
        self.adaptations += k
        self._sums.fill(0.0)
        self._rounds = 0
        bus = self._bus
        if bus.enabled:
            bus.emit(
                "adapt.windows",
                reassigned=k,
                window_min=int(w.min()),
                window_max=int(w.max()),
                window_mean=float(w.mean()),
            )
        return w

    def maybe_adapt(self, windows: np.ndarray) -> np.ndarray | None:
        """``adapt`` if a period has elapsed, else ``None``."""
        if not self.ready:
            return None
        return self.adapt(windows)


class VariantController:
    """Device-level variant reallocation for Diverse ABS.

    The same feedback idea as :class:`WindowAdapter`, lifted one level
    up: instead of blocks trading window sizes inside a device, whole
    *devices* trade search-variant recipes across the fleet.  The
    controller watches each device's per-round best energy (the same
    signal the ``device.round`` telemetry stamps), groups it by the
    device's current variant, and every ``period`` sweeps compares
    each variant's mean energy against its mean over the *previous*
    window.  When one variant is improving strictly faster than
    another, a single device migrates from the stagnating variant to
    the improving one — never the stagnating variant's last device, so
    the fleet stays heterogeneous (the whole point of Diverse ABS).

    The controller is RNG-free: rankings, tie-breaks, and the choice
    of which device migrates (the worst-performing device of the
    stagnating variant) are all deterministic, so seeded runs stay
    reproducible.

    Parameters
    ----------
    assignment:
        Initial variant name per device (length = fleet size); the
        live assignment is readable at :attr:`assignment`.
    period:
        Sweeps (full passes over all devices) between reallocation
        decisions.
    bus:
        Optional telemetry bus: each migration emits one
        ``adapt.variant`` event.
    """

    def __init__(
        self,
        assignment: Sequence[str],
        *,
        period: int = 8,
        bus: TelemetryBus | NullBus | None = None,
    ) -> None:
        if not assignment:
            raise ValueError("assignment must name at least one device")
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        self.assignment = [str(name) for name in assignment]
        self.n_devices = len(self.assignment)
        self.period = int(period)
        self._bus = bus if bus is not None else NULL_BUS
        self._sums = np.zeros(self.n_devices, dtype=np.float64)
        self._counts = np.zeros(self.n_devices, dtype=np.int64)
        self._sweeps = 0
        self._prev_means: dict[str, float] | None = None
        #: Total device migrations (``adapt.variant_reassignments``).
        self.reassignments = 0
        #: Non-finite energies excluded by :meth:`observe`.
        self.nonfinite_observations = 0

    def observe(self, device: int, round_best: float) -> None:
        """Record ``device``'s best energy for its finished round."""
        if not (0 <= device < self.n_devices):
            raise ValueError(
                f"device must be in [0, {self.n_devices}), got {device}"
            )
        if not math.isfinite(round_best):
            self.nonfinite_observations += 1
            return
        self._sums[device] += float(round_best)
        self._counts[device] += 1

    def _variant_means(self) -> dict[str, float]:
        by_variant: dict[str, list[float]] = {}
        for g, name in enumerate(self.assignment):
            if self._counts[g]:
                by_variant.setdefault(name, []).append(
                    self._sums[g] / self._counts[g]
                )
        return {
            name: float(np.mean(means)) for name, means in by_variant.items()
        }

    def end_sweep(self) -> tuple[int, str, str] | None:
        """Close one fleet sweep; migrate a device if a period elapsed.

        Returns ``(device, from_variant, to_variant)`` when a device
        migrated, else ``None``.  The first full period only baselines
        the per-variant means — migrations need a previous window to
        measure improvement against.
        """
        self._sweeps += 1
        if self._sweeps < self.period:
            return None
        means = self._variant_means()
        prev = self._prev_means
        self._prev_means = means
        move = None
        if prev is not None:
            move = self._migrate(means, prev)
        self._sums.fill(0.0)
        self._counts.fill(0)
        self._sweeps = 0
        return move

    def _migrate(
        self, means: dict[str, float], prev: dict[str, float]
    ) -> tuple[int, str, str] | None:
        # Improvement = how much the variant's mean energy *dropped*
        # since the previous window; only variants measured in both
        # windows can be compared.
        improvement = {
            name: prev[name] - mean
            for name, mean in means.items()
            if name in prev
        }
        if len(improvement) < 2:
            return None
        # Deterministic tie-break: variant name orders equal scores.
        ranked = sorted(improvement.items(), key=lambda kv: (-kv[1], kv[0]))
        best_name, best_gain = ranked[0]
        worst_name, worst_gain = ranked[-1]
        if not (best_gain > worst_gain):
            return None
        members = [g for g, v in enumerate(self.assignment) if v == worst_name]
        if len(members) < 2:  # never extinguish a variant
            return None
        # Migrate the stagnating variant's worst device (highest mean
        # energy; ties resolve to the lowest device id).
        device = max(
            members, key=lambda g: (self._sums[g] / max(self._counts[g], 1), -g)
        )
        self.assignment[device] = best_name
        self.reassignments += 1
        bus = self._bus
        if bus.enabled:
            bus.emit(
                "adapt.variant",
                device=int(device),
                from_variant=worst_name,
                to_variant=best_name,
            )
        return int(device), worst_name, best_name
