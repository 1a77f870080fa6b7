"""One simulated GPU device executing the §3.2 loop.

Device steps (paper §3.2), realized on a
:class:`~repro.gpusim.engine.BulkSearchEngine`:

1. initialize every block from the zero vector (done by the engine);
2. read target solutions ``T``;
3. reset each block's best solution/energy;
4. (a) straight search from the current solution to ``T``,
   (b) bulk local search from ``T`` with a fixed number of flips;
5. report each block's best solution.

:meth:`DeviceSimulator.round` performs Steps 2–5 once for all blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.abs.adaptive import AdaptPlan, WindowAdapter
from repro.gpusim.engine import BulkSearchEngine
from repro.qubo.matrix import WeightsLike
from repro.search.tabu import TabuSearch
from repro.telemetry.bus import NULL_BUS, NullBus, TelemetryBus


@dataclass(frozen=True)
class DevicePlan:
    """One device's search parameters for a job (its variant applied).

    Built on the host by :meth:`~repro.abs.solver.AdaptiveBulkSearch.
    _device_plan`, shipped whole to a process-mode worker inside its
    job frame, and turned into device settings only by
    :meth:`DeviceSimulator.apply`.  ``adapt`` (``None``: no window
    adaptation) is read once, when :meth:`DeviceSimulator.from_plan`
    builds the device's adapter; :meth:`~DeviceSimulator.apply` leaves
    a running adapter alone.
    """

    windows: np.ndarray
    local_steps: int
    scan_neighbors: bool
    tabu_steps: int = 0
    tabu_tenure: int | None = None
    adapt: AdaptPlan | None = None


class DeviceSimulator:
    """Wraps a bulk engine as one ABS device.

    Parameters
    ----------
    weights:
        Problem weights.
    n_blocks:
        CUDA blocks simulated by this device.
    windows:
        Per-block Figure-2 window sizes (see
        :func:`~repro.abs.config.resolve_windows`).
    local_steps:
        Fixed number of forced flips in Step 4b.
    scan_neighbors:
        Whether the straight-search phase also tracks the incumbent
        over all exposed neighbors.
    backend:
        Kernel backend for the engine (name, instance, or ``None`` for
        the environment/default resolution — see :mod:`repro.backends`).
    bus:
        Optional telemetry bus; the device emits one ``device.round``
        event per round (and hands the bus to its engine).
    device_id:
        Identifier stamped on emitted events (the GPU index).
    tabu_steps:
        Diverse-ABS variant knob: when positive, each round's best
        block solution gets a :class:`~repro.search.tabu.TabuSearch`
        polish of this many steps before Step 5 reports it (the
        engine's walk state is untouched — only the reported copy
        improves).  Steps spent here are tracked separately from the
        ``engine.*`` flip counters as ``variant.tabu_steps``.
    tabu_tenure:
        Tenure for the polish pass (``None``: the search's default).
    prepared:
        Optional PreparedWeights from a previous engine over the same
        weights and backend; skips backend prep (warm-fleet reuse).
    """

    def __init__(
        self,
        weights: WeightsLike,
        n_blocks: int,
        *,
        windows: int | np.ndarray = 16,
        local_steps: int = 32,
        scan_neighbors: bool = True,
        adapter: WindowAdapter | None = None,
        backend: str | None = None,
        bus: TelemetryBus | NullBus | None = None,
        device_id: int = 0,
        tabu_steps: int = 0,
        tabu_tenure: int | None = None,
        prepared: object | None = None,
    ) -> None:
        self.bus = bus if bus is not None else NULL_BUS
        self.device_id = int(device_id)
        self.engine = BulkSearchEngine(
            weights,
            n_blocks,
            windows=windows,
            backend=backend,
            bus=self.bus,
            prepared=prepared,
        )
        self.adapter = adapter
        if adapter is not None and adapter.B != self.engine.B:
            raise ValueError(
                f"adapter manages {adapter.B} blocks, device has {self.engine.B}"
            )
        self._weights = weights
        self._polish_cache: object | None = None
        plan = DevicePlan(
            self.engine.windows, local_steps, scan_neighbors, tabu_steps, tabu_tenure
        )
        self.apply(plan)
        #: Total tabu-polish steps executed (``variant.tabu_steps``).
        self.tabu_steps_done = 0
        self.rounds = 0

    @classmethod
    def from_plan(
        cls, weights: WeightsLike, n_blocks: int, plan: DevicePlan, **kwargs: Any
    ) -> "DeviceSimulator":
        """A device running ``plan`` (with its window adapter, if the
        plan has one); ``kwargs`` as for the constructor."""
        device = cls(weights, n_blocks, windows=plan.windows, **kwargs)
        device.apply(plan)
        a = plan.adapt
        if a is not None:
            device.adapter = WindowAdapter(
                device.engine.n,
                n_blocks,
                period=a.period,
                fraction=a.fraction,
                seed=a.seed,
                bus=device.bus,
            )
        return device

    def apply(self, plan: DevicePlan) -> None:
        """Adopt ``plan``'s window ladder, Step-4b flips, neighbor scan
        and tabu polish; the walk state and counters are untouched."""
        if plan.local_steps < 0:
            raise ValueError(f"local_steps must be >= 0, got {plan.local_steps}")
        self.engine.windows = np.array(plan.windows, dtype=np.int64)
        self.local_steps = int(plan.local_steps)
        self.scan_neighbors = bool(plan.scan_neighbors)
        self.set_tabu(plan.tabu_steps, plan.tabu_tenure)

    def set_tabu(self, steps: int, tenure: int | None = None) -> None:
        """(Re)configure the per-round tabu polish; ``0`` disables it."""
        if steps < 0:
            raise ValueError(f"tabu_steps must be >= 0, got {steps}")
        self.tabu_steps = int(steps)
        self._tabu = TabuSearch(tenure) if self.tabu_steps else None

    def _polish_weights(self) -> object:
        # The polish runs on the host side of the simulated device;
        # TabuSearch needs a dense matrix, so sparse problems are
        # densified once on first use (they are small by construction).
        if self._polish_cache is None:
            from repro.qubo.sparse import SparseQubo

            w = self._weights
            self._polish_cache = (
                w.to_dense() if isinstance(w, SparseQubo) else w
            )
        return self._polish_cache

    @property
    def n_blocks(self) -> int:
        """Number of simulated CUDA blocks."""
        return self.engine.B

    @property
    def evaluated(self) -> int:
        """Total solutions evaluated by this device (Definition 1)."""
        return self.engine.counters.evaluated

    def totals(self) -> dict[str, int]:
        """The device's cumulative counters, keyed and ordered like
        :data:`~repro.abs.exchange.ENGINE_COUNTER_KEYS`.

        The one record a device reports: a process-mode worker ships
        it with every result and a sync solve sums it over devices.
        """
        a = self.adapter
        return {
            **self.engine.counters.as_dict(),
            "adapt.reassignments": a.adaptations if a is not None else 0,
            "adapt.nonfinite_observations": (
                a.nonfinite_observations if a is not None else 0
            ),
            "variant.tabu_steps": self.tabu_steps_done,
        }

    def round(self, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Steps 2–5 for every block; returns ``(energies, best_x)``.

        ``targets`` has shape ``(n_blocks, n)`` — one GA target per
        block.  The walk position persists across rounds (iteration
        ``i`` starts from the final solution of iteration ``i − 1``,
        Figure 4), which is what keeps the search efficiency at O(1).

        The Step-5 gather is batched: ``energies`` is the ``(B,)``
        int64 per-block best energies and ``best_x`` the matching
        ``(B, n)`` uint8 solutions — two array copies instead of B
        per-block solution objects.
        """
        eng = self.engine
        c = eng.counters
        straight0, local0, eval0 = c.straight_flips, c.local_flips, c.evaluated
        retired0 = c.straight_retirements
        eng.reset_best()                                  # Step 3
        eng.straight_to(targets, scan_neighbors=self.scan_neighbors)  # 4a
        eng.local_steps(self.local_steps)                 # Step 4b
        self.rounds += 1
        bus = self.bus
        if bus.enabled:
            bus.emit(
                "device.round",
                device=self.device_id,
                round=self.rounds,
                straight_flips=c.straight_flips - straight0,
                retired=c.straight_retirements - retired0,
                local_flips=c.local_flips - local0,
                evaluated=c.evaluated - eval0,
                best_energy=int(eng.best_energy.min()),
            )
        if self.adapter is not None:
            # Future-work feature: blocks whose searches underperform
            # adopt (perturbed) windows from the best-performing blocks.
            self.adapter.observe(eng.best_energy)
            adapted = self.adapter.maybe_adapt(eng.windows)
            if adapted is not None:
                eng.windows = adapted
        energies, xs = eng.best_energy.copy(), eng.best_x.copy()  # Step 5
        if self._tabu is not None:
            # Diverse-ABS tabu variant: polish the round's best block
            # solution before reporting it.  Only the reported copy is
            # touched — the engine's walk state stays on its own
            # trajectory, like the paper's independent CPU search.
            b = int(energies.argmin())
            rec = self._tabu.run(
                self._polish_weights(), xs[b], self.tabu_steps, seed=0
            )
            self.tabu_steps_done += rec.steps
            if rec.best_energy < energies[b]:
                energies[b] = rec.best_energy
                xs[b] = rec.best_x
        return energies, xs
