"""Large-problem decomposition solving (qbsolv-style outer loop).

The paper's engine holds the whole problem per device (32 k-bit cap,
§3.2); problems beyond what a device can hold are the classic territory
of decomposition solvers such as D-Wave's qbsolv.  This module adds
that outer loop on top of ABS:

1. keep a global incumbent ``x`` with live ``Δ`` bookkeeping
   (:class:`~repro.qubo.state.SearchState` — so selection is O(1) per
   bit and applying a sub-solution costs O(flips · n));
2. each iteration selects a subset ``S`` of ``subproblem_size``
   variables — by most-promising ``Δ`` values plus random fill, or
   uniformly at random;
3. the sub-QUBO conditioned on the frozen complement is
   ``W_sub[i,j] = W[S_i, S_j]`` (i ≠ j) and
   ``W_sub[i,i] = W[S_i,S_i] + 2·Σ_{j∉S} W[S_i, j]·x_j``,
   so that for any sub-assignment ``y``:
   ``E(x ⊕ S←y) = E_sub(y) + const(x, S)``;
4. the subproblem is solved by a short ABS run; improving
   sub-solutions are applied to the incumbent via incremental flips.

Works with dense and sparse weight backends alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.abs.config import AbsConfig
from repro.abs.solver import AdaptiveBulkSearch
from repro.backends.graycode import MAX_GRAYCODE_BITS, graycode_minimum
from repro.qubo.matrix import QuboMatrix, as_weight_matrix
from repro.qubo.sparse import SparseQubo
from repro.qubo.state import SearchState
from repro.telemetry import NULL_BUS
from repro.utils.rng import RngFactory
from repro.utils.timer import Stopwatch


@dataclass
class DecompositionConfig:
    """Outer-loop tunables.

    Attributes
    ----------
    subproblem_size:
        Variables per subproblem (``k``).
    iterations:
        Outer iterations to run.
    selection:
        ``"delta"`` — half the subset from the most negative ``Δ``
        (most promising single flips), half uniformly random (for
        diversification); ``"random"`` — all uniform.
    inner_rounds, inner_blocks, inner_steps:
        Budget of each inner ABS solve.
    exact_below:
        Subproblems of this many variables or fewer are solved to
        proven optimality by Gray-code enumeration
        (:func:`repro.backends.graycode.graycode_minimum`) instead of
        an inner ABS run; ``None`` disables the exact finisher.  Capped
        at :data:`~repro.backends.graycode.MAX_GRAYCODE_BITS`.
    patience:
        Stop after this many consecutive non-improving iterations
        (``None`` disables).
    seed:
        Root seed for subset selection, the initial incumbent, and all
        inner solves.
    """

    subproblem_size: int = 48
    iterations: int = 20
    selection: str = "delta"
    inner_rounds: int = 12
    inner_blocks: int = 16
    inner_steps: int = 24
    exact_below: int | None = None
    patience: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.subproblem_size < 2:
            raise ValueError(
                f"subproblem_size must be >= 2, got {self.subproblem_size}"
            )
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.selection not in ("delta", "random"):
            raise ValueError(
                f"selection must be 'delta' or 'random', got {self.selection!r}"
            )
        for name in ("inner_rounds", "inner_blocks", "inner_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.exact_below is not None and not (
            2 <= self.exact_below <= MAX_GRAYCODE_BITS
        ):
            raise ValueError(
                f"exact_below must be in [2, {MAX_GRAYCODE_BITS}], "
                f"got {self.exact_below}"
            )
        if self.patience is not None and self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")


@dataclass
class DecompositionResult:
    """Outcome of a decomposition solve."""

    best_x: np.ndarray
    best_energy: int
    iterations: int
    improvements: int
    elapsed: float
    history: list[tuple[float, int]] = field(default_factory=list)


class DecompositionSolver:
    """qbsolv-style outer loop around :class:`AdaptiveBulkSearch`."""

    def __init__(
        self,
        weights,
        config: DecompositionConfig | None = None,
        telemetry=None,
    ) -> None:
        if isinstance(weights, SparseQubo):
            self.weights = weights
            self.n = weights.n
        else:
            self.weights = as_weight_matrix(weights)
            self.n = self.weights.shape[0]
        self.config = config or DecompositionConfig()
        self._bus = telemetry if telemetry is not None else NULL_BUS
        if self.config.subproblem_size > self.n:
            raise ValueError(
                f"subproblem_size ({self.config.subproblem_size}) exceeds "
                f"problem size ({self.n})"
            )

    # ------------------------------------------------------------------
    # Subproblem construction
    # ------------------------------------------------------------------
    def _subrows(self, subset: np.ndarray) -> np.ndarray:
        """Dense ``k × n`` slice of W's rows at ``subset``."""
        if isinstance(self.weights, SparseQubo):
            rows = np.zeros((len(subset), self.n), dtype=np.int64)
            for i, k in enumerate(subset):
                cols, vals = self.weights.row(int(k))
                rows[i, cols] = vals
            # CSR holds only the off-diagonal part; restore diagonals.
            rows[np.arange(len(subset)), subset] = self.weights.diag[subset]
            return rows
        return self.weights[subset, :].astype(np.int64)

    def build_subproblem(self, x: np.ndarray, subset: np.ndarray) -> QuboMatrix:
        """The conditioned sub-QUBO over ``subset`` given incumbent ``x``.

        For any ``y``: ``E(x with subset←y) = E_sub(y) + const``, so
        minimizing the subproblem minimizes the full energy over the
        free variables.
        """
        subset = np.asarray(subset, dtype=np.int64)
        rows = self._subrows(subset)  # k × n, includes diagonal entries
        inner = rows[:, subset]  # k × k block (diagonal = W_ss)
        xi = x.astype(np.int64)
        # r_s = Σ_{j ∉ S} W_sj x_j  = (full row)·x − (in-set part)·x_S
        r = rows @ xi - inner @ xi[subset]
        sub = inner.copy()
        diag = np.diagonal(inner) + 2 * r
        sub[np.arange(len(subset)), np.arange(len(subset))] = diag
        return QuboMatrix(sub, copy=False, check=False, name="subproblem")

    def _select(self, state: SearchState, rng: np.random.Generator) -> np.ndarray:
        k = self.config.subproblem_size
        if self.config.selection == "random" or k >= self.n:
            return rng.choice(self.n, size=k, replace=False)
        half = k // 2
        promising = np.argsort(state.delta)[:half]
        rest = np.setdiff1d(np.arange(self.n), promising, assume_unique=False)
        filler = rng.choice(rest, size=k - half, replace=False)
        return np.concatenate([promising, filler])

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def solve(self) -> DecompositionResult:
        """Run the outer loop; returns the best incumbent found."""
        cfg = self.config
        factory = RngFactory(cfg.seed)
        rng = factory.stream("outer")
        watch = Stopwatch().start()

        x0 = factory.stream("init").integers(0, 2, self.n).astype(np.uint8)
        state = SearchState.from_bits(self.weights, x0)
        best_x = state.x.copy()
        best_e = state.energy
        history: list[tuple[float, int]] = [(watch.elapsed, best_e)]
        improvements = 0
        stale = 0
        iterations = 0

        for it in range(cfg.iterations):
            iterations += 1
            subset = self._select(state, rng)
            sub = self.build_subproblem(state.x, subset)
            if cfg.exact_below is not None and len(subset) <= cfg.exact_below:
                # Exact finisher: small subproblems get a proven-optimal
                # sub-assignment instead of a cold inner ABS run.
                sol = graycode_minimum(sub)
                y = sol.x
                sub_best = sol.energy
                if self._bus.enabled:
                    self._bus.counters.inc("backend.graycode.finisher_calls")
                    self._bus.counters.inc(
                        "backend.graycode.enumerated", sol.evaluated
                    )
            else:
                inner_cfg = AbsConfig(
                    blocks_per_gpu=cfg.inner_blocks,
                    local_steps=cfg.inner_steps,
                    pool_capacity=max(8, cfg.inner_blocks),
                    max_rounds=cfg.inner_rounds,
                    seed=int(factory.stream("inner", it).integers(2**62)),
                )
                sub_res = AdaptiveBulkSearch(sub, inner_cfg).solve("sync")
                y = sub_res.best_x
                sub_best = sub_res.best_energy
            # Accept only sub-solutions at least as good as the current
            # sub-assignment (the inner solver starts cold and can lose;
            # the exact finisher never does).
            from repro.qubo.energy import energy as _energy

            if sub_best <= _energy(sub, state.x[subset]):
                # Apply: flip exactly the in-subset bits that changed;
                # incremental updates keep E and Δ exact for next round.
                changed = subset[state.x[subset] != y]
                for bit in changed:
                    state.flip(int(bit))
            if state.energy < best_e:
                best_e = state.energy
                best_x = state.x.copy()
                improvements += 1
                stale = 0
            else:
                stale += 1
                if cfg.patience is not None and stale >= cfg.patience:
                    history.append((watch.elapsed, best_e))
                    break
            history.append((watch.elapsed, best_e))

        return DecompositionResult(
            best_x=best_x,
            best_energy=int(best_e),
            iterations=iterations,
            improvements=improvements,
            elapsed=watch.stop(),
            history=history,
        )
