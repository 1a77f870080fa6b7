"""From-scratch consistency check for a :class:`BulkSearchEngine`.

``assert_engine_valid`` is the pytest-facing promotion of
``BulkSearchEngine.validate()``: it recomputes every block's energy and
delta vector from the block's current bit vector (O(B·n²), tests only)
and, on divergence, raises an ``AssertionError`` describing the *first*
diverging block in detail — which entries of the delta vector differ,
by how much, and what the stored vs. recomputed energies are.  The
engine method only names the block; this diff is what you want when a
backend kernel goes subtly wrong.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.engine import BulkSearchEngine
from repro.qubo.energy import delta_vector, energy


def assert_engine_valid(engine: BulkSearchEngine, *, context: str = "") -> None:
    """Assert stored ``energy``/``delta`` match a from-scratch recompute.

    Raises ``AssertionError`` with a diff of the first diverging block.
    ``context`` is prepended to the failure message (e.g. the operation
    sequence that led here, so property-test failures are readable).
    """
    weights = engine.sparse if engine.sparse is not None else engine.W
    prefix = f"{context}: " if context else ""
    for b in range(engine.B):
        e = energy(weights, engine.X[b])
        d = delta_vector(weights, engine.X[b])
        problems = []
        if e != engine.energy[b]:
            problems.append(
                f"energy stored={int(engine.energy[b])} recomputed={int(e)} "
                f"(off by {int(engine.energy[b]) - int(e)})"
            )
        if not np.array_equal(d, engine.delta[b]):
            bad = np.flatnonzero(d != engine.delta[b])
            shown = ", ".join(
                f"delta[{k}] stored={int(engine.delta[b, k])} "
                f"recomputed={int(d[k])}"
                for k in bad[:5]
            )
            more = f" (+{len(bad) - 5} more)" if len(bad) > 5 else ""
            problems.append(f"{len(bad)}/{engine.n} delta entries diverge: {shown}{more}")
        if problems:
            raise AssertionError(
                f"{prefix}block {b} (backend={engine.backend.name}, "
                f"x={_bits_preview(engine.X[b])}): " + "; ".join(problems)
            )


def assert_engines_equal(
    engine: BulkSearchEngine, ref: BulkSearchEngine, *, context: str = ""
) -> None:
    """Assert two engines hold the same search state and counters."""
    for field in ("X", "delta", "energy", "best_energy", "best_x", "offsets"):
        assert np.array_equal(getattr(engine, field), getattr(ref, field)), (
            f"{context}: {field} diverged"
        )
    assert engine.counters.as_dict() == ref.counters.as_dict(), (
        f"{context}: counters diverged"
    )


def _bits_preview(x: np.ndarray, limit: int = 32) -> str:
    bits = "".join(str(int(v)) for v in x[:limit])
    return bits + ("…" if x.shape[0] > limit else "")
