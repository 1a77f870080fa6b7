"""Backend shoot-out — numpy reference vs bit-plane C kernels.

Measures ``local_steps`` throughput (the dominant hot path of a solve)
for every *actually available* kernel backend at several ``(n, B)``
operating points, including the acceptance point ``n=1024, B=256``
where the ``bitplane`` backend must clear **10×** the numpy reference.
Results land in ``benchmarks/results/BENCH_backends.json`` with
per-point flip rates and the speedup of each backend over numpy.

Fallbacks are a hard bench failure, never a measurement: a backend
whose factory degrades (no C compiler) is resolved through
:func:`benchmarks.conftest.resolve_backend_strict`, listed under
``"unavailable"`` in the JSON with the reason, and records **no
points** — and ``bitplane`` specifically is required to be available,
so a machine that silently lost its C compiler fails the bench instead
of publishing numpy numbers under the bitplane name.

The ``straight`` section times Algorithm 5 (``straight_to``) at the
``random-dense-sync`` shape, ``n=1024, B=32``, each walk starting right
after ``reset_best()`` (as a search round does), on the bitplane kernels
built with each compiler flag set alone: ``native`` (``-march=native``)
and ``portable`` (the fallback set).  Each build compiles into its own
throwaway cache, and both must end in the same state.

The ``round_overhead`` section times one ``DeviceSimulator.round`` on
the bitplane kernels whose targets are the blocks' own states: the
straight walk flips nothing, so the round costs its fixed overhead
(the engine and backend's Python side, argument marshalling, packing)
plus a few local-search flips.  Its shapes are the ``service-stream``
sizes (n = 48, 96, 160; B = 8; 8 local steps) and the
``process-oneshot`` shape (n = 256, B = 16, 32 steps).  The end-to-end
tracer cannot show this layer for ``service-stream``, whose spawned
workers it does not wrap.

The ``graycode_exact`` section times the exact Gray-code enumerator
(``graycode_minimum``, not an engine backend) in states/s and
cross-checks the optimum against ``repro.search.exact.solve_exact``.

Runnable both ways::

    pytest benchmarks/bench_backends.py
    PYTHONPATH=src python benchmarks/bench_backends.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np

import repro.backends.bitplane as bp
from repro.backends import available_backends
from repro.backends.bitplane import BitplaneBackend
from repro.abs.device import DeviceSimulator
from repro.backends.graycode import graycode_minimum
from repro.gpusim import BulkSearchEngine
from repro.qubo import QuboMatrix
from repro.search.exact import solve_exact
from repro.utils.tables import Table

try:  # standalone execution has no package context for conftest
    from benchmarks.conftest import (
        FULL,
        RESULTS_DIR,
        BackendUnavailable,
        resolve_backend_strict,
    )
except ImportError:  # pragma: no cover - `python benchmarks/bench_backends.py`
    import os
    import sys

    sys.path.insert(0, str(Path(__file__).parent))
    from conftest import BackendUnavailable, resolve_backend_strict  # type: ignore

    FULL = os.environ.get("REPRO_FULL", "") not in ("", "0")
    RESULTS_DIR = Path(__file__).parent / "results"

_POINTS = (
    # (n, B, steps) — small, medium, and the acceptance point.
    (256, 64, 60),
    (512, 128, 40),
    (1024, 256, 30),
)
if FULL:
    _POINTS += ((2048, 512, 20),)

#: The bitplane backend must beat numpy by at least this factor on the
#: n=1024 acceptance point (ISSUE 6 gate).
BITPLANE_MIN_SPEEDUP = 10.0

#: The straight-search point: the ``random-dense-sync`` workload's
#: ``(n, B)``, and how many walks to random targets are timed.
_STRAIGHT_POINT = (1024, 32)
_STRAIGHT_WALKS = 5

#: The compiler flag sets the straight section builds the kernels with.
_FLAG_SET_NAMES = {"native": bp._FLAG_SETS[0], "portable": bp._FLAG_SETS[1]}

#: The round-overhead shapes ``(n, B, local steps)``: the
#: ``service-stream`` sizes, then the ``process-oneshot`` shape.
_ROUND_POINTS = ((48, 8, 8), (96, 8, 8), (160, 8, 8), (256, 16, 32))
_ROUND_REPEATS = 2000

#: Gray-code enumeration size for the exact-finisher section (2^18
#: states — sub-second, large enough for a stable states/s figure).
_GRAYCODE_N = 18


def _measure(backend, requested: str, n: int, blocks: int, steps: int) -> dict:
    """One timed ``local_steps`` run with an already-resolved backend."""
    problem = QuboMatrix.random(n, seed=n)
    eng = BulkSearchEngine(
        problem, blocks, windows=16, offsets=np.zeros(blocks, dtype=np.int64),
        backend=backend,
    )
    eng.local_steps(4)  # warm-up (JIT / C compile happened at prepare time)
    t0 = time.perf_counter()
    eng.local_steps(steps)
    elapsed = time.perf_counter() - t0
    return {
        "requested": requested,
        "resolved": backend.name,
        "fallback": bool(backend.fallback_from),
        "elapsed_s": round(elapsed, 6),
        "flips": blocks * steps,
        "flips_per_s": round(blocks * steps / elapsed, 1),
        "final_energy_checksum": int(eng.energy.sum()),
    }


@contextmanager
def _built_with(flags: tuple[str, ...]):
    """A :class:`BitplaneBackend` whose kernels are compiled with ``flags``
    alone, into a throwaway cache (the user's cache is left alone)."""
    with tempfile.TemporaryDirectory() as root, \
            mock.patch.object(bp, "_FLAG_SETS", (flags,)), \
            mock.patch.object(tempfile, "tempdir", root), \
            mock.patch.object(BitplaneBackend, "_lib", None), \
            mock.patch.object(BitplaneBackend, "_build_error", None):
        BitplaneBackend.ensure_compiled()
        yield BitplaneBackend()


def _measure_straight(backend, n: int, blocks: int, walks: int) -> dict:
    """Timed ``straight_to`` walks, each right after ``reset_best()``."""
    problem = QuboMatrix.random(n, seed=n)
    eng = BulkSearchEngine(
        problem, blocks, windows=16, offsets=np.zeros(blocks, dtype=np.int64),
        backend=backend,
    )
    eng.local_steps(64)  # walk from a local-search state, as a round does
    rng = np.random.default_rng(n)
    flips, elapsed = 0, 0.0
    for _ in range(walks):
        targets = rng.integers(0, 2, (blocks, n), dtype=np.uint8)
        eng.reset_best()
        t0 = time.perf_counter()
        flips += eng.straight_to(targets)
        elapsed += time.perf_counter() - t0
    state = hashlib.sha256()
    for field in ("X", "delta", "energy", "best_energy", "best_x"):
        state.update(np.ascontiguousarray(getattr(eng, field)).tobytes())
    return {
        "elapsed_s": round(elapsed, 6),
        "flips": flips,
        "flips_per_s": round(flips / elapsed, 1),
        "state_sha256": state.hexdigest(),
    }


def _bench_straight() -> dict:
    """Straight-search flips/s on each flag set's build of the kernels."""
    n, blocks = _STRAIGHT_POINT
    builds, unavailable = {}, {}
    for name, flags in _FLAG_SET_NAMES.items():
        try:
            with _built_with(flags) as backend:
                builds[name] = {
                    "flags": list(flags),
                    **_measure_straight(backend, n, blocks, _STRAIGHT_WALKS),
                }
        except bp._BUILD_ERRORS as exc:
            unavailable[name] = str(exc)
    return {
        "n": n,
        "blocks": blocks,
        "walks": _STRAIGHT_WALKS,
        "builds": builds,
        "unavailable": unavailable,
        # Two builds of one C source must walk the same path.
        "identical_results": len({b["state_sha256"] for b in builds.values()}) == 1,
    }


def _measure_round(backend, n: int, blocks: int, steps: int) -> dict:
    """Quartiles of one ``DeviceSimulator.round`` at zero target distance."""
    problem = QuboMatrix.random(n, seed=n)
    dev = DeviceSimulator(
        problem, blocks, windows=min(16, n), local_steps=steps, backend=backend
    )
    dev.round(np.random.default_rng(n).integers(0, 2, (blocks, n), dtype=np.uint8))
    flips0 = dev.engine.counters.straight_flips
    times = np.empty(_ROUND_REPEATS)
    for i in range(_ROUND_REPEATS):
        targets = dev.engine.X.copy()
        t0 = time.perf_counter_ns()
        dev.round(targets)
        times[i] = time.perf_counter_ns() - t0
    p25, median, p75 = np.percentile(times, [25, 50, 75]) / 1e3
    return {
        "n": n,
        "blocks": blocks,
        "steps": steps,
        "rounds": _ROUND_REPEATS,
        "straight_flips": dev.engine.counters.straight_flips - flips0,
        "p25_us": round(p25, 2),
        "median_us": round(median, 2),
        "p75_us": round(p75, 2),
    }


def _bench_round_overhead(backend) -> list[dict]:
    return [_measure_round(backend, *point) for point in _ROUND_POINTS]


def _bench_graycode_exact() -> dict:
    """Time exhaustive Gray-code enumeration and cross-check the optimum."""
    problem = QuboMatrix.random(_GRAYCODE_N, seed=_GRAYCODE_N)
    reference = solve_exact(problem.W)
    t0 = time.perf_counter()
    solution = graycode_minimum(problem)
    elapsed = time.perf_counter() - t0
    return {
        "n": _GRAYCODE_N,
        "evaluated": solution.evaluated,
        "elapsed_s": round(elapsed, 6),
        "states_per_s": round(solution.evaluated / elapsed, 1),
        "energy": solution.energy,
        "agrees_with_solve_exact": solution.energy == reference.energy,
    }


def run_bench() -> dict:
    available: dict[str, object] = {}
    unavailable: dict[str, str] = {}
    for name in available_backends():
        try:
            available[name] = resolve_backend_strict(name)
        except BackendUnavailable as exc:
            unavailable[name] = str(exc)
    points = []
    for n, blocks, steps in _POINTS:
        measurements = {
            name: _measure(backend, name, n, blocks, steps)
            for name, backend in available.items()
        }
        ref_rate = measurements["numpy"]["flips_per_s"]
        checksums = {m["final_energy_checksum"] for m in measurements.values()}
        point = {
            "n": n,
            "blocks": blocks,
            "steps": steps,
            "backends": measurements,
            "speedup_vs_numpy": {
                name: round(m["flips_per_s"] / ref_rate, 3)
                for name, m in measurements.items()
            },
            # All backends must land on the same state; a diverging
            # checksum means the bench timed two *different* searches.
            "identical_results": len(checksums) == 1,
        }
        points.append(point)
    payload = {
        "bench": "backends",
        "full_scale": FULL,
        "registered": list(available_backends()),
        "measured": sorted(available),
        "unavailable": unavailable,
        "points": points,
        "straight": _bench_straight(),
        "round_overhead": (
            _bench_round_overhead(available["bitplane"]) if "bitplane" in available else []
        ),
        "graycode_exact": _bench_graycode_exact(),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_backends.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return payload


def _render(payload: dict) -> str:
    table = Table(
        ["n", "B", "backend", "resolved", "flips/s", "speedup vs numpy"],
        title="Kernel-backend throughput (local_steps)",
    )
    for point in payload["points"]:
        for name, m in sorted(point["backends"].items()):
            table.add_row(
                [
                    point["n"],
                    point["blocks"],
                    name,
                    m["resolved"],
                    f"{m['flips_per_s']:,.0f}",
                    f"{point['speedup_vs_numpy'][name]:.2f}x",
                ]
            )
    lines = [table.render()]
    for name, reason in sorted(payload["unavailable"].items()):
        lines.append(f"unavailable: {name} — {reason}")
    st = payload["straight"]
    for name, build in sorted(st["builds"].items()):
        lines.append(
            f"straight_to n={st['n']} B={st['blocks']} ({name} build): "
            f"{build['flips_per_s']:,.0f} flips/s"
        )
    for name, reason in sorted(st["unavailable"].items()):
        lines.append(f"straight_to ({name} build) unavailable: {reason}")
    for r in payload["round_overhead"]:
        lines.append(
            f"round overhead n={r['n']} B={r['blocks']} steps={r['steps']}: "
            f"{r['median_us']:.1f} us median "
            f"(quartiles {r['p25_us']:.1f}-{r['p75_us']:.1f} us)"
        )
    g = payload["graycode_exact"]
    lines.append(
        f"graycode exact: n={g['n']}, {g['states_per_s']:,.0f} states/s, "
        f"agrees_with_solve_exact={g['agrees_with_solve_exact']}"
    )
    return "\n".join(lines)


def test_bench_backends(report):
    payload = run_bench()
    # The bit-plane backend is this repo's own code, not an optional
    # third-party JIT: it falling back means the bench machine (or a
    # regression) broke it — fail, don't record numpy numbers for it.
    assert "bitplane" in payload["measured"], (
        "bitplane backend unavailable: "
        + payload["unavailable"].get("bitplane", "not registered")
    )
    for point in payload["points"]:
        assert point["identical_results"], (
            f"backends diverged at n={point['n']}, B={point['blocks']}"
        )
        for name, m in point["backends"].items():
            assert not m["fallback"], (
                f"{name} recorded a fallback point at n={point['n']} — "
                "strict resolution should have excluded it"
            )
    accept = next(p for p in payload["points"] if p["n"] == 1024)
    speedup = accept["speedup_vs_numpy"]["bitplane"]
    assert speedup >= BITPLANE_MIN_SPEEDUP, (
        f"bitplane speedup {speedup:.2f}x at n=1024 is below the "
        f"{BITPLANE_MIN_SPEEDUP:.0f}x acceptance gate"
    )
    # The portable set is the fallback every toolchain must build.
    assert "portable" in payload["straight"]["builds"], payload["straight"]
    assert payload["straight"]["identical_results"], (
        "the native and portable kernel builds walked different paths"
    )
    assert payload["graycode_exact"]["agrees_with_solve_exact"]
    # Zero-distance targets: the lane times rounds whose walk is empty.
    assert all(r["straight_flips"] == 0 for r in payload["round_overhead"])
    report("Backend throughput", _render(payload))


if __name__ == "__main__":
    print(_render(run_bench()))
    print(f"\nwrote {RESULTS_DIR / 'BENCH_backends.json'}")
