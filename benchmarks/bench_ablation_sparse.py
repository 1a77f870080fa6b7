"""Ablation — sparse vs dense weight backend.

The paper stores ``W`` dense on the GPU (16-bit entries in 11 GB of
global memory), which caps it at 32 k bits.  Two of its benchmark
families are graphs with tiny average degree, so this reproduction adds
a CSR backend whose per-flip cost is O(degree) instead of O(n).  This
bench quantifies the trade on G-set-analogue Max-Cut instances:

- **memory**: CSR bytes vs the dense n² matrix;
- **flip rate**: measured engine throughput, sparse vs dense;
- **identical semantics**: both backends walk bit-for-bit identically
  (asserted, not just claimed);
- **per-flip cost flat in n**: at a fixed average degree, the compiled
  CSR kernels' straight and local flips/s at n = 20000 stay within
  ``MIN_FLAT_RATIO`` of n = 2000 (asserted; an O(n) scan per flip
  would give about 0.1).
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from benchmarks.conftest import FULL, resolve_backend_strict
from repro.gpusim import BulkSearchEngine
from repro.problems.gset import synthetic_gset
from repro.problems.maxcut import maxcut_to_qubo, maxcut_to_sparse_qubo
from repro.qubo import SparseQubo
from repro.utils.tables import Table

_GRAPHS = ("G1", "G22", "G55", "G70") if FULL else ("G1", "G22")
_BLOCKS = 8
_STEPS = 150

#: Fixed-degree sweep: G-set sizes at G22's average degree.
_SWEEP_N = (2000, 8000, 20000)
_SWEEP_DEGREE = 20
_SWEEP_REPEATS = 5
_SWEEP_STEPS = 2000

#: Floor on flips/s at the largest n over flips/s at the smallest.
MIN_FLAT_RATIO = 0.3


def _flip_rate(weights, blocks=_BLOCKS, steps=_STEPS) -> float:
    eng = BulkSearchEngine(weights, blocks, windows=16)
    eng.local_steps(8)  # warm-up
    t0 = time.perf_counter()
    eng.local_steps(steps)
    dt = time.perf_counter() - t0
    return blocks * steps / dt


def test_ablation_sparse_backend(benchmark, report):
    table = Table(
        [
            "graph", "n", "avg degree", "dense MB", "sparse MB",
            "dense flips/s", "sparse flips/s", "speedup",
        ],
        title="Sparse vs dense backend on G-set analogues",
    )
    for name in _GRAPHS:
        g = synthetic_gset(name)
        n = g.number_of_nodes()
        sparse = maxcut_to_sparse_qubo(g, name=name)
        dense = maxcut_to_qubo(g, name=name)
        dense_mb = n * n * 8 / 1e6  # engine stores int64
        sparse_mb = sparse.nbytes / 1e6
        r_dense = _flip_rate(dense)
        r_sparse = _flip_rate(sparse)
        table.add_row(
            [
                name,
                n,
                f"{2 * g.number_of_edges() / n:.1f}",
                f"{dense_mb:.1f}",
                f"{sparse_mb:.2f}",
                f"{r_dense:.3g}",
                f"{r_sparse:.3g}",
                f"{r_sparse / r_dense:.1f}x",
            ]
        )
        # Semantics: identical trajectories.
        e_d = BulkSearchEngine(dense, 2, windows=8, offsets=np.zeros(2, dtype=np.int64))
        e_s = BulkSearchEngine(sparse, 2, windows=8, offsets=np.zeros(2, dtype=np.int64))
        e_d.local_steps(30)
        e_s.local_steps(30)
        assert np.array_equal(e_d.X, e_s.X)
        assert np.array_equal(e_d.best_energy, e_s.best_energy)
        # Memory wins everywhere; throughput wins once n is large enough
        # that the dense O(n) row add per flip dominates.  (The compiled
        # CSR kernels' per-flip cost follows degree; only the numpy
        # reference still scans all n entries for Algorithm 4's best
        # check, which it shares with the dense path.)
        assert sparse_mb < dense_mb / 8
        if n >= 2000:
            assert r_sparse > r_dense

    report(
        "Ablation sparse backend",
        table.render()
        + "\n\nCSR flips cost O(degree) instead of O(n).  The compiled "
        "bitplane kernels also keep one Δ minimum per 64-bit plane word, so "
        "selection and Algorithm 4's best check cost O(n/64) per flip; only "
        "the numpy reference still scans all n entries per step.  The "
        "throughput edge over dense appears for n ≳ 2000, while the "
        "10–100× memory saving holds at every size.",
    )

    sparse = maxcut_to_sparse_qubo(synthetic_gset("G1"))
    eng = BulkSearchEngine(sparse, _BLOCKS, windows=16)
    eng.local_steps(4)
    benchmark(eng.local_steps, 1)


def _fixed_degree_maxcut(n: int, degree: int, seed: int) -> SparseQubo:
    """Unweighted Max-Cut (Eq. 17) on a uniform random graph of average
    degree ``degree``, built straight into CSR: at n = 20000 the
    networkx route would take longer than the whole sweep."""
    rng = np.random.default_rng(seed)
    m = n * degree // 2
    u = rng.integers(0, n, 2 * m)
    v = rng.integers(0, n, 2 * m)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keys = np.unique((lo * n + hi)[lo != hi])
    keys = rng.permutation(keys)[:m]
    rows, cols = keys // n, keys % n
    deg = np.bincount(rows, minlength=n) + np.bincount(cols, minlength=n)
    return SparseQubo.from_graph_terms(
        n, -deg, rows, cols, np.ones(len(keys), dtype=np.int64), name=f"deg{degree}-{n}"
    )


def _sweep_rates(backend, q: SparseQubo) -> tuple[float, float]:
    """Median straight and local flips/s over fresh engines: a straight
    walk from zero to random targets, then local search from there."""
    rng = np.random.default_rng(q.n)
    straight, local = [], []
    for _ in range(_SWEEP_REPEATS):
        eng = BulkSearchEngine(q, _BLOCKS, windows=16, backend=backend)
        targets = rng.integers(0, 2, (_BLOCKS, q.n), dtype=np.uint8)
        t0 = time.perf_counter()
        flips = eng.straight_to(targets)
        straight.append(flips / (time.perf_counter() - t0))
        t0 = time.perf_counter()
        eng.local_steps(_SWEEP_STEPS)
        local.append(_BLOCKS * _SWEEP_STEPS / (time.perf_counter() - t0))
    return statistics.median(straight), statistics.median(local)


def test_sparse_flip_cost_flat_in_n(benchmark, report):
    backend = resolve_backend_strict("bitplane")
    table = Table(
        ["n", "avg degree", "straight flips/s", "local flips/s"],
        title="Sparse flip rate vs n at fixed degree (bitplane)",
    )
    rates = {}
    for n in _SWEEP_N:
        q = _fixed_degree_maxcut(n, _SWEEP_DEGREE, seed=n)
        rates[n] = _sweep_rates(backend, q)
        table.add_row([
            n, f"{q.nnz / n:.1f}",
            f"{rates[n][0]:.3g}", f"{rates[n][1]:.3g}",
        ])
    small, large = rates[_SWEEP_N[0]], rates[_SWEEP_N[-1]]
    ratios = (large[0] / small[0], large[1] / small[1])
    report(
        "Ablation sparse flip cost vs n",
        table.render()
        + f"\n\nflips/s at n = {_SWEEP_N[-1]} over n = {_SWEEP_N[0]}: "
        f"straight {ratios[0]:.2f}, local {ratios[1]:.2f} (floor "
        f"{MIN_FLAT_RATIO}; an O(n) scan per flip gives about "
        f"{_SWEEP_N[0] / _SWEEP_N[-1]:.1f}).  Per flip the CSR kernels do "
        "O(degree) Eq. 16 writes and scan ⌈n/64⌉ per-word Δ minima, so "
        "what remains of the fall is cache misses and the word scan.",
    )
    for kind, ratio in zip(("straight", "local"), ratios):
        assert ratio >= MIN_FLAT_RATIO, (
            f"{kind} flips/s at n = {_SWEEP_N[-1]} is {ratio:.2f}x that at "
            f"n = {_SWEEP_N[0]}: per-flip cost grows with n"
        )

    q = _fixed_degree_maxcut(_SWEEP_N[-1], _SWEEP_DEGREE, seed=1)
    eng = BulkSearchEngine(q, _BLOCKS, windows=16, backend=backend)
    benchmark.pedantic(eng.local_steps, args=(_SWEEP_STEPS,), rounds=3)
