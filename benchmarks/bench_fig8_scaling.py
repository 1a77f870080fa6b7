"""Figure 8 — search-rate scaling with the number of GPUs (§4.3).

Two curves are produced:

- **modeled** — the calibrated throughput model, which is *exactly*
  linear in GPU count (each device runs independent blocks; the only
  coupling is the asynchronous host, off the critical path);
- **measured** — the multiprocessing solver run with 1–4 worker
  processes (each worker = one simulated GPU).

The measured curve is linear only when the host machine has at least
one core per worker.  On a single-core box (such as most CI runners)
workers time-share one core and the measured aggregate stays flat —
the bench captions the table with the measured peak speedup and the
core count rather than asserting a slope it cannot exhibit.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import FULL
from repro.abs import AbsConfig
from repro.gpusim import calibrated_model
from repro.gpusim.lanes import usable_cpus
from repro.metrics.search_rate import measure_solver_rate
from repro.paperdata import FIG8_GPUS
from repro.problems.random_qubo import random_qubo
from repro.utils.tables import Table

_N = 512
_BUDGET_S = 3.0 if FULL else 1.2


def scaling_caption(speedup: dict[int, float], cores: int) -> str:
    """Caption the measured curve from its speedups and the core count
    (the cores this process may use: its CPU affinity mask)."""
    workers = max(speedup)
    peak = max(speedup, key=speedup.get)
    text = (
        f"host has {cores} core(s) for {workers} workers; measured speedup "
        f"peaks at {speedup[peak]:.2f}x with {peak} worker(s)"
    )
    if speedup[peak] < 1.1:
        text += ", so the measured curve is flat"
    if cores < workers:
        return text + (
            f"; beyond {cores} worker(s) they time-share the cores, so the "
            "modeled curve carries the Figure 8 claim"
        )
    return text + "; with a core per worker the curve is expected to be ~linear"


def test_fig8_scaling(benchmark, report, bench_record):
    model = calibrated_model()
    cores = usable_cpus()
    qubo = random_qubo(_N, seed=_N)

    table = Table(
        ["GPUs", "modeled rate (T/s)", "modeled speedup", "measured rate (/s)", "measured speedup"],
        title="Figure 8 — search-rate scaling with GPU count",
    )
    base_model = model.search_rate(1024, 16, 1)
    measured = {}
    for g in FIG8_GPUS:
        cfg = AbsConfig(
            n_gpus=g, blocks_per_gpu=16, local_steps=64,
            time_limit=_BUDGET_S, seed=10 + g,
        )
        m = measure_solver_rate(qubo, cfg, mode="process")
        measured[g] = m.rate
        bench_record(
            f"gpus={g}",
            measured_rate=m.rate,
            modeled_rate=model.search_rate(1024, 16, g),
            evaluated=m.evaluated,
            elapsed_s=m.elapsed,
        )
        table.add_row(
            [
                g,
                model.search_rate(1024, 16, g) / 1e12,
                f"{model.search_rate(1024, 16, g) / base_model:.2f}x",
                f"{m.rate:.3g}",
                f"{m.rate / measured[1]:.2f}x",
            ]
        )

    speedup = {g: measured[g] / measured[1] for g in FIG8_GPUS}
    report("Figure 8 scaling", table.render() + "\n\n" + scaling_caption(speedup, cores))

    # The model is exactly linear — Figure 8's claim.
    for g in FIG8_GPUS:
        assert model.search_rate(1024, 16, g) == pytest.approx(g * base_model)
    # Measured rates must at least not collapse when adding workers.
    assert measured[max(FIG8_GPUS)] > 0.5 * measured[1]

    cfg = AbsConfig(n_gpus=1, blocks_per_gpu=16, local_steps=64, max_rounds=2, seed=1)
    from repro.abs import AdaptiveBulkSearch

    benchmark(lambda: AdaptiveBulkSearch(qubo, cfg).solve("sync"))
