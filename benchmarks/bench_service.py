"""Warm-fleet service benchmark: amortized cold-start across jobs (PR 9).

A one-shot ``solve("process")`` pays worker spawn, exchange-transport
allocation, shared-memory weight publication, and backend weight
preparation on *every* call — for small jobs that setup dwarfs the
search itself.  :class:`repro.service.SolverService` pays it once and
re-arms the same fleet per job, so the figure of merit is simply
jobs/second over a stream of small/medium jobs:

- **cold**  — each job is an independent one-shot ``solve("process")``;
- **warm**  — the same jobs through one ``SolverService``;
- **cache** — a repeat of a seeded job, answered from the result cache.

Both lanes use the ``spawn`` start method: it is the portable
multiprocessing default (macOS/Windows, CUDA-safe), and its
interpreter-boot cost is the faithful stand-in for what a real
multi-GPU deployment pays per cold start (CUDA context + kernel module
load, seconds per device in the paper's setting).  ``fork`` hides that
cost on Linux and caps the honest speedup at ~2x; spawn is what the
service actually amortizes.

Every warm result is also checked bit-for-bit against its cold
counterpart — the speedup is meaningless if the answers drift.

Results land in ``benchmarks/results/BENCH_service.json``.

Runnable both ways::

    pytest benchmarks/bench_service.py
    PYTHONPATH=src python benchmarks/bench_service.py
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.abs import AbsConfig, AdaptiveBulkSearch
from repro.qubo import QuboMatrix
from repro.service import SolverService
from repro.utils.tables import Table

try:  # standalone execution has no package context for conftest
    from benchmarks.conftest import FULL, RESULTS_DIR
except ImportError:  # pragma: no cover - `python benchmarks/bench_service.py`
    import os

    FULL = os.environ.get("REPRO_FULL", "") not in ("", "0")
    RESULTS_DIR = Path(__file__).parent / "results"

#: Distinct problems cycled through the job stream.
_PROBLEM_SIZES = (48, 96, 160)
#: Seeds per problem — 3 problems x 8 seeds = 24 jobs (the ISSUE asks
#: for at least 20).
_SEEDS_PER_PROBLEM = 8 if not FULL else 16


def _jobs():
    problems = {
        n: QuboMatrix.random(n, seed=n) for n in _PROBLEM_SIZES
    }
    # Problem-major order.  One fleet serves every size, so the order
    # only decides when each problem's weights are first prepared.
    jobs = []
    for n, q in problems.items():
        for seed in range(_SEEDS_PER_PROBLEM):
            cfg = AbsConfig(
                n_gpus=1,
                blocks_per_gpu=8,
                local_steps=8,
                pool_capacity=16,
                max_rounds=5,
                seed=seed + 1,
                lockstep=True,
                start_method="spawn",
            )
            jobs.append((q, cfg))
    return jobs


def _fingerprint(res):
    return (res.best_energy, res.best_x.tobytes(), res.rounds, res.sweeps)


def run_bench() -> dict:
    jobs = _jobs()

    t0 = time.perf_counter()
    cold = [AdaptiveBulkSearch(q, cfg).solve("process") for q, cfg in jobs]
    cold_s = time.perf_counter() - t0

    with SolverService() as svc:
        t0 = time.perf_counter()
        ids = [svc.submit(q, cfg) for q, cfg in jobs]
        warm = [svc.result(j, timeout=300) for j in ids]
        warm_s = time.perf_counter() - t0

        mismatches = sum(
            _fingerprint(a) != _fingerprint(b) for a, b in zip(cold, warm)
        )

        # Result-cache lane: resubmit the first job (same run digest).
        q, cfg = jobs[0]
        hit_id = svc.submit(q, cfg)
        svc.result(hit_id, timeout=60)
        hit = svc.status(hit_id)
        cache_hit_s = hit["elapsed"]

    n_jobs = len(jobs)
    payload = {
        "bench": "service",
        "full_scale": FULL,
        "jobs": n_jobs,
        "problem_sizes": list(_PROBLEM_SIZES),
        "cold": {
            "elapsed_s": round(cold_s, 6),
            "jobs_per_s": round(n_jobs / cold_s, 3),
        },
        "warm": {
            "elapsed_s": round(warm_s, 6),
            "jobs_per_s": round(n_jobs / warm_s, 3),
        },
        "warm_vs_cold_speedup": round(cold_s / warm_s, 3),
        "bit_identical_mismatches": mismatches,
        "cache_hit": {
            "hit": bool(hit["cache_hit"]),
            "elapsed_s": round(cache_hit_s, 6),
            "vs_cold_job_fraction": round(cache_hit_s / (cold_s / n_jobs), 6),
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_service.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return payload


def _render(payload: dict) -> str:
    table = Table(
        ["lane", "elapsed", "jobs/s", "vs cold"],
        title=f"Warm-fleet service over {payload['jobs']} jobs",
    )
    cold, warm = payload["cold"], payload["warm"]
    table.add_row(["cold one-shots", f"{cold['elapsed_s']:.2f} s", f"{cold['jobs_per_s']:.2f}", "1.00x"])
    table.add_row(
        [
            "warm service",
            f"{warm['elapsed_s']:.2f} s",
            f"{warm['jobs_per_s']:.2f}",
            f"{payload['warm_vs_cold_speedup']:.2f}x",
        ]
    )
    hit = payload["cache_hit"]
    table.add_row(
        [
            "cache hit",
            f"{hit['elapsed_s'] * 1e3:.2f} ms",
            "-",
            f"{hit['vs_cold_job_fraction']:.2%} of a cold job",
        ]
    )
    return table.render()


def test_bench_service(report):
    payload = run_bench()
    report("Warm-fleet service throughput", _render(payload))
    assert payload["bit_identical_mismatches"] == 0
    # The ISSUE's acceptance gates: >=5x jobs/sec warm vs cold over
    # >=20 small/medium jobs, and a cache hit under 1% of a cold job.
    assert payload["jobs"] >= 20
    assert payload["warm_vs_cold_speedup"] >= 5.0
    assert payload["cache_hit"]["hit"]
    assert payload["cache_hit"]["vs_cold_job_fraction"] < 0.01


if __name__ == "__main__":  # pragma: no cover
    print(_render(run_bench()))
