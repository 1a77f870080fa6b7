"""Exchange-ring + batched-GA hot-path benchmark (paper Figure 5).

Measures the *host-side* cost of one exchange round — consume a
device's ``(B, n)`` result batch, absorb it into the pool, generate
``B`` fresh GA targets, publish them — for the two transport/GA
combinations:

- ``queue+scalar`` — the pre-ring baseline: unpacked arrays pickled
  through ``multiprocessing.Queue``, targets generated one
  ``generate_one`` call at a time, solutions absorbed row by row;
- ``shm+batched`` — the Figure-5 realization: bit-packed
  shared-memory rings/mailboxes, one vectorized ``generate`` call,
  one ``insert_batch`` absorb.

Both lanes move identical payloads, so the speedup is pure exchange +
GA hot-path engineering.  The acceptance point is the paper-scale
``n=1024, B=1088`` (1088 blocks per GPU, Table 2's largest per-GPU
block count); the target there is ≥ 3×.

A third section, ``host_step``, times the ``shm+batched`` host step
round by round at the shapes of the repository benchmark's process
workloads (``process-oneshot``: n=256, B=16, pool 64;
``service-stream``: n=96, B=8, pool 16): ``Host.absorb_batch`` +
``Host.make_targets`` + ``TargetMailbox.publish``, reported as
quartiles of the per-round time with the pool's insert ratio.  Results
land in ``benchmarks/results/BENCH_exchange.json``.

Runnable both ways::

    pytest benchmarks/bench_exchange.py
    PYTHONPATH=src python benchmarks/bench_exchange.py
"""

from __future__ import annotations

import json
import multiprocessing
import time
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np

from repro.abs.buffers import pack_solutions
from repro.abs.exchange import TargetMailbox, segment_size, segment_views
from repro.abs.host import Host
from repro.ga.host import GaConfig, TargetGenerator
from repro.ga.pool import SolutionPool
from repro.utils.tables import Table

try:  # standalone execution has no package context for conftest
    from benchmarks.conftest import FULL, RESULTS_DIR
except ImportError:  # pragma: no cover - `python benchmarks/bench_exchange.py`
    import os

    FULL = os.environ.get("REPRO_FULL", "") not in ("", "0")
    RESULTS_DIR = Path(__file__).parent / "results"

_POINTS = (
    # (n, B, rounds) — small, medium, and the acceptance point
    # (n=1024 with the paper's 1088 blocks per GPU).
    (256, 64, 30),
    (512, 256, 15),
    (1024, 1088, 8),
)
if FULL:
    _POINTS += ((2048, 1088, 5),)

#: Host pool capacity (the paper's m); fixed across lanes and points.
_POOL_CAPACITY = 64

#: (workload, n, B, pool capacity) of the per-round host-step section.
_HOST_STEP_POINTS = (
    ("process-oneshot", 256, 16, 64),
    ("service-stream", 96, 8, 16),
)
_HOST_STEP_WARMUP = 50
_HOST_STEP_ROUNDS = 1000


def _make_payload(n: int, blocks: int, seed: int):
    rng = np.random.default_rng(seed)
    energies = rng.integers(-10_000, 0, blocks).astype(np.int64)
    X = rng.integers(0, 2, (blocks, n), dtype=np.uint8)
    return energies, X


def _make_host(n: int, seed: int):
    pool = SolutionPool(n, _POOL_CAPACITY)
    pool.seed_random(np.random.default_rng(seed), _POOL_CAPACITY)
    gen = TargetGenerator(pool, GaConfig(), seed=seed)
    return pool, gen


def _measure_queue_scalar(n: int, blocks: int, rounds: int) -> dict:
    """Baseline lane: mp.Queue of unpacked arrays + scalar GA + row absorb."""
    ctx = multiprocessing.get_context()
    result_q = ctx.Queue()
    target_q = ctx.Queue()
    pool, gen = _make_host(n, seed=1)
    payloads = [_make_payload(n, blocks, seed) for seed in range(rounds)]
    # Prime both queue feeder threads so startup cost stays out of the
    # timed region.
    result_q.put(payloads[0])
    result_q.get(timeout=10)
    target_q.put(np.zeros((blocks, n), dtype=np.uint8))
    target_q.get(timeout=10)

    t0 = time.perf_counter()
    for energies, X in payloads:
        result_q.put((energies, X))          # device ships a round
        got_e, got_x = result_q.get(timeout=10)
        for i in range(blocks):              # scalar absorb
            pool.insert(got_x[i], int(got_e[i]))
        targets = gen.generate_scalar(blocks)
        target_q.put(targets)                # host answers with targets
        target_q.get(timeout=10)
    elapsed = time.perf_counter() - t0
    result_q.close()
    target_q.close()
    return {"elapsed_s": round(elapsed, 6), "per_round_ms": round(1e3 * elapsed / rounds, 3)}


def _measure_shm_batched(n: int, blocks: int, rounds: int) -> dict:
    """Rings lane: bit-packed shm ring/mailbox + batched GA + batch absorb."""
    segment = shared_memory.SharedMemory(create=True, size=segment_size(blocks, n))
    mailbox, ring = segment_views(segment.buf, blocks, n)
    try:
        pool, gen = _make_host(n, seed=1)
        meta = np.zeros(16, dtype=np.int64)
        meta[1] = blocks  # count slot
        payloads = [
            (e, pack_solutions(X))
            for e, X in (_make_payload(n, blocks, seed) for seed in range(rounds))
        ]
        t0 = time.perf_counter()
        for energies, packed in payloads:
            ring.write(meta, energies, packed)   # device ships a round
            _, got_e, got_packed = ring.consume()
            X = np.unpackbits(got_packed, axis=1, count=n)
            pool.insert_batch(X, got_e)          # batched absorb
            targets = gen.generate(blocks)
            mailbox.publish(targets, epoch=0)    # host answers with targets
            mailbox.fetch(0, epoch=0)
        elapsed = time.perf_counter() - t0
    finally:
        ring.release()
        mailbox.release()
        segment.close()
        segment.unlink()
    return {"elapsed_s": round(elapsed, 6), "per_round_ms": round(1e3 * elapsed / rounds, 3)}


def _measure_host_step(n: int, blocks: int, capacity: int) -> dict:
    """Quartiles of one host step: absorb a round, answer it, publish."""
    host = Host(n, capacity)
    segment = shared_memory.SharedMemory(
        create=True, size=TargetMailbox.size(blocks, n)
    )
    mailbox = TargetMailbox(segment.buf, 0, blocks, n)
    rng = np.random.default_rng(0)
    total = _HOST_STEP_WARMUP + _HOST_STEP_ROUNDS
    # Energies drift down like a search's, so the pool keeps admitting
    # a few rows per round instead of freezing after the first ones.
    payloads = [
        (
            rng.integers(-10_000 - 20 * r, -20 * r, blocks),
            rng.integers(0, 2, (blocks, n), dtype=np.uint8),
        )
        for r in range(total)
    ]
    times = np.empty(total)
    try:
        for r, (energies, X) in enumerate(payloads):
            t0 = time.perf_counter()
            host.absorb_batch(energies, X)
            mailbox.publish(host.make_targets(blocks), epoch=0)
            times[r] = time.perf_counter() - t0
    finally:
        mailbox.release()
        segment.close()
        segment.unlink()
    q1, q2, q3 = np.percentile(times[_HOST_STEP_WARMUP:] * 1e6, [25, 50, 75])
    return {
        "rounds": _HOST_STEP_ROUNDS,
        "step_us": {"q1": round(q1, 2), "median": round(q2, 2), "q3": round(q3, 2)},
        # The e2e process workloads read pool.insert_ratio ~0.12.
        "insert_ratio": round(host.pool.inserted / host.absorbed, 3),
    }


def run_bench() -> dict:
    points = []
    for n, blocks, rounds in _POINTS:
        baseline = _measure_queue_scalar(n, blocks, rounds)
        rings = _measure_shm_batched(n, blocks, rounds)
        points.append(
            {
                "n": n,
                "blocks": blocks,
                "rounds": rounds,
                "queue_scalar": baseline,
                "shm_batched": rings,
                "speedup": round(
                    baseline["elapsed_s"] / rings["elapsed_s"], 3
                ),
                "acceptance_point": (n, blocks) == (1024, 1088),
            }
        )
    host_step = [
        {"workload": name, "n": n, "blocks": blocks, "pool_capacity": capacity}
        | _measure_host_step(n, blocks, capacity)
        for name, n, blocks, capacity in _HOST_STEP_POINTS
    ]
    payload = {
        "bench": "exchange",
        "full_scale": FULL,
        "host_step": host_step,
        "pool_capacity": _POOL_CAPACITY,
        "target_speedup_at_acceptance": 3.0,
        "points": points,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_exchange.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return payload


def _render(payload: dict) -> str:
    table = Table(
        ["n", "B", "queue+scalar ms/round", "shm+batched ms/round", "speedup"],
        title="Host exchange + GA hot path (per round)",
    )
    for p in payload["points"]:
        mark = " *" if p["acceptance_point"] else ""
        table.add_row(
            [
                p["n"],
                p["blocks"],
                f"{p['queue_scalar']['per_round_ms']:.2f}",
                f"{p['shm_batched']['per_round_ms']:.2f}",
                f"{p['speedup']:.2f}x{mark}",
            ]
        )
    steps = Table(
        ["workload", "n", "B", "pool", "q1 us", "median us", "q3 us"],
        title="Host step per round: absorb + generate + publish (shm+batched)",
    )
    for p in payload["host_step"]:
        q = p["step_us"]
        steps.add_row(
            [p["workload"], p["n"], p["blocks"], p["pool_capacity"],
             f"{q['q1']:.1f}", f"{q['median']:.1f}", f"{q['q3']:.1f}"]
        )
    return (
        table.render()
        + "\n(* acceptance point, target >= 3x)\n\n"
        + steps.render()
    )


def test_bench_exchange(report):
    payload = run_bench()
    report("Exchange rings (Figure 5)", _render(payload))
    for p in payload["host_step"]:
        assert 0 < p["step_us"]["q1"] <= p["step_us"]["median"] <= p["step_us"]["q3"]
    for p in payload["points"]:
        assert p["shm_batched"]["elapsed_s"] > 0
        if p["acceptance_point"]:
            assert p["speedup"] >= 3.0, (
                f"shm+batched must be >= 3x the queue+scalar baseline at "
                f"n={p['n']}, B={p['blocks']}; measured {p['speedup']}x"
            )


if __name__ == "__main__":  # pragma: no cover
    print(_render(run_bench()))
