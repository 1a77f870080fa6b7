"""The four workloads and the closed-loop client that drives them.

The orchestrator (``python -m benchmarks.e2e run``) starts this module as a
fresh child interpreter for every phase::

    python -m benchmarks.e2e.workloads --workload NAME --seed S \\
        --seconds T --phase setup|measure [--trace] [--tiny] [--spans FILE]

``setup`` times one cold start and exits; ``measure`` times one cold start
and then runs the closed loop for ``T`` seconds.  The client sends its next
request only after the previous one returned, from this one thread.  Every
time is a wall clock read here, around a call into a public API; nothing
reads ``SolveResult.elapsed``, ``setup_ns`` or ``search_ns``.  Between
requests the client times the reference kernel of ``speed.py``, and each
time is stored with the factor that scales it to the host's nominal speed.
Every answer is checked: its ``best_energy`` is recomputed from ``best_x``.

The last line of stdout is one JSON object with the raw samples.

The module's top level imports the standard library only: the set-up time
starts before the program is imported, and ``spawn``-started service
workers re-import this module as their ``__main__``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any

#: Seed the committed ledger (``expected.json``) was recorded with.
DEFAULT_SEED = 1

#: Longest a service job may take before it counts as failed.  A ``solve()``
#: call has no timeout of its own: the orchestrator's per-workload budget
#: bounds it, and a child killed on that budget fails the whole run.
OP_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (README.md and BENCHMARK.json say why it exists)."""

    name: str
    kind: str  # "sync" | "process" | "service"
    full: dict[str, Any]
    tiny: dict[str, Any]
    devices: int = 1
    backend: str | None = None
    exchange: str | None = None
    start_method: str | None = None
    #: Requests the loop runs even when ``--seconds`` is over first.
    min_ops: int = 3

    @property
    def mode(self) -> str:
        """``solve()`` mode of one request (service jobs run in process mode)."""
        return "sync" if self.kind == "sync" else "process"


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "random-dense-sync",
            "sync",
            full=dict(problem="dense", n=1024, instances=16, blocks=32, local_steps=64,
                      pool=48, rounds=5),
            tiny=dict(problem="dense", n=64, instances=2, blocks=8, local_steps=8,
                      pool=16, rounds=4),
        ),
        Workload(
            "maxcut-sparse-sync",
            "sync",
            full=dict(problem="maxcut", nodes=2000, edges=19990, instances=16,
                      blocks=32, local_steps=64, pool=48, rounds=2),
            tiny=dict(problem="maxcut", nodes=120, edges=360, instances=2,
                      blocks=8, local_steps=8, pool=16, rounds=3),
        ),
        Workload(
            "process-oneshot",
            "process",
            full=dict(problem="dense", n=256, instances=1, blocks=16, local_steps=32,
                      pool=64, rounds=200),
            tiny=dict(problem="dense", n=32, instances=1, blocks=4, local_steps=8,
                      pool=16, rounds=8),
            devices=2,
            backend="bitplane",
            exchange="shm",
        ),
        Workload(
            "service-stream",
            "service",
            full=dict(sizes=(48, 96, 160), seeds_per_size=12, blocks=8,
                      local_steps=8, pool=16, rounds=5, cache_lane=3),
            tiny=dict(sizes=(16, 24), seeds_per_size=2, blocks=4,
                      local_steps=4, pool=8, rounds=2, cache_lane=2),
            exchange="shm",
            start_method="spawn",
            min_ops=1,  # passes, for this workload
        ),
    )
}


def derive_seed(seed: int, *tags: Any) -> int:
    """A 31-bit seed that depends only on ``seed`` and ``tags``."""
    digest = hashlib.sha256(repr((seed, *tags)).encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def service_problems(w: Workload, p: dict[str, Any], seed: int) -> dict[int, Any]:
    """One problem per size, generated from ``seed`` alone."""
    from repro.problems.random_qubo import random_qubo

    return {n: random_qubo(n, seed=derive_seed(seed, w.name, n)) for n in p["sizes"]}


class Instances:
    """Instance ``k`` (mod ``instances``) of a sync or process workload.

    Each is generated from the seed alone when first asked for, and only
    the latest is kept: requests walk the instances in order.  Many
    instances keep a run's median from resting on one landscape.
    """

    def __init__(self, w: Workload, p: dict[str, Any], seed: int) -> None:
        self.w, self.p, self.seed = w, p, seed
        self._k: int | None = None
        self._weights: Any = None

    def __getitem__(self, k: int) -> Any:
        k %= self.p["instances"]
        if k != self._k:
            self._k, self._weights = k, self._build(derive_seed(self.seed, self.w.name, k))
        return self._weights

    def _build(self, s: int) -> Any:
        if self.p["problem"] == "maxcut":
            from repro.problems.maxcut import maxcut_to_sparse_qubo, random_graph

            return maxcut_to_sparse_qubo(random_graph(self.p["nodes"], self.p["edges"], seed=s))
        from repro.problems.random_qubo import random_qubo

        return random_qubo(self.p["n"], seed=s)


def job_config(w: Workload, p: dict[str, Any], rounds: int, seed: int) -> dict[str, Any]:
    """Keyword arguments of one solve (``AbsConfig`` fields)."""
    return dict(
        n_gpus=w.devices,
        blocks_per_gpu=p["blocks"],
        local_steps=p["local_steps"],
        pool_capacity=p["pool"],
        max_rounds=rounds,
        seed=seed,
        backend=w.backend,
        exchange=w.exchange,
        start_method=w.start_method,
        lockstep=w.kind != "sync",
    )


def check_answer(weights: Any, result: Any) -> str | None:
    """Recompute ``best_energy`` from ``best_x``; a message on mismatch."""
    from repro.qubo.energy import energy
    from repro.qubo.sparse import SparseQubo

    if isinstance(weights, SparseQubo):
        recomputed = weights.energy(result.best_x)
    else:
        recomputed = energy(weights, result.best_x)
    if recomputed != result.best_energy:
        return f"reported best_energy {result.best_energy}, recomputed {recomputed}"
    return None


class Client:
    """The closed-loop client: one request in flight, every answer checked."""

    def __init__(self) -> None:
        from benchmarks.e2e.speed import Speedometer

        self.ops: list[dict[str, Any]] = []
        #: ``[requests, t0, t1, traced]`` per measurement window.
        self.windows: list[list[Any]] = []
        self.meter = Speedometer()

    def _tick(self, kind: str) -> None:
        # Never before the cold request: the kernel would warm NumPy for it.
        if kind != "setup" and self.meter.due():
            self.meter.tick()

    def _record(
        self, kind: str, t0: float, t1: float, weights: Any, result: Any,
        error: str | None, traced: bool, cache_hit: bool = False,
    ) -> dict[str, Any]:
        if error is None:
            error = check_answer(weights, result)
        op = {
            "kind": kind, "t0": t0, "t1": t1, "latency_s": t1 - t0,
            "evaluated": int(result.evaluated) if result is not None else 0,
            "energy": int(result.best_energy) if result is not None else None,
            "traced": traced, "cache_hit": cache_hit, "error": error,
        }
        if error is not None:
            print(f"[e2e] {kind} request failed: {error}", file=sys.stderr)
        self.ops.append(op)
        return op

    def solve(self, weights: Any, kwargs: dict[str, Any], mode: str,
              kind: str, traced: bool = False) -> dict[str, Any]:
        from repro import solve

        result, error = None, None
        self._tick(kind)
        t0 = time.perf_counter()
        try:
            result = solve(weights, mode=mode, **kwargs)
        except Exception as exc:  # noqa: BLE001 - a failed request is data
            traceback.print_exc(file=sys.stderr)
            error = f"{type(exc).__name__}: {exc}"
        return self._record(kind, t0, time.perf_counter(), weights, result, error, traced)

    def job(self, svc: Any, weights: Any, kwargs: dict[str, Any],
            kind: str, traced: bool = False) -> dict[str, Any]:
        from repro import AbsConfig

        result, error, hit = None, None, False
        self._tick(kind)
        t0 = time.perf_counter()
        try:
            job_id = svc.submit(weights, AbsConfig(**kwargs))
            result = svc.result(job_id, timeout=OP_TIMEOUT_S)
            t1 = time.perf_counter()
            hit = bool(svc.status(job_id)["cache_hit"])
        except Exception as exc:  # noqa: BLE001 - a failed request is data
            t1 = time.perf_counter()
            traceback.print_exc(file=sys.stderr)
            error = f"{type(exc).__name__}: {exc}"
        return self._record(kind, t0, t1, weights, result, error, traced, hit)


def first_call(w: Workload, p: dict[str, Any], seed: int, problems: Any, client: Client) -> float:
    """The workload's first request, stopped after one round per device."""
    kwargs = job_config(w, p, w.devices, derive_seed(seed, w.name, "setup"))
    if w.kind != "service":
        return client.solve(problems[0], kwargs, w.mode, "setup")["latency_s"]
    from repro.service import SolverService

    first = next(iter(problems.values()))
    t0 = time.perf_counter()
    svc = SolverService()
    try:
        op = client.job(svc, first, kwargs, "setup")
    finally:
        svc.close()
    return op["t1"] - t0


def service_pass(w: Workload, p: dict[str, Any], seed: int, problems: dict[int, Any],
                 pass_no: int, client: Client, traced: bool) -> None:
    """One ``SolverService`` lifetime: problem-major jobs, then the cache lane."""
    from repro.service import SolverService

    t0 = time.perf_counter()
    before = len(client.ops)
    svc = SolverService()
    try:
        last = []
        for n, q in problems.items():
            for i in range(p["seeds_per_size"]):
                kwargs = job_config(w, p, p["rounds"], derive_seed(seed, w.name, pass_no, n, i))
                op = client.job(svc, q, kwargs, "measure", traced)
            last.append((q, kwargs, op))
        for q, kwargs, original in last[: p["cache_lane"]]:
            op = client.job(svc, q, kwargs, "cache", traced)
            if op["error"] is None and op["energy"] != original["energy"]:
                op["error"] = f"resubmission answered {op['energy']}, first answer {original['energy']}"
    finally:
        svc.close()
    client.windows.append([len(client.ops) - before, t0, time.perf_counter(), traced])


def measure(w: Workload, p: dict[str, Any], seed: int, problems: Any, seconds: float,
            client: Client, tracer: Any) -> None:
    """The closed loop: requests back to back until ``seconds`` have passed.

    Requests ``2j`` and ``2j + 1`` solve instance ``j`` (every service
    pass solves the same problems).  With a tracer the first of each pair
    (service: every other pass) is traced, so the traced and untraced
    latencies come from one process and the same instances.
    """
    start = time.perf_counter()
    i = 0
    while i < w.min_ops or time.perf_counter() - start < seconds:
        traced = tracer is not None and i % 2 == 0
        if tracer is not None:
            tracer.enabled = traced
        if w.kind == "service":
            service_pass(w, p, seed, problems, i, client, traced)
        else:
            kwargs = job_config(w, p, p["rounds"], derive_seed(seed, w.name, "op", i))
            op = client.solve(problems[i // 2], kwargs, w.mode, "measure", traced)
            client.windows.append([1, op["t0"], op["t1"], traced])
        i += 1
    if tracer is not None:
        tracer.enabled = False
    client.meter.tick()  # the last request's closing tick


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.workloads")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", choices=("setup", "measure"), required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans", help="JSONL file for the traced spans")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    p = w.tiny if args.tiny else w.full

    # Cold start: importing the program plus its first request.
    t0 = time.perf_counter()
    import repro  # noqa: F401

    if w.kind == "service":
        import repro.service  # noqa: F401
    import_s = time.perf_counter() - t0
    problems = (service_problems(w, p, args.seed) if w.kind == "service"
                else Instances(w, p, args.seed))
    client = Client()
    setup_s = import_s + first_call(w, p, args.seed, problems, client)
    setup_end = time.perf_counter()
    meter = client.meter
    meter.tick()
    setup_scale = meter.scale(t0, setup_end)

    layers = None
    if args.phase == "measure":
        tracer = None
        if args.trace:
            from benchmarks.e2e.trace import Tracer

            tracer = Tracer()
            tracer.install()
        measure(w, p, args.seed, problems, args.seconds, client, tracer)
        if tracer is not None:
            from benchmarks.e2e.trace import layer_metrics

            layers = layer_metrics(tracer, client.ops, w.devices)
            if args.spans:
                tracer.write_jsonl(args.spans, client.ops)
    # Times are raw wall times, each with the factor that scales it.  A
    # window's wall time leaves out the ticks inside it.
    print(json.dumps({
        "setup_s": setup_s,
        "setup_scale": setup_scale,
        "ops": [{**{k: v for k, v in op.items() if k not in ("t0", "t1")},
                 "scale": meter.scale(op["t0"], op["t1"])} for op in client.ops],
        "windows": [[n, t1 - t0 - meter.busy(t0, t1), meter.scale(t0, t1), traced]
                    for n, t0, t1, traced in client.windows],
        "kernel_s": [s for _, _, s in meter.ticks],
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
