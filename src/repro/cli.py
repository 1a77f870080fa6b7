"""Command-line interface: ``python -m repro`` / ``abs-solve``.

Subcommands
-----------
- ``solve``     — run ABS on a QUBO instance file (.qubo/.json/.npy)
- ``maxcut``    — solve Max-Cut from a G-set file or synthetic catalog name
- ``tsp``       — solve a TSPLIB file or synthetic catalog name as QUBO
- ``random``    — generate a random 16-bit instance file
- ``occupancy`` — print the Table 2 occupancy sweep for a problem size
- ``rate``      — print modeled search rates (calibrated Table 2 model)
- ``landscape`` — landscape anatomy of an instance (ruggedness, traps)
- ``trace``     — validate a ``--trace-out`` JSONL file against the schema
- ``analyze``   — project-invariant static analyzer (``repro.analysis``)
  with an optional exchange-protocol interleaving check
- ``serve``     — run a batch of jobs through the warm-fleet solver
  service (persistent workers, prepared-state reuse, result cache;
  see ``docs/service.md``)

The solving subcommands accept ``--trace-out FILE`` (write the
telemetry JSONL trace documented in ``docs/observability.md``) and
``--log-level {info,debug}`` (progress lines / every event on stderr).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.utils.tables import Table


def _telemetry(args: argparse.Namespace):
    """Build the (possibly null) bus from the shared observability flags."""
    from repro.telemetry import make_bus

    return make_bus(
        getattr(args, "trace_out", None), getattr(args, "log_level", None)
    )


def _add_backend_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="kernel backend: auto, numpy (reference) or bitplane "
        "(packed uint64 state + compiled C kernels).  auto picks "
        "bitplane where a C compiler is found, else numpy; an explicit "
        "bitplane falls back to numpy with a warning.  Default: "
        "$REPRO_BACKEND or auto.  Never changes the search result, "
        "only speed.",
    )


def _add_observability_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write a telemetry JSONL trace (schema: docs/observability.md)",
    )
    p.add_argument(
        "--log-level",
        choices=("info", "debug"),
        default=None,
        help="log progress (info) or every event (debug) to stderr",
    )


def _parse_window(value: str):
    """``--window`` values: 'spread', an int, or comma-separated ints."""
    if value == "spread":
        return "spread"
    if "," in value:
        return [int(v) for v in value.split(",") if v.strip()]
    return int(value)


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.abs import AbsConfig, AdaptiveBulkSearch
    from repro.ga.host import GaConfig
    from repro.qubo import io as qio

    matrix = qio.load(args.instance)
    config = AbsConfig(
        n_gpus=args.gpus,
        blocks_per_gpu=args.blocks,
        local_steps=args.local_steps,
        window=args.window,
        backend=args.backend,
        pool_capacity=args.pool,
        ga=GaConfig(
            p_mutation=args.ga_mutation, p_crossover=args.ga_crossover
        ),
        scan_neighbors=args.scan_neighbors,
        adapt_windows=args.adapt,
        adapt_period=args.adapt_period,
        adapt_fraction=args.adapt_fraction,
        target_energy=args.target,
        time_limit=args.time_limit,
        max_rounds=args.rounds,
        seed=args.seed,
        max_worker_restarts=args.max_worker_restarts,
        worker_stall_timeout=args.worker_stall_timeout,
        start_method=args.start_method,
        exchange=args.exchange,
        lockstep=args.lockstep,
        diversity_min_dist=args.diversity_min_dist,
        variants=args.variants,
        variant_adapt=args.variant_adapt,
        variant_adapt_period=args.variant_adapt_period,
    )
    with _telemetry(args) as bus:
        result = AdaptiveBulkSearch(matrix, config, telemetry=bus).solve(args.mode)
    print(f"instance      : {matrix.name} (n={matrix.n})")
    if args.backend is not None:
        from repro.backends import resolve_backend

        print(f"backend       : {resolve_backend(args.backend).name}")
    print(f"best energy   : {result.best_energy}")
    print(f"elapsed       : {result.elapsed:.4g} s")
    print(f"search rate   : {result.search_rate:.4g} solutions/s")
    print(f"rounds        : {result.rounds} ({result.sweeps} sweeps)")
    if result.workers_restarted or result.workers_lost:
        print(
            f"workers       : {result.workers_restarted} restarted, "
            f"{result.workers_lost} lost"
        )
    if args.target is not None:
        status = "reached" if result.reached_target else "NOT reached"
        print(f"target {args.target}: {status}")
    if args.trace_out:
        print(f"trace         -> {args.trace_out}")
    if args.out:
        import numpy as np

        np.save(args.out, result.best_x)
        print(f"best solution -> {args.out}")
    return 0 if (args.target is None or result.reached_target) else 1


def _cmd_maxcut(args: argparse.Namespace) -> int:
    import os

    from repro.abs import AbsConfig, AdaptiveBulkSearch
    from repro.problems import (
        cut_value,
        load_gset,
        maxcut_to_qubo,
        maxcut_to_sparse_qubo,
        synthetic_gset,
    )
    from repro.problems.gset import GSET_CATALOG

    if os.path.exists(args.graph):
        graph = load_gset(args.graph)
        source = f"file {args.graph}"
    elif args.graph in GSET_CATALOG:
        graph = synthetic_gset(args.graph)
        source = f"synthetic analogue {args.graph}"
    else:
        raise ValueError(
            f"{args.graph!r} is neither a file nor a catalog name "
            f"(catalog: {sorted(GSET_CATALOG)})"
        )
    builder = maxcut_to_sparse_qubo if args.sparse else maxcut_to_qubo
    qubo = builder(graph)
    config = AbsConfig(
        blocks_per_gpu=args.blocks,
        local_steps=args.local_steps,
        backend=args.backend,
        pool_capacity=args.pool,
        adapt_windows=args.adapt,
        time_limit=args.time_limit,
        max_rounds=args.rounds,
        seed=args.seed,
    )
    with _telemetry(args) as bus:
        result = AdaptiveBulkSearch(qubo, config, telemetry=bus).solve()
    cut = -result.best_energy
    print(f"graph       : {source}")
    print(
        f"              {graph.number_of_nodes()} vertices, "
        f"{graph.number_of_edges()} edges"
    )
    print(f"best cut    : {cut} (verified {cut_value(graph, result.best_x)})")
    print(f"elapsed     : {result.elapsed:.4g} s")
    print(f"search rate : {result.search_rate:.4g} solutions/s")
    if args.trace_out:
        print(f"trace       -> {args.trace_out}")
    return 0


def _cmd_tsp(args: argparse.Namespace) -> int:
    import os

    from repro.abs import AbsConfig, AdaptiveBulkSearch
    from repro.problems import decode_tour, held_karp, tour_length, tsp_to_qubo, two_opt
    from repro.problems.tsplib import TSPLIB_CATALOG, load_tsplib, synthetic_instance

    if os.path.exists(args.instance):
        inst = load_tsplib(args.instance)
        source = f"file {args.instance}"
    elif args.instance in TSPLIB_CATALOG:
        inst = synthetic_instance(args.instance)
        source = f"synthetic analogue {args.instance}"
    else:
        raise ValueError(
            f"{args.instance!r} is neither a file nor a catalog name "
            f"(catalog: {sorted(TSPLIB_CATALOG)})"
        )
    if inst.cities <= 17:
        ref, _ = held_karp(inst.dist)
        ref_kind = "exact optimum"
    else:
        ref, _ = two_opt(inst.dist, seed=0, restarts=4)
        ref_kind = "2-opt reference"
    tq = tsp_to_qubo(inst.dist, name=inst.name)
    target_len = int(round(ref * (1 + args.slack)))
    config = AbsConfig(
        blocks_per_gpu=args.blocks,
        local_steps=args.local_steps,
        backend=args.backend,
        pool_capacity=args.pool,
        target_energy=tq.length_to_energy(target_len),
        time_limit=args.time_limit,
        seed=args.seed,
    )
    with _telemetry(args) as bus:
        result = AdaptiveBulkSearch(tq.qubo, config, telemetry=bus).solve()
    print(f"instance    : {source} ({inst.cities} cities, {tq.n_bits} bits)")
    print(f"reference   : {ref} ({ref_kind}); target {target_len} (+{args.slack:.0%})")
    tour = decode_tour(result.best_x, inst.cities)
    if tour is None:
        print("best solution violates tour constraints — raise --time-limit")
        return 1
    length = tour_length(inst.dist, tour)
    print(f"tour length : {length} (target {'reached' if result.reached_target else 'missed'})")
    print(f"tour        : {' '.join(map(str, tour))}")
    print(f"elapsed     : {result.elapsed:.4g} s")
    return 0 if result.reached_target else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry.schema import main as schema_main

    return schema_main([args.trace])


def _cmd_random(args: argparse.Namespace) -> int:
    from repro.problems.random_qubo import random_qubo
    from repro.qubo import io as qio

    matrix = random_qubo(args.n, args.seed)
    qio.save(matrix, args.out)
    print(f"wrote {matrix.name} (n={matrix.n}, 16-bit weights) -> {args.out}")
    return 0


def _cmd_occupancy(args: argparse.Namespace) -> int:
    from repro.gpusim import sweep_bits_per_thread

    if args.n < 1:
        raise ValueError(f"n must be >= 1, got {args.n}")
    table = Table(
        ["bits/thread", "threads/block", "blocks/SM", "active blocks/GPU", "occupancy"],
        title=f"Occupancy sweep for n={args.n} (RTX 2080 Ti model)",
    )
    for occ in sweep_bits_per_thread(args.n):
        table.add_row(
            [
                occ.bits_per_thread,
                occ.threads_per_block,
                occ.blocks_per_sm,
                occ.active_blocks,
                f"{occ.occupancy:.0%}",
            ]
        )
    print(table.render())
    return 0


def _cmd_rate(args: argparse.Namespace) -> int:
    from repro.gpusim.timing import calibrated_model, model_table2

    model = calibrated_model()
    table = Table(
        ["n", "bits/thread", "threads/block", "active blocks", "modeled rate (T/s)"],
        title=f"Modeled search rate, {args.gpus} GPU(s) (calibrated to paper Table 2)",
    )
    for row in model_table2(model, n_gpus=args.gpus):
        table.add_row(
            [row["n"], row["p"], row["threads"], row["blocks"], row["rate"] / 1e12]
        )
    print(table.render())
    return 0


def _cmd_landscape(args: argparse.Namespace) -> int:
    from repro.metrics.landscape import (
        descent_statistics,
        escape_radius,
        random_walk_autocorrelation,
    )
    from repro.qubo import io as qio

    matrix = qio.load(args.instance)
    print(f"instance          : {matrix.name} (n={matrix.n}, "
          f"density {matrix.density():.3f}, {matrix.weight_bits()}-bit weights)")
    ac = random_walk_autocorrelation(
        matrix, steps=args.walk_steps, seed=args.seed or 0
    )
    print(f"walk ρ(1)         : {ac.rho1:.4f}")
    print(f"correlation length: {ac.correlation_length:.1f} flips")
    ds = descent_statistics(matrix, descents=args.descents, seed=args.seed or 0)
    print(
        f"greedy descents   : {ds.distinct_endpoints}/{args.descents} distinct "
        f"endpoints, best {ds.best:.6g}, mean {ds.mean:.6g}"
    )
    escapable = sum(
        1
        for i in range(args.descents)
        if escape_radius(matrix, ds.endpoint_bits[i]) is not None
    )
    print(
        f"2-flip escapable  : {escapable}/{args.descents} endpoints "
        "(low values indicate penalty-cliff hardness, e.g. TSP QUBOs)"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from pathlib import Path

    import repro
    from repro.analysis import (
        all_rules,
        analyze_paths,
        get_rule,
        render_findings,
        severity_rank,
    )

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id:<22} [{rule.scope}] {rule.description}")
        return 0
    rules = [get_rule(r) for r in args.rule] if args.rule else None
    pkg_root = Path(repro.__file__).resolve().parent
    paths = [Path(p) for p in args.paths] or [pkg_root]
    findings = analyze_paths(paths, rules=rules, root=pkg_root.parent)

    reports = []
    if args.interleave in ("all", "exchange"):
        from repro.analysis.interleave import run_all

        reports.extend(run_all(depth=args.interleave_depth))
    if args.interleave in ("all", "service"):
        from repro.analysis.lifecycle import explore_service

        reports.append(explore_service())

    if args.format == "json":
        extra = {
            "interleave": [
                {
                    "structure": r.structure,
                    "depth": r.depth,
                    "states": r.states,
                    "transitions": r.transitions,
                    "terminals": r.terminals,
                    "violations": r.violations,
                    "ok": r.ok,
                }
                for r in reports
            ]
        }
        print(render_findings(findings, "json", extra=extra))
    else:
        text = render_findings(findings, "text")
        if text:
            print(text)
        for report in reports:
            print(report.summary())
            for violation in report.violations:
                print(f"  {violation}")
        if not findings and not any(not r.ok for r in reports):
            checked = ", ".join(r.id for r in (rules or all_rules()))
            print(f"OK: no findings ({checked})")
    threshold = severity_rank(args.fail_on)
    gating = [f for f in findings if severity_rank(f.severity) >= threshold]
    failed = bool(gating) or any(not r.ok for r in reports)
    return 1 if failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.abs import AbsConfig
    from repro.ga.host import GaConfig
    from repro.qubo import io as qio
    from repro.service import ServiceConfig, SolverService

    if args.jobs:
        with open(args.jobs) as fh:
            specs = json.load(fh)
        if not isinstance(specs, list):
            raise ValueError("--jobs file must hold a JSON list of job specs")
    else:
        specs = [json.loads(line) for line in sys.stdin if line.strip()]
    if not specs:
        raise ValueError("no jobs given (use --jobs FILE or pipe JSONL specs)")

    service_config = ServiceConfig(
        result_cache_size=args.result_cache_size,
        max_queue=args.max_queue,
        default_priority=args.default_priority,
        arm_timeout=args.arm_timeout,
    )
    matrices: dict = {}
    submitted = []
    table = Table(
        ["job", "instance", "status", "best energy", "rounds", "elapsed", "cache"],
        title="warm-fleet service batch",
    )
    failures = 0
    with _telemetry(args) as bus, SolverService(
        service_config, telemetry=bus
    ) as service:
        for i, spec in enumerate(specs):
            if not isinstance(spec, dict) or "instance" not in spec:
                raise ValueError(
                    f"job spec {i} must be a JSON object with an 'instance' key"
                )
            path = spec["instance"]
            if path not in matrices:
                matrices[path] = qio.load(path)
            cfg_kwargs = dict(spec.get("config", {}))
            if "ga" in cfg_kwargs:
                cfg_kwargs["ga"] = GaConfig(**cfg_kwargs["ga"])
            job_id = service.submit(
                matrices[path],
                AbsConfig(**cfg_kwargs),
                mode=spec.get("mode", args.mode),
                priority=spec.get("priority"),
            )
            submitted.append((job_id, path))
        for job_id, path in submitted:
            try:
                service.result(job_id, timeout=args.job_timeout)
            except (RuntimeError, TimeoutError):
                pass
            snap = service.status(job_id)
            if snap["status"] != "done":
                failures += 1
            table.add_row(
                [
                    job_id,
                    path,
                    snap["status"] + (f" ({snap['error']})" if snap["error"] else ""),
                    snap.get("best_energy", "-"),
                    snap.get("rounds", "-"),
                    f"{snap['elapsed']:.3g} s" if "elapsed" in snap else "-",
                    "hit" if snap["cache_hit"] else "",
                ]
            )
    print(table.render())
    done = len(submitted) - failures
    print(f"{done}/{len(submitted)} jobs completed")
    if args.trace_out:
        print(f"trace -> {args.trace_out}")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    from repro.abs.exchange import EXCHANGE_NAMES

    parser = argparse.ArgumentParser(
        prog="abs-solve",
        description="Adaptive Bulk Search QUBO solver (ICPP 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a QUBO instance file")
    p.add_argument("instance", help="path to a .qubo/.json/.npy instance")
    p.add_argument("--gpus", type=int, default=1, help="simulated GPUs (default 1)")
    p.add_argument("--blocks", type=int, default=32, help="blocks per GPU (default 32)")
    p.add_argument("--local-steps", type=int, default=32, help="flips per round (default 32)")
    p.add_argument(
        "--window",
        type=_parse_window,
        default="spread",
        metavar="W",
        help="Figure-2 selection window: an int, 'spread' (temperature "
        "ladder, the default), or comma-separated per-block values",
    )
    p.add_argument("--pool", type=int, default=64, help="host pool capacity (default 64)")
    p.add_argument(
        "--scan-neighbors",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="track the incumbent over all n neighbors per flip "
        "(Algorithm 4's inner check; default on)",
    )
    p.add_argument(
        "--ga-mutation",
        type=float,
        default=0.45,
        metavar="P",
        help="GA mutation probability (default 0.45; remainder after "
        "mutation+crossover is plain copy)",
    )
    p.add_argument(
        "--ga-crossover",
        type=float,
        default=0.45,
        metavar="P",
        help="GA crossover probability (default 0.45)",
    )
    p.add_argument("--target", type=int, default=None, help="stop at this energy")
    p.add_argument("--time-limit", type=float, default=None, help="seconds budget")
    p.add_argument("--rounds", type=int, default=None, help="round budget")
    p.add_argument("--seed", type=int, default=None, help="root RNG seed")
    p.add_argument("--mode", choices=("sync", "process"), default="sync")
    p.add_argument(
        "--adapt",
        action="store_true",
        help="adapt per-block windows automatically (paper §5 future work)",
    )
    p.add_argument(
        "--adapt-period",
        type=int,
        default=4,
        metavar="R",
        help="rounds between window adaptations (with --adapt; default 4)",
    )
    p.add_argument(
        "--adapt-fraction",
        type=float,
        default=0.25,
        metavar="F",
        help="share of blocks reassigned per adaptation "
        "(with --adapt; default 0.25)",
    )
    p.add_argument(
        "--max-worker-restarts",
        type=int,
        default=2,
        metavar="N",
        help="process mode: restart budget per worker before it is "
        "marked lost (default 2; 0 disables restarts)",
    )
    p.add_argument(
        "--worker-stall-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="process mode: treat a worker as unhealthy after this "
        "long without a result (default: disabled)",
    )
    p.add_argument(
        "--start-method",
        choices=("fork", "spawn", "forkserver"),
        default=None,
        help="process mode: multiprocessing start method "
        "(default: fork where available)",
    )
    p.add_argument(
        "--exchange",
        choices=EXCHANGE_NAMES,
        default=None,
        help="process mode: host<->worker transport — shm (Figure-5 "
        "bit-packed shared-memory rings) is the only one; default: "
        "$REPRO_EXCHANGE or shm.",
    )
    p.add_argument(
        "--lockstep",
        action="store_true",
        help="process mode: workers block for fresh targets every round "
        "(deterministic single-worker runs; devices may idle)",
    )
    p.add_argument(
        "--diversity-min-dist",
        type=int,
        default=0,
        metavar="D",
        help="Diverse-ABS pool admission: candidates within Hamming "
        "distance D of a pool entry must beat their niche's energy "
        "(default 0 = base duplicate-only policy)",
    )
    p.add_argument(
        "--variants",
        default=None,
        metavar="NAMES",
        help="Diverse-ABS fleet: comma-separated variant recipes cycled "
        "over devices (ladder,hot,greedy,tabu — or 'fleet' for the "
        "stock mix); default: single base recipe",
    )
    p.add_argument(
        "--variant-adapt",
        action="store_true",
        help="reallocate devices from stagnating variants to improving "
        "ones (sync mode, with --variants)",
    )
    p.add_argument(
        "--variant-adapt-period",
        type=int,
        default=8,
        metavar="S",
        help="sweeps between variant reallocations "
        "(with --variant-adapt; default 8)",
    )
    p.add_argument("--out", default=None, help="write best solution to .npy")
    _add_backend_flag(p)
    _add_observability_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("maxcut", help="solve Max-Cut (G-set file or catalog name)")
    p.add_argument("graph", help="G-set file path or catalog name (G1, G6, …)")
    p.add_argument("--sparse", action="store_true", help="use the sparse backend")
    p.add_argument("--blocks", type=int, default=32)
    p.add_argument("--local-steps", type=int, default=64)
    p.add_argument("--pool", type=int, default=48)
    p.add_argument("--time-limit", type=float, default=3.0)
    p.add_argument("--rounds", type=int, default=None, help="round budget")
    p.add_argument(
        "--adapt",
        action="store_true",
        help="adapt per-block windows automatically (paper §5 future work)",
    )
    p.add_argument("--seed", type=int, default=None)
    _add_backend_flag(p)
    _add_observability_flags(p)
    p.set_defaults(func=_cmd_maxcut)

    p = sub.add_parser("tsp", help="solve a TSP (TSPLIB file or catalog name)")
    p.add_argument("instance", help="TSPLIB .tsp path or catalog name (ulysses16, …)")
    p.add_argument("--slack", type=float, default=0.02, help="target = ref×(1+slack)")
    p.add_argument("--blocks", type=int, default=48)
    p.add_argument("--local-steps", type=int, default=40)
    p.add_argument("--pool", type=int, default=64)
    p.add_argument("--time-limit", type=float, default=20.0)
    p.add_argument("--seed", type=int, default=None)
    _add_backend_flag(p)
    _add_observability_flags(p)
    p.set_defaults(func=_cmd_tsp)

    p = sub.add_parser("random", help="generate a random 16-bit instance")
    p.add_argument("n", type=int, help="number of bits")
    p.add_argument("out", help="output path (.qubo/.json/.npy)")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("occupancy", help="print the occupancy sweep for a size")
    p.add_argument("n", type=int, help="number of bits")
    p.set_defaults(func=_cmd_occupancy)

    p = sub.add_parser("rate", help="print modeled search rates (Table 2)")
    p.add_argument("--gpus", type=int, default=4)
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser(
        "trace", help="validate a telemetry JSONL trace against the schema"
    )
    p.add_argument("trace", help="path to a --trace-out JSONL file")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("landscape", help="landscape anatomy of an instance")
    p.add_argument("instance", help="path to a .qubo/.json/.npy instance")
    p.add_argument("--walk-steps", type=int, default=2000)
    p.add_argument("--descents", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_landscape)

    p = sub.add_parser(
        "serve",
        help="run a batch of jobs through the warm-fleet solver service "
        "(docs/service.md)",
    )
    p.add_argument(
        "--jobs",
        default=None,
        metavar="FILE",
        help="JSON list of job specs; each spec is an object with "
        "'instance' (path), optional 'config' (AbsConfig fields), "
        "'mode', and 'priority'.  Default: read one JSON spec per "
        "line from stdin.",
    )
    p.add_argument(
        "--mode",
        choices=("sync", "process"),
        default="process",
        help="solve mode for specs that don't set one (default process "
        "— jobs share the persistent warm fleet)",
    )
    p.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wait budget when collecting results (default: none)",
    )
    p.add_argument(
        "--result-cache-size",
        type=int,
        default=128,
        metavar="N",
        help="completed-result cache entries, keyed by the canonical "
        "(problem, config, seed) run digest; deterministic seeded jobs "
        "only — sync, or lockstep on one worker, no time_limit "
        "(default 128; 0 disables)",
    )
    p.add_argument(
        "--max-queue",
        type=int,
        default=0,
        metavar="N",
        help="maximum queued jobs before submit fails (default 0 = unbounded)",
    )
    p.add_argument(
        "--default-priority",
        type=int,
        default=0,
        metavar="P",
        help="priority for specs without one; higher runs earlier, ties "
        "are FIFO (default 0)",
    )
    p.add_argument(
        "--arm-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="fleet re-arm handshake deadline per job (default 30)",
    )
    _add_observability_flags(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "analyze",
        help="run the project-invariant static analyzer "
        "(rule catalog: docs/analysis.md)",
    )
    p.add_argument(
        "paths",
        nargs="*",
        default=[],
        help="files/directories to analyze (default: the installed "
        "repro package tree)",
    )
    p.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="ID",
        help="run only this rule (repeatable; default: all rules)",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument(
        "--list-rules", action="store_true", help="list rule ids and exit"
    )
    p.add_argument(
        "--fail-on",
        choices=("note", "warning", "error"),
        default="note",
        help="lowest finding severity that fails the exit code "
        "(default note: any finding fails; interleave violations "
        "always fail)",
    )
    p.add_argument(
        "--interleave",
        nargs="?",
        const="all",
        choices=("all", "exchange", "service"),
        default=None,
        metavar="SUITE",
        help="also model-check concurrency: 'exchange' explores the "
        "seqlock/SPSC ring protocols, 'service' the solver "
        "service's job lifecycle, 'all' (the default when the flag "
        "is bare) both",
    )
    p.add_argument(
        "--interleave-depth",
        type=int,
        default=6,
        metavar="D",
        help="operations per actor for --interleave (default 6)",
    )
    p.set_defaults(func=_cmd_analyze)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
