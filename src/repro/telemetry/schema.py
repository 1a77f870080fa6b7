"""The documented event schema and a JSONL trace validator.

This module is the machine-checkable twin of ``docs/observability.md``:
every event the pipeline can emit is declared here with its required
and optional fields, and :func:`validate_trace` checks a ``--trace-out``
JSONL file line by line against the declarations.  ``make trace-demo``
and the ``python -m repro trace`` subcommand both run this validator,
so the docs, the emit sites, and the schema cannot drift apart
silently.

Run directly on a trace file::

    python -m repro.telemetry.schema out.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

#: Type groups used in field specs.  ``bool`` is excluded from INT/NUM
#: (JSON distinguishes ``true`` from ``1``; so do we).
INT = ("int",)
NUM = ("num",)
STR = ("str",)
BOOL = ("bool",)
OPT_INT = ("int", "null")
OPT_NUM = ("num", "null")


def _type_ok(value: Any, kinds: Sequence[str]) -> bool:
    for kind in kinds:
        if kind == "null" and value is None:
            return True
        if kind == "bool" and isinstance(value, bool):
            return True
        if kind == "int" and isinstance(value, int) and not isinstance(value, bool):
            return True
        if kind == "num" and isinstance(value, (int, float)) and not isinstance(value, bool):
            return True
        if kind == "str" and isinstance(value, str):
            return True
    return False


@dataclass(frozen=True)
class EventSpec:
    """Field contract for one event name."""

    required: Mapping[str, Sequence[str]]
    optional: Mapping[str, Sequence[str]] = field(default_factory=dict)


#: Every event name the pipeline emits, with its payload contract.
#: Keep in lock-step with docs/observability.md.
EVENT_SCHEMAS: dict[str, EventSpec] = {
    # Solver lifecycle -------------------------------------------------
    "solve.start": EventSpec(
        required={
            "mode": STR, "n": INT, "n_gpus": INT, "blocks_per_gpu": INT,
            "local_steps": INT, "pool_capacity": INT, "seed": OPT_INT,
            "adapt_windows": BOOL,
        },
        # ``backend`` is the *active* kernel backend (post-fallback);
        # ``diversity_min_dist`` / ``variants`` are the Diverse-ABS
        # knobs; all optional so earlier traces stay valid.
        optional={
            "backend": STR, "diversity_min_dist": INT, "variants": STR,
        },
    ),
    "solve.end": EventSpec(
        required={
            "best_energy": INT, "rounds": INT, "elapsed": NUM,
            "evaluated": INT, "flips": INT, "reached_target": BOOL,
        },
        # ``sweeps`` joined in 1.4 (min per-device round count);
        # optional so earlier traces stay valid.
        optional={"workers_restarted": INT, "workers_lost": INT, "sweeps": INT},
    ),
    # Host loop (paper §3.1 Steps 2–4) ---------------------------------
    "host.round": EventSpec(
        required={
            "round": INT, "device": INT, "best_energy": OPT_NUM,
            "pool_size": INT, "elapsed": NUM,
        }
    ),
    "host.absorb": EventSpec(
        required={
            "arrived": INT, "inserted": INT, "rejected_duplicate": INT,
            "rejected_worse": INT, "pool_size": INT, "pool_best": OPT_NUM,
            "pool_worst": OPT_NUM, "pool_spread": OPT_NUM,
        },
        # Diverse-ABS niche rejections this absorb (optional so
        # pre-diversity traces stay valid).
        optional={"rejected_diverse": INT},
    ),
    "host.targets": EventSpec(
        required={"count": INT, "mutation": INT, "crossover": INT, "copy": INT}
    ),
    "host.queue": EventSpec(
        required={"device": INT, "results_queued": INT}
    ),
    # Exchange transport (process mode; see repro.abs.exchange) -------
    # Emitted once per solve after the transport is built.  The slot
    # sizes are the bit-packed shared-memory record sizes.
    "exchange.open": EventSpec(
        required={
            "transport": STR, "workers": INT, "ring_slots": INT,
            "target_slot_bytes": INT, "result_slot_bytes": INT,
        },
    ),
    "worker.result": EventSpec(
        required={
            "worker": INT, "round": INT, "best_energy": INT,
            "evaluated": INT, "flips": INT,
        }
    ),
    # Worker supervision (process mode; see repro.abs.supervisor) -----
    "supervisor.stall": EventSpec(
        required={"worker": INT, "silent_for": NUM, "stall_timeout": NUM}
    ),
    "supervisor.restart": EventSpec(
        required={
            "worker": INT, "reason": STR, "incarnation": INT,
            "restarts_used": INT, "exitcode": OPT_INT,
        }
    ),
    "supervisor.degrade": EventSpec(
        required={
            "worker": INT, "reason": STR, "restarts_used": INT,
            "healthy_left": INT, "exitcode": OPT_INT,
        }
    ),
    # Device loop (paper §3.2 Steps 2–5) -------------------------------
    "device.round": EventSpec(
        required={
            "device": INT, "round": INT, "straight_flips": INT,
            "retired": INT, "local_flips": INT, "evaluated": INT,
            "best_energy": INT,
        }
    ),
    "engine.straight": EventSpec(
        required={
            "flips": INT, "iters": INT, "retired": INT,
            "already_at_target": INT,
        },
        optional={"device": INT, "backend": STR},
    ),
    "engine.local": EventSpec(
        required={"steps": INT, "flips": INT, "evaluated": INT},
        optional={"device": INT, "backend": STR},
    ),
    # Kernel-backend resolution (repro.backends): emitted once per
    # engine when the requested backend was substituted (e.g.
    # ``bitplane`` requested without a C compiler).
    "backend.fallback": EventSpec(
        required={"requested": STR, "using": STR, "reason": STR},
        optional={"device": INT},
    ),
    # Window adaptation (paper §5 future work) -------------------------
    # ``device`` is stamped when the event was relayed from a worker
    # process (process mode); sync-mode emissions omit it.
    "adapt.windows": EventSpec(
        required={
            "reassigned": INT, "window_min": INT, "window_max": INT,
            "window_mean": NUM,
        },
        optional={"device": INT},
    ),
    # Variant-level reallocation (Diverse ABS, arXiv:2207.03069): one
    # device migrated from a stagnating variant to an improving one.
    "adapt.variant": EventSpec(
        required={"device": INT, "from_variant": STR, "to_variant": STR}
    ),
    # Scalar Algorithm-4 reference search ------------------------------
    "search.run": EventSpec(
        required={"steps": INT, "flips": INT, "evaluated": INT, "best_energy": INT}
    ),
    # Warm-fleet solver service (repro.service) ------------------------
    "service.job_submitted": EventSpec(
        required={"job": INT, "n": INT, "priority": INT, "queued": INT}
    ),
    "service.job_start": EventSpec(
        required={"job": INT, "n": INT, "cache_hit": BOOL},
        optional={"weights_cache_hit": BOOL, "fleet_reused": BOOL},
    ),
    "service.job_end": EventSpec(
        required={"job": INT, "status": STR, "elapsed": NUM},
        optional={"best_energy": INT, "rounds": INT},
    ),
}

#: Fields present on every record regardless of event name.
COMMON_FIELDS: dict[str, Sequence[str]] = {"event": STR, "t": NUM, "seq": INT}

#: Stamp fields a wrapping bus (``telemetry.StampedBus``) may add to
#: *any* event: the service stamps every record a job's solve emits
#: with that job's id so one trace can interleave many jobs and still
#: be teased apart.  Allowed everywhere, required nowhere.
STAMP_FIELDS: dict[str, Sequence[str]] = {"job": INT}

#: Every *fixed* counter name the pipeline increments.  Like
#: ``EVENT_SCHEMAS``, this is the machine-checkable registry: the
#: ``telemetry-consistency`` rule in ``repro.analysis`` statically
#: extracts every ``bus.counters.inc(...)`` site from the tree and
#: cross-checks both directions (undeclared increments *and* dead
#: declarations are errors).  Run counters — every key of
#: ``SolveResult.counters`` — reach the bus through one fold in the
#: solver's result path (``AdaptiveBulkSearch._search``); the rest are
#: bus-only.  Keep in lock-step with docs/observability.md.
COUNTER_NAMES: frozenset[str] = frozenset(
    {
        # solution pool (repro.ga.pool)
        "pool.inserted",
        "pool.rejected_duplicate",
        "pool.rejected_worse",
        "pool.rejected_diverse",
        # GA operator mix (repro.ga.host)
        "ga.mutation",
        "ga.crossover",
        "ga.copy",
        # host loop (repro.abs.host / solver)
        "host.rounds",
        "host.solutions_absorbed",
        "host.targets_generated",
        # window adapter + variant controller (repro.abs.adaptive)
        "adapt.reassignments",
        "adapt.nonfinite_observations",
        "adapt.variant_reassignments",
        # variant recipes (repro.abs.variants / device tabu polish)
        "variant.tabu_steps",
        # worker supervision (repro.abs.supervisor)
        "supervisor.restarts",
        "supervisor.workers_lost",
        # scalar reference search (repro.search)
        "search.flips",
        "search.evaluated",
        # bulk engine (repro.gpusim.engine)
        "engine.flips",
        "engine.evaluated",
        "engine.delta_updates",
        "engine.straight_flips",
        "engine.local_flips",
        "engine.straight_retirements",
        # graycode exact finisher (repro.abs.decompose)
        "backend.graycode.finisher_calls",
        "backend.graycode.enumerated",
        # exchange transport (repro.abs.exchange)
        "exchange.targets_published",
        "exchange.results_consumed",
        "exchange.bytes_to_device",
        "exchange.bytes_from_device",
        "exchange.packs",
        "exchange.unpacks",
        "exchange.publish_stalls",
        "exchange.target_waits",
        "exchange.target_wait_ns",
        # solver phase timings (repro.abs.solver)
        "solver.setup_ns",
        "solver.search_ns",
        # warm-fleet solver service (repro.service)
        "service.jobs_submitted",
        "service.jobs_completed",
        "service.jobs_cancelled",
        "service.jobs_failed",
        "service.cache_hits",
        "service.weights_cache_hits",
        "service.fleet_rearms",
        "service.fleet_spawns",
    }
)

#: Parameterized counter families: ``*`` stands for one dynamic path
#: segment (today: the active kernel-backend name).  An f-string
#: increment site must normalize to exactly one of these patterns.
COUNTER_PATTERNS: tuple[str, ...] = (
    "backend.*.local_steps_ns",
    "backend.*.straight_ns",
    "backend.*.prepare_ns",
)


class SchemaError(ValueError):
    """Raised for a record that violates the declared schema.

    ``lineno`` carries the 1-based trace line of the first violation
    when the error came from :func:`validate_trace` (``None`` for
    single-record validation), so callers can print machine-parseable
    ``path:line:`` locations.
    """

    def __init__(self, message: str, lineno: int | None = None) -> None:
        super().__init__(message)
        self.lineno = lineno


def validate_record(record: Mapping[str, Any]) -> None:
    """Check one JSONL record; raises :class:`SchemaError` on violation."""
    for name, kinds in COMMON_FIELDS.items():
        if name not in record:
            raise SchemaError(f"missing common field {name!r}")
        if not _type_ok(record[name], kinds):
            raise SchemaError(
                f"field {name!r} has wrong type {type(record[name]).__name__}"
            )
    event = record["event"]
    spec = EVENT_SCHEMAS.get(event)
    if spec is None:
        raise SchemaError(f"unknown event name {event!r}")
    payload = {k: v for k, v in record.items() if k not in COMMON_FIELDS}
    for fname, kinds in spec.required.items():
        if fname not in payload:
            raise SchemaError(f"{event}: missing required field {fname!r}")
        if not _type_ok(payload[fname], kinds):
            raise SchemaError(
                f"{event}: field {fname!r} has wrong type "
                f"{type(payload[fname]).__name__} (want {'/'.join(kinds)})"
            )
    for fname, value in payload.items():
        if fname in spec.required:
            continue
        if fname in spec.optional:
            if not _type_ok(value, spec.optional[fname]):
                raise SchemaError(
                    f"{event}: field {fname!r} has wrong type {type(value).__name__}"
                )
            continue
        if fname in STAMP_FIELDS:
            if not _type_ok(value, STAMP_FIELDS[fname]):
                raise SchemaError(
                    f"{event}: stamp field {fname!r} has wrong type "
                    f"{type(value).__name__}"
                )
            continue
        raise SchemaError(f"{event}: undeclared field {fname!r}")


def validate_trace(path: str | Path) -> dict[str, int]:
    """Validate a JSONL trace file; returns ``{event name: count}``.

    Raises :class:`SchemaError` naming the first offending line, or
    :class:`OSError` if the file cannot be read.  Sequence numbers must
    be strictly increasing (the bus guarantees it; a shuffled or
    truncated-and-concatenated file is not a valid trace).
    """
    counts: dict[str, int] = {}
    last_seq = 0
    with Path(path).open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(
                    f"line {lineno}: not valid JSON ({exc})", lineno=lineno
                ) from exc
            if not isinstance(record, dict):
                raise SchemaError(
                    f"line {lineno}: record is not a JSON object", lineno=lineno
                )
            try:
                validate_record(record)
            except SchemaError as exc:
                raise SchemaError(f"line {lineno}: {exc}", lineno=lineno) from exc
            if record["seq"] <= last_seq:
                raise SchemaError(
                    f"line {lineno}: seq {record['seq']} not increasing "
                    f"(previous {last_seq})",
                    lineno=lineno,
                )
            last_seq = record["seq"]
            counts[record["event"]] = counts.get(record["event"], 0) + 1
    return counts


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry: validate a trace file and print per-event counts."""
    parser = argparse.ArgumentParser(
        description="Validate an ABS telemetry JSONL trace against the schema."
    )
    parser.add_argument("trace", help="path to a --trace-out JSONL file")
    args = parser.parse_args(argv)
    try:
        counts = validate_trace(args.trace)
    except SchemaError as exc:
        # Machine-parseable location first (`path:line:`), so CI log
        # scrapers and editors can jump straight to the offending record.
        if exc.lineno is not None:
            print(f"{args.trace}:{exc.lineno}: INVALID: {exc}", file=sys.stderr)
        else:
            print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    total = sum(counts.values())
    width = max((len(n) for n in counts), default=5)
    for name in sorted(counts):
        print(f"{name:<{width}}  {counts[name]}")
    print(f"OK: {total} events, {len(counts)} event types")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
