"""Project-invariant static analysis for the ABS reproduction.

Four PRs in, several of the repo's correctness properties are
*conventions* rather than types: telemetry names must match
``repro.telemetry.schema``, determinism forbids global RNG state in the
search stack, ``AbsConfig`` knobs must be plumbed through every layer,
kernel backends must stay engine-free, and the Figure-5 shared-memory
exchange depends on a hand-rolled seqlock/SPSC store ordering.  This
package turns those conventions into a CI gate:

- :mod:`repro.analysis.core` — a small rule-registry AST lint framework
  (findings with ``file:line``, severities, ``# repro: noqa[rule]``
  suppressions) exposed as ``python -m repro analyze``.
- :mod:`repro.analysis.rules` — the core project rules
  (``telemetry-consistency``, ``rng-discipline``, ``config-plumbing``,
  ``kernel-purity``, ``shm-protocol``).
- :mod:`repro.analysis.lockcheck` — the ``lock-discipline`` rule: a
  machine-checked guarded-by convention (``# guarded-by: <lock>``
  annotations) for the service/fleet/supervisor thread-level state,
  with lock-order cycle detection and ``Condition.wait``
  predicate-loop enforcement.
- :mod:`repro.analysis.interleave` — a deterministic interleaving
  explorer that drives the real ``TargetMailbox`` / ``SolutionRing``
  byte-level steps through exhaustive small-depth reader/writer
  schedules, proving no torn read, lost wraparound or lost doorbell
  wakeup is observable.
- :mod:`repro.analysis.lifecycle` — the same explorer applied one
  layer up: the ``SolverService`` job lifecycle (submit / dispatch /
  cancel / cache-insert / close), proving no schedule caches a
  partial result, loses a queue slot, double-dispatches, or finishes
  DONE without a result.

Rule catalog and suppression syntax: ``docs/analysis.md``.
"""

from __future__ import annotations

from repro.analysis.core import (
    FINDING_SCHEMA_VERSION,
    SEVERITIES,
    Finding,
    Module,
    Rule,
    all_rules,
    analyze_paths,
    get_rule,
    render_findings,
    severity_rank,
)

__all__ = [
    "FINDING_SCHEMA_VERSION",
    "Finding",
    "Module",
    "Rule",
    "SEVERITIES",
    "all_rules",
    "analyze_paths",
    "get_rule",
    "render_findings",
    "severity_rank",
]
