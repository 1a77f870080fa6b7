"""Benchmark-harness plumbing.

Every bench regenerates one table or figure from the paper's evaluation
section and registers a rendered paper-vs-measured table through the
``report`` fixture.  The tables are printed in the terminal summary
(after pytest's capture ends) and written to ``benchmarks/results/`` so
that ``pytest benchmarks/ --benchmark-only | tee bench_output.txt``
captures them.

Scale: by default every bench runs a *reduced* configuration sized for
a laptop/CI box (seconds, not the paper's four RTX 2080 Ti).  Set
``REPRO_FULL=1`` for the full instance list (minutes to hours).
"""

from __future__ import annotations

import json
import os
import time
import warnings
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: Full-scale switch shared by all benches.
FULL = os.environ.get("REPRO_FULL", "") not in ("", "0")

_reports: list[tuple[str, str]] = []


class BackendUnavailable(RuntimeError):
    """A requested kernel backend resolved to a fallback, not itself.

    Benches must never time a fallback under the requested backend's
    name: the recorded numbers would silently describe the numpy
    reference while claiming to describe the accelerated kernels.
    """


def resolve_backend_strict(name: str):
    """Resolve ``name`` and *fail hard* if it degraded to a fallback.

    The graceful degradation of ``bitplane`` (``fallback_from``) is the
    right behaviour for solves; for benches it is a lie waiting to be
    published.  Raises :class:`BackendUnavailable` instead of recording
    fallback measurement points.
    """
    from repro.backends import resolve_backend

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        backend = resolve_backend(name)
    if backend.fallback_from:
        raise BackendUnavailable(
            f"backend {name!r} is unavailable on this machine "
            f"({backend.fallback_reason}; resolved to {backend.name!r} via "
            "fallback) — refusing to bench the fallback under the requested "
            "backend's name"
        )
    return backend


@pytest.fixture
def strict_backend():
    """Fixture form of :func:`resolve_backend_strict` for benches."""
    return resolve_backend_strict


@pytest.fixture
def report():
    """Register a rendered results table for the terminal summary."""

    def _register(title: str, text: str) -> None:
        _reports.append((title, text))
        RESULTS_DIR.mkdir(exist_ok=True)
        slug = title.lower().replace(" ", "_").replace("(", "").replace(")", "")
        (RESULTS_DIR / f"{slug}.txt").write_text(text + "\n")

    return _register


@pytest.fixture
def bench_record(request):
    """Record wall-clock + telemetry counter snapshots to a JSON file.

    Usage inside a bench::

        def test_table1c(..., bench_record):
            result = AdaptiveBulkSearch(qubo, cfg).solve("sync")
            bench_record("n=1024", result, target=-12345)

    Each registered run captures the solve's ``best_energy`` /
    ``elapsed`` / ``evaluated`` / ``flips`` and the full
    ``SolveResult.counters`` snapshot; extra keyword pairs are stored
    verbatim.  On teardown the runs land in
    ``benchmarks/results/BENCH_<test name>.json`` together with the
    bench's total wall-clock, so successive ``make bench`` outputs can
    be diffed counter-by-counter.
    """
    runs: list[dict] = []
    started = time.perf_counter()

    def _record(label: str, result=None, **extra) -> None:
        entry: dict = {"label": label, **extra}
        if result is not None:
            entry["best_energy"] = int(result.best_energy)
            entry["elapsed_s"] = float(result.elapsed)
            entry["evaluated"] = int(result.evaluated)
            entry["flips"] = int(result.flips)
            entry["counters"] = dict(result.counters)
        runs.append(entry)

    yield _record

    if not runs:
        return
    name = request.node.name.replace("[", "_").replace("]", "")
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "bench": name,
        "full_scale": FULL,
        "wall_clock_s": round(time.perf_counter() - started, 6),
        "runs": runs,
    }
    (RESULTS_DIR / f"BENCH_{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _reports:
        return
    terminalreporter.section("paper reproduction results")
    for title, text in _reports:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"=== {title} ===")
        for line in text.splitlines():
            terminalreporter.write_line(line)
