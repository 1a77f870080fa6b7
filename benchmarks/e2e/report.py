"""Turning raw samples into metrics, the ledger check, tables and ``compare``."""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

#: End-to-end metrics and their units (BENCHMARK.json holds their bounds).
E2E_UNITS = {
    "solve_p50_s": "s",
    "evals_per_s": "1/s",
    "jobs_per_s": "1/s",
    "setup_s": "s",
}


def spread(values: list[float]) -> dict[str, Any]:
    """Median, quartiles (``statistics.quantiles``, n=4) and sample count."""
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _samples(setup: list[list[float]], ops: list[dict], windows: list[list],
             scaled: bool) -> dict[str, list[float]]:
    def k(scale: float) -> float:
        return scale if scaled else 1.0

    solves = [op for op in ops if op["kind"] == "measure" and not op["traced"]]
    return {
        "solve_p50_s": [op["latency_s"] * k(op["scale"]) for op in solves],
        "evals_per_s": [op["evaluated"] / (op["latency_s"] * k(op["scale"])) for op in solves],
        "jobs_per_s": [n / (wall * k(scale)) for n, wall, scale, traced in windows if not traced],
        "setup_s": [seconds * k(scale) for seconds, scale in setup],
    }


def e2e_metrics(setup: list[list[float]], ops: list[dict], windows: list[list]) -> dict:
    """The end-to-end metrics of one run, from untraced requests only.

    Each time is scaled to the host's nominal speed (``speed.py``), and
    each ``value`` is the median of its samples (README, End-to-end
    metrics); ``q1``, ``q3`` and ``n`` describe them, and ``wall`` is the
    median of the unscaled samples.
    """
    scaled = _samples(setup, ops, windows, scaled=True)
    wall = _samples(setup, ops, windows, scaled=False)
    out = {}
    for name, values in scaled.items():
        s = spread(values)
        out[name] = {"unit": E2E_UNITS[name], "value": s["median"], **s,
                     "wall": spread(wall[name])["median"]}
    return out


def ledger_errors(workload: str, seed: int, ops: list[dict]) -> list[str]:
    """Mismatches against ``expected.json`` (default seed, full size only)."""
    ledger = json.loads((HERE / "expected.json").read_text())
    entry = ledger["workloads"].get(workload)
    if seed != ledger["seed"] or entry is None:
        return []
    got = [op["energy"] for op in ops if op["kind"] == "measure"]
    errors = []
    if "energies" in entry:
        want = entry["energies"]
        if got[: len(want)] != want:
            errors.append(f"{workload}: energies {got[:len(want)]} != ledger {want}")
    if "floor" in entry:
        above = [e for e in got if e is None or e > entry["floor"]]
        if above:
            errors.append(f"{workload}: energies {above} above the ledger floor {entry['floor']}")
    return errors


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def render_run(run: dict) -> str:
    """Human-readable table of one workload run."""
    lines = [f"== {run['workload']} (seed {run['seed']}, {run['seconds']} s"
             f"{', traced' if run['trace'] else ''}) "
             f"attempted={run['attempted']} failed={run['failed']}"]
    lines.append(f"  {'metric':<16}{'unit':<6}{'median':>11}{'q1':>11}{'q3':>11}{'n':>5}"
                 f"{'unscaled':>11}")
    for name, m in run["metrics"].items():
        lines.append(f"  {name:<16}{m['unit']:<6}{_fmt(m['median']):>11}{_fmt(m['q1']):>11}"
                     f"{_fmt(m['q3']):>11}{m['n']:>5}{_fmt(m['wall']):>11}")
    kernel = run.get("kernel_s")
    if kernel and kernel["n"]:
        lines.append(f"  reference kernel {_fmt(kernel['median'])} s "
                     f"[{_fmt(kernel['q1'])}, {_fmt(kernel['q3'])}] over {kernel['n']} ticks")
    if run.get("layers"):
        lines.append(f"  {'layer metric':<28}{'unit':<7}{'per request':>12}")
        for name, m in run["layers"].items():
            lines.append(f"  {name:<28}{m['unit']:<7}{_fmt(m['value']):>12}")
    for err in run["errors"]:
        lines.append(f"  ERROR {err}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------
def _load_runs(source: str) -> dict[str, list[dict]]:
    """Untraced runs of ``FILE`` or ``FILE#SET``, grouped by workload."""
    path, _, label = source.partition("#")
    runs: dict[str, list[dict]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if not run["trace"] and (not label or run.get("set") == label):
            runs.setdefault(run["workload"], []).append(run)
    return runs


def _side(runs: list[dict], metric: str) -> dict[str, Any]:
    """Median and quartiles across runs, or within the only run."""
    if len(runs) == 1:
        m = runs[0]["metrics"][metric]
        return {"median": m["value"], "q1": m["q1"], "q3": m["q3"], "values": [m["value"]]}
    values = [r["metrics"][metric]["value"] for r in runs]
    return {**spread(values), "values": values}


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    """``(relative change, better|worse|unresolved)`` of B against A.

    A median worse by more than ``bound`` is a regression.  A median
    better by more than ``bound`` is an improvement only with several
    runs on each side (one run says nothing about run-to-run drift), and
    when A's spread across runs (q3 - q1 over the median) is inside the
    bound or every run of B reads better than every run of A.  Anything
    else is unresolved.
    """
    if a["median"] == 0:
        return 0.0, "unresolved"
    change = (b["median"] - a["median"]) / a["median"]
    gain = -change if better == "lower" else change
    if gain < -bound:
        return change, "worse"
    if gain <= bound or len(a["values"]) < 2 or len(b["values"]) < 2:
        return change, "unresolved"
    a_spread = (a["q3"] - a["q1"]) / abs(a["median"])
    b_wins = (max(b["values"]) < min(a["values"]) if better == "lower"
              else min(b["values"]) > max(a["values"]))
    return change, "better" if a_spread <= bound or b_wins else "unresolved"


def compare(path_a: str, path_b: str) -> int:
    """Print A vs B for every workload and end-to-end metric; 1 on a regression."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_runs, b_runs = _load_runs(path_a), _load_runs(path_b)
    print(f"{'workload':<20}{'metric':<13}{'A median [q1, q3]':>35}"
          f"{'B median [q1, q3]':>35}{'change':>9}{'bound':>7}  verdict")
    regressions = 0
    for workload in sorted(set(a_runs) & set(b_runs)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = _side(a_runs[workload], name)
            b = _side(b_runs[workload], name)
            change, word = verdict(a, b, metric["better"], metric["bound"])
            regressions += word == "worse"
            cells = [f"{_fmt(s['median'])} [{_fmt(s['q1'])}, {_fmt(s['q3'])}]" for s in (a, b)]
            print(f"{workload:<20}{name:<13}{cells[0]:>35}{cells[1]:>35}"
                  f"{change:>+9.1%}{metric['bound']:>7.0%}  {word}")
    missing = sorted(set(a_runs) ^ set(b_runs))
    if missing:
        print(f"workloads in only one file: {', '.join(missing)}")
    return 1 if regressions else 0
