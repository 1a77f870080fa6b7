"""Command line of the repository benchmark.

Run from the repository root::

    python -m benchmarks.e2e run [--workload NAME] [--seed S] [--seconds T]
                                 [--trace [0|1]] [--out FILE]
    python -m benchmarks.e2e compare A.json B.json

``run`` measures each workload in fresh child interpreters: a few set-up
children that each time one cold start, then one child that times a cold
start and runs the closed loop for ``--seconds``.  It prints a table on
stderr and, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or with
``--trace`` the per-layer ones).  It exits 0 only when every request
succeeded and every answer passed the oracle and the ledger.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from benchmarks.e2e.report import (
    HERE, ROOT, compare, e2e_metrics, ledger_errors, render_run, spread,
)
from benchmarks.e2e.trace import LAYER_UNITS
from benchmarks.e2e.workloads import DEFAULT_SEED, WORKLOADS

#: Work space inside the checkout: compiler temp files and span dumps.
WORK = HERE / ".work"
#: Variables that would change what a workload runs; children never see them.
SCRUBBED_ENV = ("REPRO_BACKEND", "REPRO_EXCHANGE", "REPRO_NO_CC", "REPRO_NO_NUMBA", "REPRO_FULL")
#: Default measuring time; BENCHMARK.json's ``run_seconds``.
RUN_SECONDS = 20
#: Cold starts timed per run (set-up children plus the measuring child).
SETUP_SAMPLES = 9
#: Wall budget of one workload beyond ``--seconds``: the set-up children,
#: the measuring child's cold start and its last request.
SETUP_BUDGET_S = 150.0
_PR_SET_CHILD_SUBREAPER = 36


class ChildFailed(RuntimeError):
    """A child interpreter crashed, timed out or printed no result."""


def _become_subreaper() -> None:
    # Orphaned descendants (a worker or resource tracker outliving its
    # child interpreter) are re-parented here, so _reap can wait for them.
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _reap(pgid: int, grace: float = 10.0) -> None:
    """Wait until every process the child left behind has ended."""
    end = time.monotonic() + grace
    killed = False
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > end:
            if killed:
                return
            _kill_group(pgid)
            killed, end = True, time.monotonic() + 5.0
        time.sleep(0.02)


def _child(argv: list[str], deadline: float) -> dict[str, Any]:
    """Run one child interpreter; its last stdout line is the result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("out of time before starting " + " ".join(argv))
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e.workloads", *argv],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException as exc:
        _kill_group(proc.pid)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise ChildFailed(f"timed out after {timeout:.0f} s: {' '.join(argv)}") from None
        raise
    finally:
        _reap(proc.pid)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"exit code {proc.returncode}: {' '.join(argv)}")
    return json.loads(lines[-1])


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workloads: list[Any]) -> dict[str, Any]:
    """What the numbers depend on, and what each workload resolved to.

    Raises ``BackendUnavailable`` when a workload's backend would run as
    a fallback.
    """
    import multiprocessing

    import numpy

    from benchmarks.conftest import resolve_backend_strict
    from repro.abs.exchange import resolve_exchange
    from repro.backends import resolve_backend

    sha = _git("rev-parse", "HEAD")
    default_start = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                     else multiprocessing.get_start_method())
    stamp: dict[str, Any] = {
        "git_sha": sha,
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")) if sha else None,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc": shutil.which("cc"),
        "workloads": {},
    }
    for w in workloads:
        backend = resolve_backend_strict(w.backend or resolve_backend(None).name)
        stamp["workloads"][w.name] = {
            "backend": backend.name,
            "exchange": None if w.kind == "sync" else resolve_exchange(w.exchange),
            "start_method": None if w.kind == "sync" else (w.start_method or default_start),
        }
    return stamp


def run_workload(w: Any, args: argparse.Namespace, stamp: dict[str, Any]) -> dict[str, Any]:
    """Set-up children, then the measuring child; one run record."""
    deadline = time.monotonic() + args.seconds + SETUP_BUDGET_S
    base = ["--workload", w.name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.tiny:
        base.append("--tiny")
    measure = [*base, "--phase", "measure"]
    if args.trace:
        WORK.mkdir(parents=True, exist_ok=True)
        measure += ["--trace", "--spans", str(WORK / f"spans-{w.name}-seed{args.seed}.jsonl")]
    setup, ops, windows, kernel_s, errors, layers = [], [], [], [], [], None
    try:
        for _ in range(1 if args.tiny else SETUP_SAMPLES - 1):
            out = _child([*base, "--phase", "setup"], deadline)
            setup.append([out["setup_s"], out["setup_scale"]])
            ops += out["ops"]
        out = _child(measure, deadline)
        setup.append([out["setup_s"], out["setup_scale"]])
        ops += out["ops"]
        windows, layers, kernel_s = out["windows"], out["layers"], out["kernel_s"]
    except ChildFailed as exc:
        errors.append(str(exc))
    errors += [op["error"] for op in ops if op["error"]]
    if not args.tiny:
        errors += ledger_errors(w.name, args.seed, ops)
    p = w.tiny if args.tiny else w.full
    return {
        "workload": w.name,
        "set": args.set,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "tiny": args.tiny,
        "config": {**p, "devices": w.devices},
        "env": {**{k: v for k, v in stamp.items() if k != "workloads"},
                **stamp["workloads"][w.name]},
        "attempted": max(1, len(ops), len(errors)),
        "failed": len(errors),
        "errors": errors,
        "metrics": e2e_metrics(setup, ops, windows) if setup else {},
        "kernel_s": spread(kernel_s),
        "layers": ({k: {"unit": LAYER_UNITS[k], "value": v} for k, v in layers.items()}
                   if layers else None),
        "energies": [op["energy"] for op in ops if op["kind"] == "measure"],
    }


def cmd_run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    _become_subreaper()
    for var in SCRUBBED_ENV:
        os.environ.pop(var, None)
    tmp = WORK / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)  # the bit-plane compiler writes here
    os.environ["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.conftest import BackendUnavailable

    workloads = [WORKLOADS[args.workload]] if args.workload else list(WORKLOADS.values())
    try:
        stamp = environment(workloads)
        runs = [run_workload(w, args, stamp) for w in workloads]
    except BackendUnavailable as exc:  # never time a fallback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for run in runs:
        print(render_run(run), file=sys.stderr)
    if args.out:
        path = Path(args.out)
        saved = json.loads(path.read_text()) if path.exists() else {"runs": []}
        saved["runs"] += runs
        path.write_text(json.dumps(saved, indent=1) + "\n")
    key = "layers" if args.trace else "metrics"
    metrics = {}
    for run in runs:
        prefix = "" if len(runs) == 1 else run["workload"] + "/"
        for name, m in (run[key] or {}).items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    failed = sum(run["failed"] for run in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure one workload, or all four")
    run.add_argument("--workload", choices=list(WORKLOADS), help="one workload (default: all)")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help=f"input seed (default {DEFAULT_SEED}, the ledger's)")
    run.add_argument("--seconds", type=float, default=RUN_SECONDS,
                     help=f"closed-loop measuring time (default {RUN_SECONDS})")
    run.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                     help="traced run: report the per-layer metrics")
    run.add_argument("--out", help="append the run records to this JSON file")
    run.add_argument("--set", help="label stored in each run record, for compare FILE#SET")
    run.add_argument("--tiny", action="store_true", help="tiny inputs (smoke test)")
    cmp = sub.add_parser("compare", help="A vs B medians against BENCHMARK.json bounds")
    cmp.add_argument("a", help="results file, or FILE#SET for the runs of one set")
    cmp.add_argument("b", help="results file, or FILE#SET for the runs of one set")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args.a, args.b)
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
