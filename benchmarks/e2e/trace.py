"""Outside-in layer tracing for the ``--trace`` run.

The program is not modified: :class:`Tracer` replaces a handful of public
methods with wrappers that record a span (name, start, end, self time,
parent, pid, thread) around each call, plus the work the call did (flips,
targets, solutions ...).  Spans stay in memory and are written as JSONL
when the run ends.

Worker processes started with ``fork`` inherit the wrappers but never
return to the parent (they leave through ``os._exit``), so a span closed
in another process adds its count, self time and work into a shared
array allocated before the first fork.  That is where the device-side
totals of ``process-oneshot`` come from.  ``spawn``-started workers (the
service) import the program afresh and stay unwrapped, so that workload
reports host-side layers only.

A layer's self time is its span minus the time its child spans cover, so
nested layers (the re-arm and the polls inside a service job) are never
counted twice.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import statistics
import threading
import time
from typing import Any, Callable

#: Every layer a span can be recorded for; the shared array has one row each.
LAYERS = (
    "engine.straight",
    "engine.local",
    "backend.prepare",
    "backend.compile",
    "host.ga",
    "host.absorb",
    "exchange.publish",
    "exchange.poll",
    "fleet.start",
    "fleet.arm",
    "fleet.shutdown",
    "fleet.weights",
    "service.run",
)
_FIELDS = 4  # calls, self seconds, work, work2

#: Per-layer metrics with their units, in report order.
LAYER_UNITS = {
    "engine.straight.calls": "count",
    "engine.straight.busy_s": "s",
    "engine.straight.flips": "count",
    "engine.straight.flips_per_s": "1/s",
    "engine.straight.share": "ratio",
    "engine.local.calls": "count",
    "engine.local.busy_s": "s",
    "engine.local.flips": "count",
    "engine.local.flips_per_s": "1/s",
    "engine.local.share": "ratio",
    "engine.delta_updates": "count",
    "backend.prepare.busy_s": "s",
    "backend.compile.calls": "count",
    "backend.compile.busy_s": "s",
    "host.ga.calls": "count",
    "host.ga.busy_s": "s",
    "host.ga.targets": "count",
    "host.absorb.calls": "count",
    "host.absorb.busy_s": "s",
    "host.absorb.solutions": "count",
    "pool.insert_ratio": "ratio",
    "exchange.publish.calls": "count",
    "exchange.publish.busy_s": "s",
    "exchange.poll.calls": "count",
    "exchange.poll.wait_s": "s",
    "exchange.poll.empty_ratio": "ratio",
    "exchange.first_result_s": "s",
    "fleet.start.busy_s": "s",
    "fleet.arm.busy_s": "s",
    "fleet.arm.calls": "count",
    "fleet.shutdown.busy_s": "s",
    "fleet.weights.hit_ratio": "ratio",
    "fleet.builds": "count",
    "service.run_s": "s",
    "service.overhead_s": "s",
    "service.cache_hit_s": "s",
    "layers.coverage": "ratio",
    "trace.overhead": "ratio",
}


def _no_work(args: tuple, out: Any) -> tuple[float, float]:
    return 0.0, 0.0


class Tracer:
    """Span recorder plus the method wrappers that feed it."""

    def __init__(self) -> None:
        #: Only calls made while this is true are recorded; forked workers
        #: inherit the value current at fork time.
        self.enabled = False
        self.records: list[dict[str, Any]] = []
        self._pid = os.getpid()
        self._local = threading.local()
        self._shared = multiprocessing.get_context("fork").Array(
            "d", len(LAYERS) * _FIELDS
        )

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list[list[Any]]:
        # A forked child inherits the forking thread's locals, open spans
        # included; it starts a stack of its own.
        local = self._local
        if getattr(local, "pid", None) != os.getpid():
            local.pid = os.getpid()
            local.stack = []
        return local.stack

    def _close(
        self, name: str, t0: float, t1: float, child_s: float,
        parent: str | None, work: float, work2: float,
    ) -> None:
        self_s = (t1 - t0) - child_s
        if os.getpid() == self._pid:
            self.records.append({
                "name": name, "start": t0, "end": t1, "self": self_s,
                "parent": parent, "pid": self._pid,
                "tid": threading.get_ident(), "work": work, "work2": work2,
            })
            return
        row = LAYERS.index(name) * _FIELDS
        arr = self._shared
        with arr.get_lock():
            arr[row] += 1
            arr[row + 1] += self_s
            arr[row + 2] += work
            arr[row + 3] += work2

    def wrap(
        self,
        owner: type,
        attr: str,
        name: str,
        work: Callable[[tuple, Any], tuple[float, float]] = _no_work,
        *,
        counter: Callable[[tuple], float] | None = None,
        when: Callable[[tuple], bool] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``work(args, result)`` gives the span's two work numbers;
        ``counter(args)``, read before and after the call, replaces the
        second with its increase.  ``when(args)`` false skips the span.
        A call nested directly in a span of the same name is not
        recorded again.
        """
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled or (when is not None and not when(args)):
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            before = counter(args) if counter is not None else 0.0
            out = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                w1, w2 = work(args, out)
                if counter is not None:
                    w2 = counter(args) - before
                tracer._close(name, t0, t1, frame[1], parent, w1, w2)

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)

    def install(self) -> None:
        """Wrap the public calls into each layer (see README, layer table)."""
        from repro.abs.exchange import ShmHostTransport, _MailboxTargetChannel
        from repro.abs.fleet import WorkerFleet
        from repro.abs.host import Host
        from repro.abs.solver import AdaptiveBulkSearch
        from repro.backends.base import KernelBackend
        from repro.backends.bitplane import BitplaneBackend
        from repro.gpusim.engine import BulkSearchEngine

        def updates(args: tuple) -> float:
            return float(args[0].counters.delta_updates)

        self.wrap(BulkSearchEngine, "straight_to", "engine.straight",
                  lambda a, out: (out or 0, 0), counter=updates)
        self.wrap(BulkSearchEngine, "local_steps", "engine.local",
                  lambda a, out: (a[1] * a[0].B, 0), counter=updates)
        for backend in (KernelBackend, BitplaneBackend):
            for attr in ("prepare_dense", "prepare_sparse"):
                self.wrap(backend, attr, "backend.prepare")
        self.wrap(BitplaneBackend, "ensure_compiled", "backend.compile",
                  when=lambda a: a[0]._lib is None)
        self.wrap(Host, "make_targets", "host.ga", lambda a, out: (a[1], 0))
        self.wrap(Host, "absorb_batch", "host.absorb",
                  lambda a, out: (len(a[1]), out or 0))
        self.wrap(_MailboxTargetChannel, "put", "exchange.publish")
        self.wrap(ShmHostTransport, "poll", "exchange.poll",
                  lambda a, out: (int(out is not None), 0))
        self.wrap(WorkerFleet, "start", "fleet.start")
        self.wrap(WorkerFleet, "arm_job", "fleet.arm")
        self.wrap(WorkerFleet, "shutdown", "fleet.shutdown")
        self.wrap(WorkerFleet, "weights_ref_for", "fleet.weights",
                  lambda a, out: (int(bool(out and out[1])), 0))
        self.wrap(AdaptiveBulkSearch, "solve_on_fleet", "service.run")

    # -- reporting ---------------------------------------------------------
    def totals(self) -> dict[str, list[float]]:
        """``layer -> [calls, self_s, work, work2]`` over every process."""
        out = {name: [0.0] * _FIELDS for name in LAYERS}
        for rec in self.records:
            row = out[rec["name"]]
            row[0] += 1
            row[1] += rec["self"]
            row[2] += rec["work"]
            row[3] += rec["work2"]
        shared = list(self._shared)
        for i, name in enumerate(LAYERS):
            for f in range(_FIELDS):
                out[name][f] += shared[i * _FIELDS + f]
        return out

    def write_jsonl(self, path: str, ops: list[dict[str, Any]]) -> None:
        """Write every in-process span, then one ``op`` span per request."""
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")
            for op in ops:
                if op["traced"]:
                    fh.write(json.dumps({
                        "name": "op", "start": op["t0"], "end": op["t1"],
                        "kind": op["kind"], "pid": self._pid,
                    }) + "\n")


#: Per-request metrics read straight off the totals: ``(layer, field)``.
_PER_REQUEST = {
    "engine.straight.calls": ("engine.straight", 0),
    "engine.straight.busy_s": ("engine.straight", 1),
    "engine.straight.flips": ("engine.straight", 2),
    "engine.local.calls": ("engine.local", 0),
    "engine.local.busy_s": ("engine.local", 1),
    "engine.local.flips": ("engine.local", 2),
    "backend.prepare.busy_s": ("backend.prepare", 1),
    "backend.compile.calls": ("backend.compile", 0),
    "backend.compile.busy_s": ("backend.compile", 1),
    "host.ga.calls": ("host.ga", 0),
    "host.ga.busy_s": ("host.ga", 1),
    "host.ga.targets": ("host.ga", 2),
    "host.absorb.calls": ("host.absorb", 0),
    "host.absorb.busy_s": ("host.absorb", 1),
    "host.absorb.solutions": ("host.absorb", 2),
    "exchange.publish.calls": ("exchange.publish", 0),
    "exchange.publish.busy_s": ("exchange.publish", 1),
    "exchange.poll.calls": ("exchange.poll", 0),
    "exchange.poll.wait_s": ("exchange.poll", 1),
    "fleet.start.busy_s": ("fleet.start", 1),
    "fleet.arm.busy_s": ("fleet.arm", 1),
    "fleet.arm.calls": ("fleet.arm", 0),
    "fleet.shutdown.busy_s": ("fleet.shutdown", 1),
    "fleet.builds": ("fleet.start", 0),
}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(
    tracer: Tracer, ops: list[dict[str, Any]], devices: int
) -> dict[str, float]:
    """Per-layer metrics from the traced requests (see README).

    Counts and busy times are per client request; a ``share`` is busy
    time over request wall time times the number of devices.
    """
    traced = [op for op in ops if op["traced"]]
    solves = [op for op in traced if op["kind"] == "measure"]
    plain = [op for op in ops if not op["traced"] and op["kind"] == "measure"]
    n_ops = max(1, len(traced))
    device_s = (sum(op["latency_s"] for op in traced) or 1.0) * devices
    tot = tracer.totals()

    m = {name: tot[layer][f] / n_ops for name, (layer, f) in _PER_REQUEST.items()}
    for short in ("straight", "local"):
        _, busy, flips, _ = tot[f"engine.{short}"]
        m[f"engine.{short}.flips_per_s"] = _ratio(flips, busy)
        m[f"engine.{short}.share"] = busy / device_s
    m["engine.delta_updates"] = (tot["engine.straight"][3] + tot["engine.local"][3]) / n_ops
    m["pool.insert_ratio"] = _ratio(tot["host.absorb"][3], tot["host.absorb"][2])
    polls = tot["exchange.poll"]
    m["exchange.poll.empty_ratio"] = _ratio(polls[0] - polls[2], polls[0])
    m["fleet.weights.hit_ratio"] = _ratio(tot["fleet.weights"][2], tot["fleet.weights"][0])

    # Span-to-request matching: the client keeps one request in flight,
    # so a span belongs to the request whose wall interval holds its start.
    first_result, run_s, overhead_s = [], [], []
    polls_hit = [r for r in tracer.records if r["name"] == "exchange.poll" and r["work"]]
    runs = [r for r in tracer.records if r["name"] == "service.run"]
    for op in solves:
        hits = [r["end"] for r in polls_hit if op["t0"] <= r["start"] <= op["t1"]]
        if hits:
            first_result.append(min(hits) - op["t0"])
        mine = sum(r["end"] - r["start"] for r in runs if op["t0"] <= r["start"] <= op["t1"])
        if mine:
            run_s.append(mine)
            overhead_s.append(op["latency_s"] - mine)
    m["exchange.first_result_s"] = _median(first_result)
    m["service.run_s"] = _median(run_s)
    m["service.overhead_s"] = _median(overhead_s)
    m["service.cache_hit_s"] = _median(
        [op["latency_s"] for op in traced if op["kind"] == "cache" and op["cache_hit"]]
    )
    covered = sum(
        tot[layer][1] for layer in ("engine.straight", "engine.local", "host.ga", "host.absorb")
    )
    m["layers.coverage"] = covered / device_s
    untraced_p50 = _median([op["latency_s"] for op in plain])
    traced_p50 = _median([op["latency_s"] for op in solves])
    m["trace.overhead"] = traced_p50 / untraced_p50 - 1.0 if untraced_p50 else 0.0
    return {name: m[name] for name in LAYER_UNITS}
