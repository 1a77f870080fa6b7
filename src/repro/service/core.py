"""The warm-fleet solver service: many jobs, one set of processes.

:class:`SolverService` owns a persistent :class:`~repro.abs.fleet.
WorkerFleet` and a background dispatcher thread.  Callers ``submit``
QUBO jobs and collect results asynchronously; the service amortizes
everything a one-shot ``solve("process")`` pays per call — process
spawn, shared-memory weight copies, and backend weight preparation —
across the whole job stream, whatever the problem sizes.  Each job
still gets its own small exchange segments, sized for its ``n``.

Semantics that matter:

- **Determinism**: a job run through the service produces the same
  result, bit for bit, as a one-shot ``AdaptiveBulkSearch.solve()``
  with the same problem, config, and seed (pinned by
  ``tests/service/test_service_determinism.py``).  The warm path reuses *state-free* plumbing only.
- **Scheduling**: highest priority first, FIFO within a priority
  (``(-priority, submit_seq)`` heap).  One job runs at a time — the
  fleet is a shared search engine, not a thread pool.
- **Result cache**: jobs whose outcome is a pure function of the run
  digest — seeded, no wall-clock ``time_limit``, and deterministic
  execution (``sync`` mode, or ``lockstep=True`` on one worker) — are
  cached under the canonical :func:`repro.qubo.io.run_digest` key; a
  repeat submission returns a deep copy of the cached
  :class:`~repro.abs.result.SolveResult` without touching the fleet.
  Anything else (unseeded, time-limited, free-running process mode,
  multi-worker lockstep) recomputes every time, and a cancelled job's
  partial result is never cached.
- **Cancellation**: round granularity for running process-mode jobs
  (the host loop polls between rounds); queued jobs cancel
  immediately; sync-mode jobs are only cancellable while queued.
- **Failure**: a job that breaks the fleet (all workers dead, re-arm
  timeout) is marked failed and the fleet is torn down — the next
  process-mode job builds a fresh one.  The supervisor's restart
  budget spans the fleet's lifetime, not one job.
"""

from __future__ import annotations

import copy
import heapq
import threading
import time
from typing import Any

from repro.abs.config import AbsConfig
from repro.abs.fleet import WorkerFleet, fleet_params
from repro.abs.result import SolveResult
from repro.abs.solver import AdaptiveBulkSearch
from repro.qubo.io import problem_digest, run_digest
from repro.service.config import ServiceConfig
from repro.telemetry.bus import NULL_BUS, NullBus, StampedBus, TelemetryBus

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
CANCELLED = "cancelled"
FAILED = "failed"


class _Job:
    """Book-keeping for one submitted job."""

    __slots__ = (
        "job_id", "solver", "mode", "priority", "digest", "run_key",
        "status", "result", "error", "cache_hit", "cancel_evt",
        "done_evt", "started", "finished",
    )

    def __init__(
        self,
        job_id: int,
        solver: AdaptiveBulkSearch,
        mode: str,
        priority: int,
        digest: str,
        run_key: str | None,
    ) -> None:
        self.job_id = job_id
        self.solver = solver
        self.mode = mode
        self.priority = priority
        self.digest = digest
        self.run_key = run_key
        self.status = QUEUED
        self.result: SolveResult | None = None
        self.error: str | None = None
        self.cache_hit = False
        self.cancel_evt = threading.Event()
        self.done_evt = threading.Event()
        self.started: float | None = None
        self.finished: float | None = None


class SolverService:
    """A persistent warm fleet serving a queue of QUBO jobs.

    Example
    -------
    >>> from repro.qubo import QuboMatrix
    >>> from repro.abs import AbsConfig
    >>> from repro.service import SolverService
    >>> with SolverService() as svc:
    ...     jid = svc.submit(QuboMatrix.random(32, seed=0),
    ...                      AbsConfig(max_rounds=5, seed=1))
    ...     res = svc.result(jid)
    >>> res.rounds
    5
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        telemetry: TelemetryBus | NullBus | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.bus = telemetry if telemetry is not None else NULL_BUS
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._jobs: dict[int, _Job] = {}  # guarded-by: _lock
        # _heap holds (-priority, job_id); cancelled entries go stale in
        # place, so _queued tracks the live QUEUED count separately.
        self._heap: list[tuple[int, int]] = []  # guarded-by: _lock
        self._queued = 0  # guarded-by: _lock
        self._next_id = 1  # guarded-by: _lock
        self._running: _Job | None = None  # guarded-by: _lock
        self._fleet: WorkerFleet | None = None  # guarded-by: _lock
        # Insertion-ordered, so the first key is the oldest (FIFO).
        self._result_cache: dict[str, SolveResult] = {}  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="solver-service", daemon=True
        )
        self._dispatcher.start()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(
        self,
        weights: Any,
        config: AbsConfig | None = None,
        *,
        mode: str = "process",
        priority: int | None = None,
        telemetry_stamp: bool = True,
    ) -> int:
        """Queue a job; returns its id (monotonic, 1-based).

        ``mode`` is ``"process"`` (runs on the warm fleet) or
        ``"sync"`` (runs inline on the dispatcher thread — no fleet,
        useful for small jobs and cross-checks).  ``priority``: higher
        runs earlier; ``None`` takes the config default.  With
        ``telemetry_stamp`` (default), every event the job emits is
        stamped ``job=<id>`` via :class:`~repro.telemetry.StampedBus`.
        """
        if mode not in ("sync", "process"):
            raise ValueError(f"unknown mode {mode!r} (use 'sync' or 'process')")
        prio = self.config.default_priority if priority is None else int(priority)
        bus = self.bus
        with self._cond:
            if self._closed:
                raise RuntimeError("service is closed")
            if self.config.max_queue and self._queued >= self.config.max_queue:
                raise RuntimeError(
                    f"job queue is full ({self.config.max_queue} queued)"
                )
            job_id = self._next_id
            self._next_id += 1
            job_bus = (
                StampedBus(bus, job=job_id)
                if bus.enabled and telemetry_stamp
                else bus
            )
            solver = AdaptiveBulkSearch(weights, config, telemetry=job_bus)
            digest = problem_digest(solver.W)
            cfg = solver.config
            # Cache only runs that are a pure function of the digest:
            # seeded, no wall-clock stop, and deterministic execution
            # (sync, whose walks may split their independent blocks
            # across threads without changing them, or one process-mode
            # worker in lockstep — with several, result arrival order
            # varies).  A free-running, multi-worker or time-limited job
            # is a sample, and a cache hit would silently substitute it
            # for a fresh solve.
            cacheable = (
                cfg.seed is not None
                and cfg.time_limit is None
                and (mode == "sync" or (cfg.lockstep and cfg.n_gpus == 1))
            )
            run_key = (
                run_digest(solver.W, cfg, extra={"mode": mode}, digest=digest)
                if cacheable
                else None
            )
            job = _Job(job_id, solver, mode, prio, digest, run_key)
            self._jobs[job_id] = job
            heapq.heappush(self._heap, (-prio, job_id))
            self._queued += 1
            queued = self._queued
            self._cond.notify_all()
        if bus.enabled:
            bus.counters.inc("service.jobs_submitted")
            bus.emit(
                "service.job_submitted",
                job=job_id,
                n=solver.n,
                priority=prio,
                queued=queued,
            )
        return job_id

    def status(self, job_id: int) -> dict[str, Any]:
        """Snapshot of one job's state (cheap, never blocks)."""
        job = self._get(job_id)
        with self._lock:
            snap = {
                "id": job.job_id,
                "status": job.status,
                "mode": job.mode,
                "priority": job.priority,
                "cache_hit": job.cache_hit,
                "error": job.error,
            }
            if job.result is not None:
                snap["best_energy"] = job.result.best_energy
                snap["rounds"] = job.result.rounds
            if job.started is not None and job.finished is not None:
                snap["elapsed"] = job.finished - job.started
            return snap

    def cancel(self, job_id: int) -> bool:
        """Cancel a job; returns whether the request took effect.

        Queued jobs leave the queue immediately.  A running
        process-mode job stops at the next round boundary (its partial
        result is kept on the record).  Finished jobs return False.
        """
        job = self._get(job_id)
        with self._cond:
            if job.status == QUEUED:
                job.cancel_evt.set()
                self._queued -= 1
                self._finish(job, CANCELLED, started=False)
                return True
            if job.status == RUNNING:
                job.cancel_evt.set()
                return True
            return False

    def result(self, job_id: int, timeout: float | None = None) -> SolveResult:
        """Block until a job finishes; return its :class:`SolveResult`.

        Raises ``TimeoutError`` if the deadline passes, and
        ``RuntimeError`` for failed jobs or jobs cancelled before any
        result existed.  A job cancelled mid-run returns the partial
        result accumulated up to the cancellation round.
        """
        job = self._get(job_id)
        if not job.done_evt.wait(timeout):
            raise TimeoutError(f"job {job_id} still {job.status}")
        if job.result is not None:
            return job.result
        if job.status == CANCELLED:
            raise RuntimeError(f"job {job_id} was cancelled before it ran")
        raise RuntimeError(f"job {job_id} failed: {job.error}")

    def close(self) -> None:
        """Cancel pending work, stop the dispatcher, drop the fleet."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            while self._heap:
                _, job_id = heapq.heappop(self._heap)
                job = self._jobs[job_id]
                if job.status == QUEUED:
                    job.cancel_evt.set()
                    self._queued -= 1
                    self._finish(job, CANCELLED, started=False)
            if self._running is not None:
                self._running.cancel_evt.set()
            self._cond.notify_all()
        self._dispatcher.join(timeout=60.0)
        self._teardown_fleet()

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _get(self, job_id: int) -> _Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job id {job_id}")
        return job

    def _finish(self, job: _Job, status: str, *, started: bool = True) -> None:
        # Caller holds the lock.  Counter/event emission is deferred to
        # _announce (outside the lock) via the returned record state.
        job.status = status
        job.finished = time.monotonic()
        if not started:
            job.started = job.finished
        job.done_evt.set()
        self._announce(job)

    def _announce(self, job: _Job) -> None:
        bus = self.bus
        if not bus.enabled:
            return
        counter = {
            DONE: "service.jobs_completed",
            CANCELLED: "service.jobs_cancelled",
            FAILED: "service.jobs_failed",
        }.get(job.status)
        if counter:
            bus.counters.inc(counter)
        fields: dict[str, Any] = {
            "job": job.job_id,
            "status": job.status,
            "elapsed": (job.finished or 0.0) - (job.started or job.finished or 0.0),
        }
        if job.result is not None:
            fields["best_energy"] = job.result.best_energy
            fields["rounds"] = job.result.rounds
        bus.emit("service.job_end", **fields)

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                job = None
                while job is None:
                    while self._heap:
                        _, job_id = heapq.heappop(self._heap)
                        candidate = self._jobs[job_id]
                        if candidate.status == QUEUED:
                            job = candidate
                            self._queued -= 1
                            break
                    if job is not None:
                        break
                    if self._closed:
                        return
                    self._cond.wait(timeout=0.2)
                job.status = RUNNING
                job.started = time.monotonic()
                self._running = job
            try:
                self._run_job(job)
            finally:
                with self._cond:
                    self._running = None

    def _run_job(self, job: _Job) -> None:
        bus = self.bus
        with self._lock:
            cached = (
                self._result_cache.get(job.run_key)
                if job.run_key is not None
                else None
            )
            fleet_reused = (
                self._fleet is not None
                and self._fleet.params == fleet_params(job.solver.config)
            )
        if bus.enabled:
            bus.emit(
                "service.job_start",
                job=job.job_id,
                n=job.solver.n,
                cache_hit=cached is not None,
                fleet_reused=fleet_reused,
            )
        if cached is not None:
            with self._cond:
                job.cache_hit = True
                job.result = copy.deepcopy(cached)
                self._finish(job, DONE)
            if bus.enabled:
                bus.counters.inc("service.cache_hits")
            return
        try:
            if job.mode == "sync":
                result = job.solver.solve("sync")
            else:
                fleet = self._ensure_fleet(job)
                armed, hits = fleet.jobs_armed, fleet.weights_hits
                try:
                    result = job.solver.solve_on_fleet(
                        fleet,
                        digest=job.digest,
                        cancelled=job.cancel_evt.is_set,
                    )
                finally:
                    self._count("service.fleet_rearms", fleet.jobs_armed - armed)
                    self._count(
                        "service.weights_cache_hits", fleet.weights_hits - hits
                    )
        except Exception as exc:  # noqa: BLE001 — job isolation boundary
            with self._cond:
                job.error = f"{type(exc).__name__}: {exc}"
                self._finish(job, FAILED)
            if job.mode == "process":
                # The fleet may be in an arbitrary state (dead workers,
                # half-armed job); rebuild for the next job.
                self._teardown_fleet()
            return
        # A cancelled job's result is truncated at the cancellation
        # round — caching it would answer a later identical submission
        # with the partial result as a DONE hit.  The cancellation flag
        # is read exactly once, under the lock, so the cache-insert
        # decision and the final status can never disagree (the PR-9
        # race was this check running outside the lock).
        with self._cond:
            cancelled = job.cancel_evt.is_set()
            if (
                job.run_key is not None
                and self.config.result_cache_size
                and not cancelled
            ):
                self._result_cache[job.run_key] = copy.deepcopy(result)
                while len(self._result_cache) > self.config.result_cache_size:
                    del self._result_cache[next(iter(self._result_cache))]
            job.result = result
            self._finish(job, CANCELLED if cancelled else DONE)

    # ------------------------------------------------------------------
    # Fleet lifecycle
    # ------------------------------------------------------------------
    def _count(self, name: str, delta: int) -> None:
        if delta and self.bus.enabled:
            self.bus.counters.inc(name, delta)

    def _ensure_fleet(self, job: _Job) -> WorkerFleet:
        # Only the dispatcher thread builds or swaps fleets, so there
        # is no build race; the lock covers the _fleet ref that
        # `status`-path readers snapshot.  Slow work — shutdown,
        # construction, start() — stays outside the locked regions.
        wanted = fleet_params(job.solver.config)
        stale: WorkerFleet | None = None
        with self._lock:
            if self._fleet is not None and self._fleet.params != wanted:
                stale, self._fleet = self._fleet, None
            fleet = self._fleet
        if stale is not None:
            stale.shutdown()
        if fleet is None:
            fleet = WorkerFleet(
                **wanted,
                bus=self.bus,
                arm_timeout=self.config.arm_timeout,
            )
            fleet.start()
            self._count("service.fleet_spawns", 1)
            with self._lock:
                self._fleet = fleet
        return fleet

    def _teardown_fleet(self) -> None:
        with self._lock:
            fleet, self._fleet = self._fleet, None
        if fleet is not None:
            fleet.shutdown()
