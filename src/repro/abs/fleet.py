"""Worker fleets: the plumbing every process-mode solve runs on.

Process mode runs one OS process per simulated GPU.  A
:class:`WorkerFleet` owns those processes, the current job's exchange
transport (one shared-memory segment per worker), the
:class:`~repro.abs.supervisor.WorkerSupervisor` that restarts dead or
stalled workers, and the host-side shared-memory weight segments.
Every worker runs :func:`_fleet_worker_main`: a control loop that
accepts ``WorkerJob`` frames over a per-worker control queue, attaches
an exchange endpoint to its segment for the job, and runs the device
rounds until the host ends the job.  On the host side,
:class:`FleetDevices` hands one job's workers to the host loop that
sync mode runs too (:func:`~repro.abs.host.run_search_rounds`).

Two callers share one fleet implementation:

- a one-shot ``solve("process")`` builds a fleet from its config
  (:func:`fleet_params`), starts it, runs its single job through
  :meth:`~repro.abs.solver.AdaptiveBulkSearch.solve_on_fleet`, and
  shuts it down;
- the solver service (:mod:`repro.service`) keeps a fleet up across a
  whole job stream, whatever the problem sizes.  The paper's
  host/device split has no per-problem worker state beyond the weights
  and the GA targets, so processes and backend-prepared weights
  survive from job to job.

**Per-job segments.**  Like the paper's fixed target and solution
buffers (Figure 5), nothing in the exchange protocol ties a process to
one problem size.  Each job gives each worker one segment holding its
mailbox and its ring, sized for the job's ``n``: ``arm_job`` creates
them and unlinks the previous job's, and the job frame names the
worker's own, so a worker reads only its current job's traffic.
Within a job the mailbox epoch and the ring record carry the bare
worker incarnation, which is how a restart skips its predecessor's
targets.  ``arm_job`` numbers the jobs from 1 and stamps the number
into every frame; it tags the ack handshake and the telemetry side
queue, which is fleet-level (a queue cannot travel inside a frame).

**Doorbells and job over.**  The fleet creates one semaphore per
worker id and one for the host, and hands them to each worker at spawn
(a replacement reuses its id's bell); every job's transport rings them
after each store a peer may wait for (:mod:`repro.abs.exchange`), so
nobody sleeps in a poll loop.  A job ends in shared memory: the host
sets each mailbox's job-over word and rings every worker bell, in
:meth:`FleetDevices.finish`, in ``arm_job`` before it unlinks the
previous job's segments, and in ``shutdown``.  A worker that sees the
word leaves its round loop (it checks once per round, and every wait
checks it) and blocks on its control queue for the next frame.

**Re-arm handshake.**  ``arm_job`` builds the job's segments, delivers
one ``WorkerJob`` frame per worker, and waits until every healthy
worker acknowledges the new job sequence number.  A worker acks only after it has attached the
weights, prepared (and, for ``bitplane``, compiled) its backend and
built its device, so the ack is the boundary between a job's
``setup_ns`` and its search clock: the host publishes the first
targets and starts ``time_limit`` only once every worker is ready to
search.  The handshake is also where a worker that dies mid-arm is
restarted by the supervisor and re-armed at spawn with the *current*
frame — a replacement can never resurrect the previous job.
"""

from __future__ import annotations

import queue as queue_mod
import threading
import time
from collections import OrderedDict
from multiprocessing import resource_tracker
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.abs.buffers import SharedWeights
from repro.abs.config import AbsConfig
from repro.abs.device import DevicePlan, DeviceSimulator
from repro.abs.exchange import ResultBatch, ShmHostTransport, ShmWorkerEndpoint
from repro.abs.host import Host
from repro.abs.supervisor import WorkerSupervisor
from repro.telemetry.bus import NULL_BUS, NullBus, RelayBus, TelemetryBus

#: Interval for worker control-queue polls and host ack polls.
_POLL_INTERVAL = 0.25

#: Sentinel control frame asking a worker to exit cleanly.
_SHUTDOWN = "shutdown"

#: Host-side shared-memory weight segments kept alive across jobs,
#: keyed by problem digest (dense problems only; sparse ones ship by
#: pickle and need no segment).
_WEIGHTS_CACHE_SIZE = 8

#: Per-worker cap on cached backend-prepared weights
#: (``PreparedWeights`` keyed by ``(backend, digest)``).
_PREPARED_CACHE_SIZE = 4

#: Per-worker cap on attached weight segments (keyed by descriptor).
_ATTACHED_WEIGHTS_SIZE = 2 * _PREPARED_CACHE_SIZE


def _drain(q: Any) -> list:
    """Everything queued on ``q`` now; nothing once it is torn down."""
    items = []
    try:
        while True:
            items.append(q.get_nowait())
    except (queue_mod.Empty, OSError, EOFError, ValueError):
        pass
    return items


def _resolve_start_method(requested: str | None) -> str:
    """Pick the multiprocessing start method for process mode.

    ``None`` prefers ``"fork"`` (cheapest: workers inherit the parent
    image) where the platform offers it, otherwise the platform
    default.  An explicit request is validated against what the
    platform supports.
    """
    import multiprocessing as mp

    available = mp.get_all_start_methods()
    if requested is not None:
        if requested not in available:
            raise ValueError(
                f"start method {requested!r} not available on this platform "
                f"(available: {available})"
            )
        return requested
    return "fork" if "fork" in available else mp.get_start_method()


def fleet_params(cfg: AbsConfig) -> dict[str, Any]:
    """The :class:`WorkerFleet` a config needs.

    The one mapping from an :class:`AbsConfig` to fleet construction
    arguments.  A one-shot ``solve("process")`` and the service build
    their fleets from it, and a fleet keeps it as
    :attr:`WorkerFleet.params`: the service reuses a fleet whose params
    equal it, and ``solve_on_fleet`` refuses one whose params differ.
    The problem size is not among them: each job's exchange segments
    are sized when it is armed, so one fleet serves every size.
    """
    return {
        "n_workers": cfg.n_gpus,
        "n_blocks": cfg.blocks_per_gpu,
        "max_restarts": cfg.max_worker_restarts,
        "stall_timeout": cfg.worker_stall_timeout,
        "start_method": cfg.start_method,
    }


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerJob:
    """One job assignment, shipped to a worker as a control frame.

    Carries everything a device needs for one job, minus what the
    worker already owns (its id, its incarnation, the telemetry queue,
    the stop event).  :meth:`WorkerFleet.arm_job` fills in ``job_seq``
    and ``exchange_ref``, which names the worker's own segment for the
    job.  A frame delivered to a freshly restarted worker is read under
    the replacement's incarnation, never its dead predecessor's.
    """

    weights_ref: tuple
    digest: str | None
    n_blocks: int
    plan: DevicePlan
    backend: str | None
    telemetry_enabled: bool
    lockstep: bool
    job_seq: int = 0
    exchange_ref: tuple = ()


def run_device_rounds(
    device: DeviceSimulator,
    endpoint: Any,
    relay: Any,
    lockstep: bool,
    telemetry_enabled: bool,
) -> None:
    """The §3.2 device loop: fetch targets, run rounds, ship results.

    Job-agnostic: :func:`_fleet_worker_main` runs it once per job
    frame.  Returns once ``endpoint.stopping()`` (the host ended the
    job, or the fleet is stopping): checked once per round, and by
    every wait the endpoint blocks in.
    """
    targets = endpoint.fetch_targets(wait=True)
    while targets is not None and not endpoint.stopping():
        energies, xs = device.round(targets)
        wevents = relay.drain() if telemetry_enabled else []
        shipped = endpoint.publish(energies, xs, device.totals(), wevents)
        if not shipped:  # job ended while the ring was full
            break
        fresh = endpoint.fetch_targets(wait=lockstep)
        if fresh is not None:
            targets = fresh
        elif lockstep:  # job ended while waiting for targets
            break


def _fleet_worker_main(
    worker_id: int,
    incarnation: int,
    control: Any,
    events_q: Any,
    stop_evt: Any,
    ack_q: Any,
    bells: tuple[Any, Any] | None = None,
) -> None:
    """Device-process entry point (module-level, picklable).

    Sits in a control loop: each ``WorkerJob`` frame closes the previous
    job's exchange endpoint and attaches a fresh one to the worker's
    segment for the job, builds a *fresh* :class:`DeviceSimulator`
    (engines start from the canonical zero state — a service job must
    match a one-shot solve bit-for-bit), and runs
    :func:`run_device_rounds` until the host ends the job; the worker
    then blocks on its control queue for the next frame.  What persists across jobs is exactly the
    expensive, state-free plumbing: the process itself, the telemetry
    side queue ``events_q`` and the doorbells ``bells`` (``(own bell,
    host bell)``; both handed over at spawn, because a semaphore
    cannot travel inside a frame), attached
    shared-memory weight segments (keyed by segment descriptor — the
    host may evict and recreate a segment for the same problem), and
    backend ``PreparedWeights`` (keyed by ``(backend, digest)``;
    read-only kernel input, so reuse cannot couple searches).
    """
    endpoint: ShmWorkerEndpoint | None = None
    shm_cache: OrderedDict[tuple, SharedWeights] = OrderedDict()
    prepared_cache: OrderedDict[tuple, object] = OrderedDict()
    try:
        while not stop_evt.is_set():
            try:
                frame = control.get(timeout=_POLL_INTERVAL)
            except queue_mod.Empty:
                continue
            except (OSError, ValueError):  # control queue torn down
                break
            if frame == _SHUTDOWN:
                break
            job: WorkerJob = frame
            if endpoint is not None:
                endpoint.close()
                endpoint = None
            try:
                endpoint = ShmWorkerEndpoint(
                    job.exchange_ref,
                    events_q,
                    worker_id=worker_id,
                    job_seq=job.job_seq,
                    incarnation=incarnation,
                    stop_evt=stop_evt,
                    bells=bells,
                )
            except FileNotFoundError:
                # A superseded frame: the host armed a newer job, and
                # unlinked this one's segments, before it was read.
                continue
            kind, payload = job.weights_ref
            if kind == "shm":
                key = tuple(payload)
                shared = shm_cache.get(key)
                if shared is not None:
                    shm_cache.move_to_end(key)  # LRU, not FIFO
                else:
                    shared = SharedWeights.attach(payload)
                    shm_cache[key] = shared
                    while len(shm_cache) > _ATTACHED_WEIGHTS_SIZE:
                        _, old = shm_cache.popitem(last=False)
                        old.close()
                weights: Any = shared.array
            else:
                weights = payload
            relay = RelayBus() if job.telemetry_enabled else NULL_BUS
            ckey = (job.backend, job.digest)
            prepared = (
                prepared_cache.get(ckey) if job.digest is not None else None
            )
            if prepared is not None:
                prepared_cache.move_to_end(ckey)  # LRU, not FIFO
            device = DeviceSimulator.from_plan(
                weights,
                job.n_blocks,
                job.plan,
                backend=job.backend,
                bus=relay,
                device_id=worker_id,
                prepared=prepared,
                split=False,  # the worker already is one device on its own core
            )
            if job.digest is not None and prepared is None:
                pw = device.engine.prepared
                if pw is not None:
                    prepared_cache[ckey] = pw
                    while len(prepared_cache) > _PREPARED_CACHE_SIZE:
                        prepared_cache.popitem(last=False)
            ack_q.put((worker_id, job.job_seq))
            run_device_rounds(
                device, endpoint, relay, job.lockstep, job.telemetry_enabled
            )
    except (KeyboardInterrupt, BrokenPipeError):  # parent went away
        pass
    finally:
        if endpoint is not None:
            endpoint.close()
        for shared in shm_cache.values():
            shared.close()


# ----------------------------------------------------------------------
# Host side
# ----------------------------------------------------------------------
class WorkerFleet:
    """Processes + supervisor + per-job exchange, reusable across jobs.

    Parameters
    ----------
    n_workers, n_blocks:
        Fleet geometry: worker processes and blocks per worker.  The
        problem size is not part of it; :meth:`arm_job` sizes each
        job's exchange segments.
    bus:
        Telemetry bus for supervisor events.  The service swaps in a
        per-job stamped view via :meth:`WorkerSupervisor` sharing.
    max_restarts, stall_timeout:
        Supervision policy.  The restart budget spans the fleet's
        *lifetime*, not one job (documented in ``docs/service.md``).
    start_method:
        Multiprocessing start method (``None``: platform preference).
    arm_timeout:
        Seconds one :meth:`arm_job` handshake may take (covers worker
        spawn and backend preparation on a fresh fleet).
    """

    def __init__(
        self,
        *,
        n_workers: int,
        n_blocks: int,
        bus: TelemetryBus | NullBus | None = None,
        max_restarts: int = 2,
        stall_timeout: float | None = None,
        start_method: str | None = None,
        arm_timeout: float = 30.0,
    ) -> None:
        from multiprocessing import get_context

        #: This fleet's :func:`fleet_params`: what a job must match.
        self.params: dict[str, Any] = {
            "n_workers": int(n_workers),
            "n_blocks": int(n_blocks),
            "max_restarts": int(max_restarts),
            "stall_timeout": stall_timeout,
            "start_method": start_method,
        }
        self.n_workers = int(n_workers)
        self.n_blocks = int(n_blocks)
        self.bus = bus if bus is not None else NULL_BUS
        self.ctx = get_context(_resolve_start_method(start_method))
        self.stop_evt = self.ctx.Event()
        # Doorbells (see repro.abs.exchange): one per worker id, which a
        # replacement inherits, and one the host waits on.  Handed over
        # at spawn: a semaphore cannot travel inside a job frame.
        self._worker_bells = [self.ctx.Semaphore(0) for _ in range(self.n_workers)]
        self._host_bell = self.ctx.Semaphore(0)
        self.supervisor: WorkerSupervisor | None = None
        self._arm_timeout = float(arm_timeout)
        # One lock covers the state shared between the arming thread,
        # the supervise thread (whose restart callbacks land in
        # _spawn), and whichever thread calls shutdown().  The weights
        # cache, the job counters and the accounting marks stay
        # unannotated: only the arming thread touches them.
        self._lock = threading.Lock()
        self._job_seq = 0  # guarded-by: _lock
        self._current_jobs: list[WorkerJob] | None = None  # guarded-by: _lock
        #: The current job's exchange segments (None before the first arm).
        self._transport: ShmHostTransport | None = None  # guarded-by: _lock
        self._controls: dict[int, Any] = {}  # guarded-by: _lock
        self._all_controls: list[Any] = []  # guarded-by: _lock
        self._ack_q = self.ctx.Queue()
        # Worker telemetry bundles, tagged (worker_id, job_seq,
        # incarnation).  Fleet-level and handed over at spawn: a queue
        # cannot travel inside a job frame.
        self._events_q = self.ctx.Queue()
        #: problem digest -> host-side SharedWeights (LRU, owner).
        self._weights_cache: OrderedDict[str, SharedWeights] = OrderedDict()
        self._closed = False  # guarded-by: _lock
        #: Completed re-arm handshakes; spawns happen once.
        self.jobs_armed = 0
        #: Jobs whose weights came from the digest-keyed segment cache.
        self.weights_hits = 0
        # take_job_stats() supervisor totals when the previous job ended.
        self._job_mark: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def transport(self) -> ShmHostTransport:
        """The current job's exchange, built by :meth:`arm_job`."""
        with self._lock:
            transport = self._transport
        if transport is None:
            raise RuntimeError("no job armed")
        return transport

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn incarnation 0 of every worker; jobs follow via :meth:`arm_job`."""
        if self.supervisor is not None:
            raise RuntimeError("fleet already started")
        # No shared-memory segment exists before the first arm, so this
        # call is what starts the resource tracker, before any worker
        # is spawned.  Workers then share the parent's tracker;
        # otherwise each would start its own on its first attach, and
        # that tracker unlinks the job's segments when the worker dies,
        # so the replacement could not attach.
        resource_tracker.ensure_running()
        self.supervisor = WorkerSupervisor(
            self.n_workers,
            self._spawn,
            max_restarts=self.params["max_restarts"],
            stall_timeout=self.params["stall_timeout"],
            bus=self.bus,
        )
        self.supervisor.start()

    def _spawn(self, worker_id: int, incarnation: int) -> Any:
        control = self.ctx.Queue()
        with self._lock:
            self._controls[worker_id] = control
            self._all_controls.append(control)
            # A replacement spawned mid-job (or mid-handshake) re-arms
            # with the *current* frame — never its predecessor's job.
            frame = (
                self._current_jobs[worker_id]
                if self._current_jobs is not None
                else None
            )
        if frame is not None:
            control.put(frame)
        # _fleet_worker_main is looked up at call time, so a patched
        # module attribute reaches replacements too.
        p = self.ctx.Process(
            target=_fleet_worker_main,
            args=(
                worker_id,
                incarnation,
                control,
                self._events_q,
                self.stop_evt,
                self._ack_q,
                (self._worker_bells[worker_id], self._host_bell),
            ),
            daemon=True,
        )
        p.start()
        return p

    # ------------------------------------------------------------------
    # Job management
    # ------------------------------------------------------------------
    def weights_ref_for(
        self, weights: Any, digest: str | None
    ) -> tuple[tuple, bool]:
        """``(weights_ref, cache_hit)`` for a job's problem weights.

        Dense matrices go through host-owned shared-memory segments
        cached by problem digest — repeat submissions of the same
        problem skip the copy entirely.  Sparse problems are small and
        ship by pickling inside the job frame.
        """
        from repro.qubo.sparse import SparseQubo

        if isinstance(weights, SparseQubo):
            return ("sparse", weights), False
        if digest is not None:
            shared = self._weights_cache.get(digest)
            if shared is not None:
                self._weights_cache.move_to_end(digest)
                self.weights_hits += 1
                return ("shm", shared.descriptor), True
        shared = SharedWeights.create(np.ascontiguousarray(weights, dtype=np.int64))
        # Undigested segments still enter the cache (under a unique key)
        # so shutdown unlinks them; they just can never be re-hit.
        self._weights_cache[digest or f"anon-{shared.descriptor[0]}"] = shared
        while len(self._weights_cache) > _WEIGHTS_CACHE_SIZE:
            self._weights_cache.popitem(last=False)[1].unlink()
        return ("shm", shared.descriptor), False

    def arm_job(self, n: int, jobs: list[WorkerJob]) -> int:
        """Build the job's exchange, deliver one job frame per worker,
        wait for the ack gate, and return the job's sequence number.

        ``n`` is the job's problem size; ``jobs`` is indexed by worker
        id.  Each frame is stamped with the next ``job_seq`` (the first
        job is 1) and its worker's ``exchange_ref``.  The job gets one
        fresh segment per worker sized for ``n``, and the previous
        job's are closed and unlinked (a worker still running that job
        keeps its mapping until it reads the new frame).  On return
        every healthy worker has attached its new segment and finished
        its per-job setup (weight attach, backend prepare and compile,
        device build): the return marks the end of the job's
        ``setup_ns`` and the start of its search clock.
        Workers that die during the handshake are restarted and
        re-armed at spawn with the current frame; the call fails only
        when no healthy worker remains or the timeout expires.
        """
        if self.supervisor is None:
            raise RuntimeError("fleet not started")
        with self._lock:
            prev_seq = self._job_seq
        job_seq = prev_seq + 1
        # Flush the previous job's buffered event bundles under *its*
        # sequence before the job moves — e.g. a final round's device
        # events that landed after that job's host loop stopped polling.
        self.relay_events(self.bus, prev_seq)
        transport = ShmHostTransport(
            self.n_workers,
            self.n_blocks,
            n,
            worker_bells=self._worker_bells,
            host_bell=self._host_bell,
        )
        jobs = [
            replace(job, job_seq=job_seq, exchange_ref=transport.worker_ref(wid))
            for wid, job in enumerate(jobs)
        ]
        with self._lock:
            closed = self._closed
            if not closed:
                stale, self._transport = self._transport, transport
                self._job_seq = job_seq
                self._current_jobs = jobs
        if closed:  # shutdown() ran meanwhile and unlinked what it saw
            transport.close()
            raise RuntimeError("fleet is shut down")
        if stale is not None:
            # Wake workers still in the previous job, so they return to
            # their control queues, then unlink its segments (a worker's
            # own mapping stays valid until it closes it).
            stale.end_job()
            stale.close()
        sup = self.supervisor
        # Live workers keep their incarnation; a worker idle between
        # jobs must not count as stalled.
        sup.reset_progress()
        # Snapshot: a mid-handshake restart adds its own control entry
        # and self-arms with the frame set above, so missing it is fine.
        with self._lock:
            controls = dict(self._controls)
        for wid in sup.healthy_ids:
            controls[wid].put(jobs[wid])
        acked: set[int] = set()
        exitcodes: list[int | None] = []
        deadline = time.monotonic() + self._arm_timeout
        while True:
            # Deaths mid-handshake respawn with the frame.
            exitcodes += [action.exitcode for action in sup.poll()]
            healthy = set(sup.healthy_ids)
            if not healthy:
                raise RuntimeError(
                    self._all_died_message(sup.workers_restarted, exitcodes, acked)
                )
            if healthy <= acked:
                self.jobs_armed += 1
                return job_seq
            try:
                wid, jseq = self._ack_q.get(timeout=0.1)
            except queue_mod.Empty:
                pass
            else:
                if jseq == job_seq:
                    acked.add(wid)
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"fleet re-arm timed out after {self._arm_timeout:.0f}s "
                    f"(acked {sorted(acked)}, healthy {sorted(healthy)})"
                )

    def _all_died_message(
        self, restarts: int, exitcodes: list[int | None], acked: set[int]
    ) -> str:
        """Why :meth:`arm_job` gave up: restarts, exit codes, and the
        usual cause when spawn-started workers never got going."""
        message = (
            "all ABS workers died before finishing "
            f"(after {restarts} restarts; exit codes {exitcodes})"
        )
        if (
            self.ctx.get_start_method() == "spawn"
            and self.jobs_armed == 0
            and not acked
        ):
            message += (
                "; no worker ever started its job.  Spawn-started workers "
                "re-import the main module, so a script that solves in "
                "process mode must do so under "
                '`if __name__ == "__main__":`'
            )
        return message

    def relay_events(self, bus: "TelemetryBus | NullBus", job_seq: int) -> None:
        """Re-emit buffered worker-side event bundles for ``job_seq``.

        Worker telemetry (``device.round``, ``engine.*``, ``adapt.*``)
        rides the fleet's side queue; re-emit it stamped with the worker
        id, but only for the worker's current incarnation *and this
        job* — a killed predecessor's (or a previous job's) buffered
        events would misattribute counters otherwise.  Bundles that do
        not qualify are dropped, not kept.
        """
        bundles = _drain(self._events_q)
        sup = self.supervisor
        if not bus.enabled or sup is None:
            return
        healthy = sup.healthy_ids
        for wid, wseq, inc, wevents in bundles:
            if wseq != job_seq or inc != sup.incarnation(wid) or wid not in healthy:
                continue
            for name, fields in wevents:
                payload = dict(fields)
                payload.setdefault("device", wid)
                bus.emit(name, **payload)

    def take_job_stats(self) -> dict[str, int]:
        """This job's ``supervisor.*`` and transport counters.

        The supervisor counts over the fleet's lifetime, so a job
        reports the counts since the previous call.  Called once per
        job after its host loop ends, so whatever happened between two
        jobs (a worker killed while idle) lands on the next one, and a
        fresh fleet's first job sees everything since spawn.  The
        transport belongs to the job, so its counts are the job's own.
        """
        sup = self.supervisor
        if sup is None:
            raise RuntimeError("fleet not started")
        now = {
            "supervisor.restarts": sup.workers_restarted,
            "supervisor.workers_lost": sup.workers_lost,
        }
        mark, self._job_mark = self._job_mark, now
        stats = {k: v - mark.get(k, 0) for k, v in now.items()}
        stats.update(self.transport.stats)
        return stats

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop workers, drain control queues, unlink every segment."""
        # Atomic test-and-set: the service can race its own failure
        # teardown against close(), and only one caller may proceed to
        # join/terminate/unlink below.
        with self._lock:
            if self._closed:
                return
            self._closed = True
            controls = list(self._controls.values())
            last_seq = self._job_seq
            transport = self._transport
        self.stop_evt.set()
        if transport is not None:  # wake workers blocked on their bells
            transport.end_job()
        for control in controls:
            try:
                control.put(_SHUTDOWN)
            except (OSError, ValueError):
                pass
        procs = self.supervisor.all_processes if self.supervisor else []
        deadline = time.monotonic() + 5.0
        for p in procs:
            p.join(timeout=max(0.1, deadline - time.monotonic()))
        for p in procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=1.0)
        # Workers are down, so every bundle they ever sent is queued:
        # one last relay catches those that arrived after the host loop
        # stopped polling (the final round's device events).
        try:
            self.relay_events(self.bus, last_seq)
        except Exception:  # pragma: no cover - teardown best-effort
            pass
        # Drain the control queues so their feeder threads can exit,
        # then unlink the current job's segments.
        with self._lock:
            all_controls = list(self._all_controls)
        for q in (*all_controls, self._ack_q):
            _drain(q)
        if transport is not None:
            transport.close()
        for shared in self._weights_cache.values():
            shared.unlink()
        self._weights_cache.clear()

    def __enter__(self) -> "WorkerFleet":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()


# ----------------------------------------------------------------------
# The fleet as the host loop's device set
# ----------------------------------------------------------------------
class FleetDevices:
    """A started fleet running job ``job_seq``, as the host loop's
    :class:`~repro.abs.host.DeviceSet` (Step-4 policy ``per-result``).

    The job's transport is its own, so every result it polls belongs to
    this job.  A result from a killed incarnation still feeds the pool,
    but not the progress clock or the counters.
    """

    sweep = False

    def __init__(
        self, fleet: WorkerFleet, job_seq: int, bus: TelemetryBus | NullBus
    ) -> None:
        if fleet.supervisor is None:
            raise RuntimeError("fleet not started")
        self.fleet = fleet
        self.job_seq = job_seq
        self.bus = bus
        self._supervisor = fleet.supervisor
        self._transport = fleet.transport
        self._results = 0
        self._polled: int | None = None  # worker whose result awaits Step 4

    @property
    def healthy_ids(self) -> list[int]:
        return self._supervisor.healthy_ids

    def put(self, device: int, targets: np.ndarray) -> None:
        sup = self._supervisor
        if device not in sup.healthy_ids:  # lost: nobody reads this mailbox
            return
        self._transport.channels[device].put(targets, sup.incarnation(device))
        if device == self._polled:  # Step 4's answer to its last result
            self._polled = None
            if self.bus.enabled:
                self.bus.emit(
                    "host.queue",
                    device=device,
                    results_queued=self._transport.result_backlog(device),
                )

    def poll(self, timeout: float) -> ResultBatch | None:
        batch = self._transport.poll(timeout=timeout)
        if batch is None:
            return None
        wid = batch.worker_id
        fresh = self._supervisor.note_result(wid, batch.incarnation)
        self._results += 1
        self._polled = wid
        if self.bus.enabled:
            if fresh:
                self.fleet.relay_events(self.bus, self.job_seq)
            self.bus.emit(
                "worker.result",
                worker=wid,
                round=self._results,
                best_energy=int(batch.energies.min()),
                evaluated=batch.counters["engine.evaluated"],
                flips=batch.counters["engine.flips"],
            )
        return batch if fresh else replace(batch, counters={})

    def supervise(self) -> list[int]:
        return [action.worker_id for action in self._supervisor.poll()]

    def end_sweep(self, host: Host) -> None:
        """Never called: a fleet answers per result."""

    def finish(self) -> dict[str, int]:
        # The job is over: workers stop at their next check instead of
        # waiting out a bell timeout.
        self._transport.end_job()
        if self.bus.enabled:  # bundles that landed after the last poll
            self.fleet.relay_events(self.bus, self.job_seq)
        return self.fleet.take_job_stats()
