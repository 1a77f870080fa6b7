"""Worker fleets: the plumbing every process-mode solve runs on.

Process mode runs one OS process per simulated GPU.  A
:class:`WorkerFleet` owns those processes, the exchange transport
(the shared-memory mailboxes and rings), the
:class:`~repro.abs.supervisor.WorkerSupervisor` that restarts dead or
stalled workers, and the host-side shared-memory weight segments.
Every worker runs :func:`_fleet_worker_main`: a control loop that
accepts ``WorkerJob`` frames over a per-worker control queue, re-arms
the exchange endpoint under the job's epoch token, and runs the device
rounds until the next frame (or shutdown) arrives.  On the host side,
:class:`FleetDevices` hands one job's workers to the host loop that
sync mode runs too (:func:`~repro.abs.host.run_search_rounds`).

Two callers share one fleet implementation:

- a one-shot ``solve("process")`` builds a fleet from its config
  (:func:`fleet_params`), starts it, runs its single job through
  :meth:`~repro.abs.solver.AdaptiveBulkSearch.solve_on_fleet`, and
  shuts it down;
- the solver service (:mod:`repro.service`) keeps a fleet up across a
  whole job stream.  The paper's host/device split has no per-problem
  worker state beyond the weights and the GA targets, so spawn,
  transport, and backend-prepared weights survive from job to job.

**Epoch tokens.**  The exchange layer already discards traffic whose
epoch does not match (that is how worker restarts skip a predecessor's
stale targets).  The fleet widens the epoch into a token::

    token = job_seq * JOB_STRIDE + incarnation

so one integer simultaneously identifies *which job* and *which
incarnation of the worker slot* produced a frame.  Job sequence
numbers start at 1.  Cross-job traffic (a result published
microseconds before a re-arm) is filtered by the host exactly like a
stale incarnation's.

**Re-arm handshake.**  ``arm_job`` re-stamps every healthy worker's
target channel with the new token, delivers one ``WorkerJob`` frame per
worker, and waits until every healthy worker acknowledges the new job
sequence number.  A worker acks only after it has attached the
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

#: Epoch tokens pack ``(job_seq, incarnation)`` into one integer:
#: ``job_seq * JOB_STRIDE + incarnation``.  The stride bounds restarts
#: per job at ~1M — far beyond any restart budget.
JOB_STRIDE = 1 << 20

#: Interval for worker control-queue polls and host ack polls.
_POLL_INTERVAL = 0.25

#: Sentinel control frame asking a worker to exit cleanly.
_SHUTDOWN = "shutdown"


def encode_token(job_seq: int, incarnation: int) -> int:
    """Pack a job sequence number and an incarnation into one epoch."""
    if not 0 <= incarnation < JOB_STRIDE:
        raise ValueError(f"incarnation out of range: {incarnation}")
    return job_seq * JOB_STRIDE + incarnation


def decode_token(token: int) -> tuple[int, int]:
    """``token -> (job_seq, incarnation)``; inverse of :func:`encode_token`."""
    return divmod(int(token), JOB_STRIDE)


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


def fleet_params(cfg: AbsConfig, n: int) -> dict[str, Any]:
    """The :class:`WorkerFleet` a config needs for an ``n``-bit problem.

    The one mapping from an :class:`AbsConfig` to fleet construction
    arguments.  A one-shot ``solve("process")`` and the service build
    their fleets from it, the service keys fleet reuse on it, and
    ``solve_on_fleet`` refuses a fleet whose :attr:`WorkerFleet.params`
    differ from it.
    """
    return {
        "n": int(n),
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
    worker already owns (its id, its endpoint, the stop event).
    ``job_seq`` rather than a full token:
    the worker combines it with its *own* incarnation number, so a
    frame delivered to a freshly restarted worker re-arms under the
    replacement's epoch, not its dead predecessor's.
    """

    job_seq: int
    weights_ref: tuple
    digest: str | None
    n_blocks: int
    plan: DevicePlan
    backend: str | None
    telemetry_enabled: bool
    lockstep: bool


class _StopProxy:
    """Stop event that also trips on a pending control frame.

    Handed to the exchange endpoint and the round loop in place of the
    real stop event: a worker blocked in a lockstep target wait, a
    full-ring publish, or the free-running round loop must notice a
    newly queued ``JOB`` frame and fall back to the control loop —
    otherwise re-arming a busy fleet could wait a full round (or, for
    a blocked worker, forever).  ``Queue.empty()`` is advisory under
    multiprocessing, which is fine here: a false negative only delays
    the trip until the next poll.
    """

    __slots__ = ("_stop", "_control")

    def __init__(self, stop_evt: Any, control: Any) -> None:
        self._stop = stop_evt
        self._control = control

    def is_set(self) -> bool:
        if self._stop.is_set():
            return True
        try:
            return not self._control.empty()
        except (OSError, ValueError):  # control queue torn down
            return True


def run_device_rounds(
    device: DeviceSimulator,
    endpoint: Any,
    relay: Any,
    stop_evt: Any,
    lockstep: bool,
    telemetry_enabled: bool,
) -> None:
    """The §3.2 device loop: fetch targets, run rounds, ship results.

    Job-agnostic: :func:`_fleet_worker_main` runs it once per job
    frame.  Returns when targets dry up in lockstep mode, a publish is
    refused (stop or ring full at stop), or ``stop_evt`` trips (which
    includes a pending control frame via :class:`_StopProxy`).
    """
    targets = endpoint.fetch_targets(wait=True)
    while targets is not None and not stop_evt.is_set():
        energies, xs = device.round(targets)
        wevents = relay.drain() if telemetry_enabled else []
        shipped = endpoint.publish(energies, xs, device.totals(), wevents)
        if not shipped:  # stop requested while the ring was full
            break
        fresh = endpoint.fetch_targets(wait=lockstep)
        if fresh is not None:
            targets = fresh
        elif lockstep:  # stop requested while waiting for targets
            break


def _fleet_worker_main(
    worker_id: int,
    incarnation: int,
    control: Any,
    exchange_ref: tuple,
    stop_evt: Any,
    ack_q: Any,
    prepared_cache_size: int,
) -> None:
    """Device-process entry point (module-level, picklable).

    Sits in a control loop: each ``WorkerJob`` frame re-arms the
    exchange endpoint under the job's epoch token, builds a *fresh*
    :class:`DeviceSimulator` (engines start from the canonical zero
    state — a service job must match a one-shot solve bit-for-bit), and
    runs :func:`run_device_rounds` until the next frame arrives.  What
    persists across jobs is exactly the expensive, state-free plumbing:
    the process itself, the exchange endpoint, attached shared-memory
    weight segments (keyed by segment descriptor — the host may evict
    and recreate a segment for the same problem), and backend
    ``PreparedWeights`` (keyed by ``(backend, digest)``; read-only
    kernel input, so reuse cannot couple searches).
    """
    proxy = _StopProxy(stop_evt, control)
    endpoint = ShmWorkerEndpoint(
        exchange_ref,
        worker_id=worker_id,
        incarnation=incarnation,
        stop_evt=proxy,
    )
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
            kind, payload = job.weights_ref
            if kind == "shm":
                key = tuple(payload)
                shared = shm_cache.get(key)
                if shared is not None:
                    shm_cache.move_to_end(key)  # LRU, not FIFO
                else:
                    shared = SharedWeights.attach(payload)
                    shm_cache[key] = shared
                    while len(shm_cache) > max(1, prepared_cache_size * 2):
                        _, old = shm_cache.popitem(last=False)
                        old.close()
                weights: Any = shared.array
            else:
                weights = payload
            endpoint.rearm(encode_token(job.job_seq, incarnation))
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
            )
            if job.digest is not None and prepared is None:
                pw = device.engine.prepared
                if pw is not None:
                    prepared_cache[ckey] = pw
                    while len(prepared_cache) > max(1, prepared_cache_size):
                        prepared_cache.popitem(last=False)
            ack_q.put((worker_id, job.job_seq))
            run_device_rounds(
                device,
                endpoint,
                relay,
                proxy,
                job.lockstep,
                job.telemetry_enabled,
            )
    except (KeyboardInterrupt, BrokenPipeError):  # parent went away
        pass
    finally:
        endpoint.close()
        for shared in shm_cache.values():
            shared.close()


# ----------------------------------------------------------------------
# Host side
# ----------------------------------------------------------------------
class WorkerFleet:
    """Processes + exchange transport + supervisor, reusable across jobs.

    Parameters
    ----------
    n:
        Problem size in bits — part of the fleet geometry (the
        transport sizes its mailboxes/rings from it).
    n_workers, n_blocks:
        Fleet geometry: worker processes and blocks per worker.
    bus:
        Telemetry bus for supervisor events.  The service swaps in a
        per-job stamped view via :meth:`WorkerSupervisor` sharing.
    max_restarts, stall_timeout:
        Supervision policy.  The restart budget spans the fleet's
        *lifetime*, not one job (documented in ``docs/service.md``).
    start_method:
        Multiprocessing start method (``None``: platform preference).
    prepared_cache_size:
        Per-worker cap on cached backend-prepared weights.
    weights_cache_size:
        Host-side cap on cached shared-memory weight segments.
    arm_timeout:
        Seconds one :meth:`arm_job` handshake may take (covers worker
        spawn and backend preparation on a fresh fleet).
    """

    def __init__(
        self,
        n: int,
        *,
        n_workers: int,
        n_blocks: int,
        bus: TelemetryBus | NullBus | None = None,
        max_restarts: int = 2,
        stall_timeout: float | None = None,
        start_method: str | None = None,
        prepared_cache_size: int = 4,
        weights_cache_size: int = 8,
        arm_timeout: float = 30.0,
    ) -> None:
        from multiprocessing import get_context

        self.n = int(n)
        self.n_workers = int(n_workers)
        self.n_blocks = int(n_blocks)
        self.bus = bus if bus is not None else NULL_BUS
        self.start_method = start_method
        self.ctx = get_context(_resolve_start_method(start_method))
        self.stop_evt = self.ctx.Event()
        self.transport = ShmHostTransport(
            self.ctx, self.n_workers, self.n_blocks, self.n
        )
        self.supervisor: WorkerSupervisor | None = None
        self._max_restarts = int(max_restarts)
        self._stall_timeout = stall_timeout
        self._prepared_cache_size = int(prepared_cache_size)
        self._weights_cache_size = int(weights_cache_size)
        self._arm_timeout = float(arm_timeout)
        # One lock covers the state shared between the arming thread,
        # the supervise thread (whose restart callbacks land in
        # _spawn/_make_channel), and whichever thread calls shutdown().
        # The weights cache, the job counters and the accounting marks
        # stay unannotated: only the arming thread touches them.
        self._lock = threading.Lock()
        self._job_seq = 0  # guarded-by: _lock
        self._current_jobs: list[WorkerJob] | None = None  # guarded-by: _lock
        self._controls: dict[int, Any] = {}  # guarded-by: _lock
        self._all_controls: list[Any] = []  # guarded-by: _lock
        self._ack_q = self.ctx.Queue()
        #: problem digest -> host-side SharedWeights (LRU, owner).
        self._weights_cache: OrderedDict[str, SharedWeights] = OrderedDict()
        self._closed = False  # guarded-by: _lock
        #: Completed re-arm handshakes; spawns happen once.
        self.jobs_armed = 0
        #: Jobs whose weights came from the digest-keyed segment cache.
        self.weights_hits = 0
        # take_job_stats() totals when the previous job ended.
        self._job_mark: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def params(self) -> dict[str, Any]:
        """This fleet's :func:`fleet_params`: what a job must match."""
        return {
            "n": self.n,
            "n_workers": self.n_workers,
            "n_blocks": self.n_blocks,
            "max_restarts": self._max_restarts,
            "stall_timeout": self._stall_timeout,
            "start_method": self.start_method,
        }

    @property
    def job_seq(self) -> int:
        """Sequence number of the current (or last armed) job."""
        with self._lock:
            return self._job_seq

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn incarnation 0 of every worker; jobs follow via :meth:`arm_job`."""
        if self.supervisor is not None:
            raise RuntimeError("fleet already started")
        # Forked workers share the parent's shared-memory resource
        # tracker only if it already runs; otherwise each worker starts
        # its own on its first attach, and that tracker unlinks the
        # job's weight segment when the worker dies, so the replacement
        # cannot attach.  Creating the transport's segments already
        # starts it; the call keeps that a stated requirement rather
        # than a side effect.
        resource_tracker.ensure_running()
        self.supervisor = WorkerSupervisor(
            self.n_workers,
            self._spawn,
            channel_factory=self._make_channel,
            max_restarts=self._max_restarts,
            stall_timeout=self._stall_timeout,
            bus=self.bus,
        )
        self.supervisor.start()

    def _make_channel(self, worker_id: int, incarnation: int) -> Any:
        # A restart mid-arm may run this on the supervise thread, so
        # the job_seq read locks.
        with self._lock:
            token = encode_token(self._job_seq, incarnation)
        return self.transport.make_target_channel(worker_id, token)

    def _spawn(self, worker_id: int, incarnation: int, channel: Any) -> Any:
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
                self.transport.worker_ref(worker_id),
                self.stop_evt,
                self._ack_q,
                self._prepared_cache_size,
            ),
            daemon=True,
        )
        p.start()
        return p

    # ------------------------------------------------------------------
    # Job management
    # ------------------------------------------------------------------
    def next_job_seq(self) -> int:
        """Reserve the next job sequence number (starts at 1)."""
        with self._lock:
            return self._job_seq + 1

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
        while len(self._weights_cache) > max(1, self._weights_cache_size):
            self._weights_cache.popitem(last=False)[1].unlink()
        return ("shm", shared.descriptor), False

    def arm_job(self, jobs: list[WorkerJob]) -> None:
        """Deliver one job frame per worker and wait for the ack gate.

        ``jobs`` is indexed by worker id and must share one
        ``job_seq`` (from :meth:`next_job_seq`).  On return every
        healthy worker has re-armed its endpoint under the new epoch
        token and finished its per-job setup (weight attach, backend
        prepare and compile, device build): the return marks the end
        of the job's ``setup_ns`` and the start of its search clock.
        Workers that die during the handshake are restarted and
        re-armed at spawn with the current frame; the call fails only
        when no healthy worker remains or the timeout expires.
        """
        if self.supervisor is None:
            raise RuntimeError("fleet not started")
        if len(jobs) != self.n_workers:
            raise ValueError(f"need {self.n_workers} jobs, got {len(jobs)}")
        job_seq = jobs[0].job_seq
        with self._lock:
            prev_seq = self._job_seq
        if job_seq <= prev_seq:
            raise ValueError(
                f"job_seq must advance: {job_seq} <= {prev_seq}"
            )
        if any(j.job_seq != job_seq for j in jobs):
            raise ValueError("all jobs in one arm must share a job_seq")
        # Flush the previous job's buffered event bundles under *its*
        # sequence before the epoch moves — e.g. a final round's device
        # events that landed after that job's host loop stopped polling.
        self.relay_events(self.bus, prev_seq)
        with self._lock:
            self._job_seq = job_seq
            self._current_jobs = list(jobs)
        sup = self.supervisor
        # Live workers keep their incarnation; only the channel epoch
        # moves to the new job's token (_make_channel reads _job_seq).
        sup.rebind_channels()
        # Snapshot: a mid-handshake restart adds its own control entry
        # and self-arms with the frame set above, so missing it is fine.
        with self._lock:
            controls = dict(self._controls)
        for wid in sup.healthy_ids:
            controls[wid].put(jobs[wid])
        acked: set[int] = set()
        deadline = time.monotonic() + self._arm_timeout
        while True:
            sup.poll()  # deaths mid-handshake respawn with the frame
            healthy = set(sup.healthy_ids)
            if not healthy:
                raise RuntimeError(
                    "all ABS workers died before finishing "
                    f"(after {sup.workers_restarted} restarts)"
                )
            if healthy <= acked:
                self.jobs_armed += 1
                return
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

    def relay_events(self, bus: "TelemetryBus | NullBus", job_seq: int) -> None:
        """Re-emit buffered worker-side event bundles for ``job_seq``.

        Worker telemetry (``device.round``, ``engine.*``, ``adapt.*``)
        rides the transport's side channel; re-emit it stamped with the
        worker id, but only for the worker's current incarnation *and
        this job* — a killed predecessor's (or a previous job's)
        buffered events would misattribute counters otherwise.
        """
        if not bus.enabled or self.supervisor is None:
            self.transport.event_bundles()  # discard, don't accumulate
            return
        for wid, winc, wevents in self.transport.event_bundles():
            wseq, inc = decode_token(winc)
            if wseq != job_seq or inc != self.supervisor.incarnation(wid):
                continue
            if self.supervisor.target_channel(wid) is None:  # lost
                continue
            for name, fields in wevents:
                payload = dict(fields)
                payload.setdefault("device", wid)
                bus.emit(name, **payload)

    def take_job_stats(self) -> dict[str, int]:
        """This job's ``supervisor.*`` and transport counters (the
        counts since the previous call).

        The supervisor and the transport count over the fleet's
        lifetime; a job's result reports only its own share.  Called
        once per job after its host loop ends, so whatever happened
        between two jobs (a worker killed while idle) lands on the next
        one, and a fresh fleet's first job sees everything since spawn.
        """
        sup = self.supervisor
        if sup is None:
            raise RuntimeError("fleet not started")
        now = {
            "supervisor.restarts": sup.workers_restarted,
            "supervisor.workers_lost": sup.workers_lost,
            **{k: int(v) for k, v in self.transport.stats.items()},
        }
        mark, self._job_mark = self._job_mark, now
        return {k: v - mark.get(k, 0) for k, v in now.items()}

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop workers, drain control queues, tear the transport down."""
        # Atomic test-and-set: the service can race its own failure
        # teardown against close(), and only one caller may proceed to
        # join/terminate/unlink below.
        with self._lock:
            if self._closed:
                return
            self._closed = True
            controls = list(self._controls.values())
            last_seq = self._job_seq
        self.stop_evt.set()
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
        # then tear down the transport (unlinks the shm rings/mailboxes).
        with self._lock:
            all_controls = list(self._all_controls)
        for control in all_controls:
            try:
                while True:
                    control.get_nowait()
            except (queue_mod.Empty, OSError, EOFError):
                pass
        try:
            while True:
                self._ack_q.get_nowait()
        except (queue_mod.Empty, OSError, EOFError):
            pass
        self.transport.drain()
        self.transport.close()
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

    Frames from *other* jobs — a previous job's results still in flight
    after a re-arm — only feed the liveness clock; their solutions,
    counters and events are dropped (absorbing a stale job's solution
    into a different problem's pool would be wrong, not merely stale).
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
        self._results = 0
        self._polled: int | None = None  # worker whose result awaits Step 4

    @property
    def healthy_ids(self) -> list[int]:
        return self._supervisor.healthy_ids

    def put(self, device: int, targets: np.ndarray) -> None:
        ch = self._supervisor.target_channel(device)
        if ch is None:  # lost: nobody reads this channel any more
            return
        ch.put(targets)
        if device == self._polled:  # Step 4's answer to its last result
            self._polled = None
            if self.bus.enabled:
                self.bus.emit(
                    "host.queue",
                    device=device,
                    results_queued=self.fleet.transport.result_backlog(device),
                )

    def poll(self, timeout: float) -> ResultBatch | None:
        batch = self.fleet.transport.poll(timeout=timeout)
        if batch is None:
            return None
        wid = batch.worker_id
        batch_seq, batch_inc = decode_token(batch.incarnation)
        fresh = self._supervisor.note_result(wid, batch_inc)
        if batch_seq != self.job_seq:
            return None
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
        if self.bus.enabled:  # bundles that landed after the last poll
            self.fleet.relay_events(self.bus, self.job_seq)
        return self.fleet.take_job_stats()
