"""Worker fleets: the plumbing every process-mode solve runs on.

Process mode runs one OS process per simulated GPU.  A
:class:`WorkerFleet` owns those processes, the exchange transport
(shared-memory mailboxes/rings or a TCP listener), the
:class:`~repro.abs.supervisor.WorkerSupervisor` that restarts dead or
stalled workers, and the host-side shared-memory weight segments.
Every worker runs :func:`_fleet_worker_main`: a control loop that
accepts ``WorkerJob`` frames over a per-worker control queue, re-arms
the exchange endpoint under the job's epoch token, and runs the device
rounds until the next frame (or shutdown) arrives.

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

import math
import queue as queue_mod
import threading
import time
from collections import OrderedDict
from multiprocessing import resource_tracker
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.abs.adaptive import WindowAdapter
from repro.abs.buffers import SharedWeights
from repro.abs.config import AbsConfig
from repro.abs.device import DevicePlan, DeviceSimulator
from repro.abs.exchange import (
    make_host_transport,
    open_worker_endpoint,
    resolve_exchange,
)
from repro.abs.host import Host
from repro.abs.result import SolveResult
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


def _merge_counts(into: dict[str, int], add: dict[str, int]) -> None:
    for key, value in add.items():
        into[key] = into.get(key, 0) + int(value)


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
        "exchange": resolve_exchange(cfg.exchange),
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
    adapt_params: tuple
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


def _make_adapter(
    n: int, n_blocks: int, adapt_params: tuple, bus: Any
) -> WindowAdapter | None:
    adapt_enabled, adapt_period, adapt_fraction, adapt_seed = adapt_params
    if not adapt_enabled:
        return None
    return WindowAdapter(
        n,
        n_blocks,
        period=adapt_period,
        fraction=adapt_fraction,
        seed=adapt_seed,
        bus=bus,
    )


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
    endpoint = open_worker_endpoint(
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
            n = weights.n if hasattr(weights, "n") else weights.shape[0]
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
                adapter=_make_adapter(n, job.n_blocks, job.adapt_params, relay),
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
        Problem size in bits — part of the fleet geometry (transports
        size their mailboxes/rings from it).
    exchange:
        Transport name (``None`` resolves like ``AbsConfig.exchange``).
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
        exchange: str | None = None,
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
        self.exchange = resolve_exchange(exchange)
        self.n_workers = int(n_workers)
        self.n_blocks = int(n_blocks)
        self.bus = bus if bus is not None else NULL_BUS
        self.start_method = start_method
        self.ctx = get_context(_resolve_start_method(start_method))
        self.stop_evt = self.ctx.Event()
        self.transport = make_host_transport(
            self.exchange,
            self.ctx,
            n_workers=self.n_workers,
            n_blocks=self.n_blocks,
            n=self.n,
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
        # (restarts, lost, transport stats) when the previous job ended.
        self._job_mark: tuple[int, int, dict[str, int]] = (0, 0, {})

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def params(self) -> dict[str, Any]:
        """This fleet's :func:`fleet_params`: what a job must match."""
        return {
            "n": self.n,
            "exchange": self.exchange,
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
        # cannot attach (the tcp transport creates no segment before
        # the first job).
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
        # sequence before the epoch moves — e.g. a reconnect that
        # landed after that job's host loop stopped polling.
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
        and host-transport synthetics (``exchange.reconnect``) ride the
        transport's side channel; re-emit them stamped with the worker
        id, but only for the worker's current incarnation *and this
        job* — a killed predecessor's (or a previous job's) buffered
        events would misattribute counters otherwise.
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

    def take_job_stats(self) -> tuple[int, int, dict[str, int]]:
        """``(restarts, lost, transport stats)`` since the previous call.

        The supervisor and the transport count over the fleet's
        lifetime; a job's result reports only its own share.  Called
        once per job after its host loop ends, so whatever happened
        between two jobs (a worker killed while idle, a reconnect)
        lands on the next one, and a fresh fleet's first job sees
        everything since spawn.
        """
        sup = self.supervisor
        if sup is None:
            raise RuntimeError("fleet not started")
        restarts, lost, stats = self._job_mark
        now = {k: int(v) for k, v in self.transport.stats.items()}
        self._job_mark = (sup.workers_restarted, sup.workers_lost, now)
        return (
            sup.workers_restarted - restarts,
            sup.workers_lost - lost,
            {k: v - stats.get(k, 0) for k, v in now.items()},
        )

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
        # Workers are down, so every frame they ever sent has been
        # accepted: one last relay catches bundles that arrived after
        # the host loop stopped polling (a late reconnect, the final
        # round's device events).
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
# The process-mode host loop and result assembly
# ----------------------------------------------------------------------
@dataclass
class SearchOutcome:
    """What one run of :func:`run_search_rounds` produced."""

    rounds: int = 0
    sweeps: int = 0
    engine_counts: dict[str, int] = field(default_factory=dict)
    history: list[tuple[float, int]] = field(default_factory=list)
    time_to_target: float | None = None
    was_cancelled: bool = False


def run_search_rounds(
    cfg: AbsConfig,
    host: Host,
    fleet: WorkerFleet,
    watch: Any,
    *,
    bus: TelemetryBus | NullBus,
    met_target: Callable[[float], bool],
    job_seq: int,
    cancelled: Callable[[], bool] | None = None,
) -> SearchOutcome:
    """Drive one job's host loop over an armed fleet (Figure 5 host).

    The fleet's workers must already be running the job identified by
    ``job_seq`` (armed via :meth:`WorkerFleet.arm_job`).  Publishes
    initial targets, then polls results / supervises / answers with
    fresh GA targets until a stop criterion fires.  Frames from
    *other* jobs — a previous job's results still in flight after a
    re-arm — only feed the liveness clock; their solutions, counters,
    and events are dropped (absorbing a stale job's solution into a
    different problem's pool would be wrong, not merely stale).
    """
    transport = fleet.transport
    supervisor = fleet.supervisor
    out = SearchOutcome()
    rounds_by_worker = [0] * cfg.n_gpus
    counts_by_worker: list[dict[str, int]] = [{} for _ in range(cfg.n_gpus)]
    banked_counts: dict[str, int] = {}

    def _bank(g: int) -> None:
        # Fold the defunct incarnation's cumulative totals into the
        # run totals and reset the worker's latest slot for the
        # replacement (which restarts its counters from zero).
        _merge_counts(banked_counts, counts_by_worker[g])
        counts_by_worker[g] = {}

    def _supervise() -> None:
        for action in supervisor.poll():
            _bank(action.worker_id)
            if action.kind == "restart":
                # Rehydrate the replacement from the current pool:
                # Algorithm 5 walks it from the zero state to these
                # targets, so no other worker state needs recovery.
                # (The channel is the replacement's — for the shm
                # transport it publishes under the new epoch into
                # the same surviving mailbox.)
                ch = supervisor.target_channel(action.worker_id)
                if ch is not None:
                    ch.put(host.make_targets(cfg.blocks_per_gpu, device=action.worker_id))

    def _relay_events() -> None:
        # See WorkerFleet.relay_events; the fleet also drains late
        # bundles at re-arm and shutdown so nothing is dropped.
        fleet.relay_events(bus, job_seq)

    targets = host.initial_targets(cfg.total_blocks)
    for g in range(cfg.n_gpus):
        ch = supervisor.target_channel(g)
        if ch is not None:
            lo = g * cfg.blocks_per_gpu
            ch.put(np.ascontiguousarray(targets[lo : lo + cfg.blocks_per_gpu]))

    done = False
    while not done:
        _supervise()
        batch = transport.poll(timeout=0.25)
        if batch is None:
            if cancelled is not None and cancelled():
                out.was_cancelled = True
                break
            if cfg.time_limit is not None and watch.elapsed >= cfg.time_limit:
                break
            if supervisor.n_healthy == 0:
                raise RuntimeError(
                    "all ABS workers died before finishing "
                    f"(after {supervisor.workers_restarted} restarts)"
                )
            continue
        worker_id = batch.worker_id
        batch_seq, batch_inc = decode_token(batch.incarnation)
        if batch_seq != job_seq:
            # A previous job's result still in flight: proof of life,
            # nothing else — its solutions belong to another problem.
            supervisor.note_result(worker_id, batch_inc)
            continue
        out.rounds += 1
        rounds_by_worker[worker_id] += 1
        fresh_result = supervisor.note_result(worker_id, batch_inc)
        if fresh_result:
            if bus.enabled:
                # Session counters reconcile from the cumulative
                # worker snapshots: increment by the delta since
                # the previous report of this incarnation.
                prev = counts_by_worker[worker_id]
                for key, value in batch.counters.items():
                    delta = int(value) - int(prev.get(key, 0))
                    if delta:
                        bus.counters.inc(key, delta)
            counts_by_worker[worker_id] = batch.counters
        if bus.enabled:
            bus.counters.inc("host.rounds")
            if fresh_result:
                _relay_events()
            bus.emit(
                "worker.result",
                worker=worker_id,
                round=out.rounds,
                best_energy=int(batch.energies.min()),
                evaluated=batch.counters["engine.evaluated"],
                flips=batch.counters["engine.flips"],
            )
        host.absorb_batch(batch.energies, batch.x)
        if bus.enabled:
            bus.emit(
                "host.round",
                round=out.rounds,
                device=worker_id,
                best_energy=host.best_energy,
                pool_size=len(host.pool),
                elapsed=watch.elapsed,
            )
        if math.isfinite(host.best_energy):
            out.history.append((watch.elapsed, int(host.best_energy)))
        if met_target(host.best_energy):
            if out.time_to_target is None:
                out.time_to_target = watch.elapsed
            done = True
        elif cancelled is not None and cancelled():
            out.was_cancelled = True
            done = True
        elif cfg.time_limit is not None and watch.elapsed >= cfg.time_limit:
            done = True
        elif cfg.max_rounds is not None and out.rounds >= cfg.max_rounds:
            done = True
        else:
            # Step 4: as many fresh targets as solutions arrived
            # — but never feed a channel nobody reads any more.
            ch = supervisor.target_channel(worker_id)
            if ch is not None:
                ch.put(host.make_targets(cfg.blocks_per_gpu, device=worker_id))
                if bus.enabled:
                    bus.emit(
                        "host.queue",
                        device=worker_id,
                        results_queued=transport.result_backlog(worker_id),
                    )

    if bus.enabled:
        # Late bundles — e.g. a reconnect during the final round —
        # would otherwise be dropped with the run already decided.
        _relay_events()
    out.engine_counts = dict(banked_counts)
    for wcounts in counts_by_worker:
        _merge_counts(out.engine_counts, wcounts)
    healthy = supervisor.healthy_ids
    sweep_counts = [rounds_by_worker[g] for g in healthy] or rounds_by_worker
    out.sweeps = min(sweep_counts)
    return out


def assemble_result(
    cfg: AbsConfig,
    n: int,
    host: Host,
    outcome: SearchOutcome,
    elapsed: float,
    *,
    met_target: Callable[[float], bool],
    bus: TelemetryBus | NullBus,
    extra: dict[str, int],
    restarts: int = 0,
    lost: int = 0,
    setup_ns: int = 0,
    search_ns: int = 0,
) -> SolveResult:
    """Build the :class:`SolveResult` for one run, sync or process.

    ``result.counters`` is derived from component state after the run,
    so it exists whether or not a telemetry bus was attached:
    ``outcome.engine_counts`` carries the summed device
    :meth:`~repro.abs.device.DeviceSimulator.totals` (``evaluated`` and
    ``flips`` are read from there),
    ``extra`` the mode's own, and ``pool.inserted`` includes the initial
    random seeding (Step 1 inserts at ``+∞``).  ``restarts``/``lost`` are
    *per-job* numbers (:meth:`WorkerFleet.take_job_stats`), so a
    long-lived fleet's history does not leak into every result.
    ``setup_ns``/``search_ns`` land on the result (and the session
    counters when telemetry is on) but deliberately **not** in
    ``result.counters``: that snapshot is pinned bit-identical across
    runs, transports, and telemetry on/off, and wall-clock never is.
    """
    ga = host.ga_counts
    counters = {
        "host.solutions_absorbed": host.absorbed,
        "pool.inserted": host.pool.inserted,
        "pool.rejected_duplicate": host.pool.rejected_duplicate,
        "pool.rejected_worse": host.pool.rejected_worse,
        "pool.rejected_diverse": host.pool.rejected_diverse,
        "ga.mutation": ga["mutation"],
        "ga.crossover": ga["crossover"],
        "ga.copy": ga["copy"],
        "adapt.reassignments": 0,
        **outcome.engine_counts,
        **extra,
    }
    engine = outcome.engine_counts
    best_x = host.best_x if host.best_x is not None else np.zeros(n, np.uint8)
    best_e = int(host.best_energy) if math.isfinite(host.best_energy) else 0
    if bus.enabled:
        bus.counters.inc("solver.setup_ns", setup_ns)
        bus.counters.inc("solver.search_ns", search_ns)
    return SolveResult(
        best_x=best_x,
        best_energy=best_e,
        elapsed=elapsed,
        rounds=outcome.rounds,
        sweeps=outcome.sweeps,
        evaluated=engine.get("engine.evaluated", 0),
        flips=engine.get("engine.flips", 0),
        reached_target=met_target(host.best_energy),
        time_to_target=outcome.time_to_target,
        history=outcome.history,
        n_gpus=cfg.n_gpus,
        counters=dict(sorted(counters.items())),
        workers_restarted=restarts,
        workers_lost=lost,
        pool_mean_distance=host.pool.mean_pairwise_distance(),
        setup_ns=setup_ns,
        search_ns=search_ns,
    )
