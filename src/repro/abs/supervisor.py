"""Worker supervision for the multi-process ABS solver (Figure 5 host).

The paper's premise (§3.3) is that host and devices are *mutually
asynchronous*: a device that stalls or dies must never stall the
search.  This module gives the process-mode host loop that property for
real OS processes:

- every worker is tracked for **liveness** (its process is running) and
  **progress** (it has shipped a result within ``stall_timeout``
  seconds, when a deadline is configured);
- an unhealthy worker is **restarted** up to ``max_restarts`` times.
  The replacement starts from the engine's canonical zero state and is
  rehydrated by the caller with fresh GA targets from the current pool
  — the straight-search handoff (Algorithm 5) makes the worker
  state-free by design, so nothing else needs recovering;
- when a worker's restart budget is exhausted it is marked **lost** and
  the solve degrades gracefully onto the survivors.  Only when *no*
  healthy worker remains does the caller fail the run.

The state machine lives here, decoupled from transport plumbing: the
fleet passes a ``spawn`` callable (create + start one worker process)
and a ``channel_factory(worker_id, incarnation)`` (the target channel a
given incarnation reads — a handle onto the *surviving* mailbox or
stream, stamped with that incarnation's epoch), and calls
:meth:`WorkerSupervisor.poll` from its polling loop.  Everything is
injectable (clock, spawn, channels), so the supervision logic is unit
tested without real processes.

Telemetry: ``supervisor.stall`` when a progress deadline is missed,
``supervisor.restart`` per replacement, ``supervisor.degrade`` when a
worker is abandoned — all in the machine-checked schema
(``docs/observability.md``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.telemetry.bus import NULL_BUS, NullBus, TelemetryBus

#: Seconds granted to a terminated worker process before ``kill()``.
_TERMINATE_GRACE = 1.0


@dataclass(frozen=True)
class WorkerAction:
    """One supervision decision, returned by :meth:`WorkerSupervisor.poll`.

    Attributes
    ----------
    worker_id:
        The worker the action applies to.
    kind:
        ``"restart"`` (a replacement process was spawned — the caller
        should rehydrate it with fresh targets) or ``"lost"`` (restart
        budget exhausted; the worker is permanently retired).
    reason:
        ``"died"`` (process no longer alive) or ``"stalled"`` (no
        result within the progress deadline).
    exitcode:
        The defunct process's exit code, when known.
    """

    worker_id: int
    kind: str
    reason: str
    exitcode: int | None = None


class _WorkerState:
    """Book-keeping for one worker slot (all incarnations)."""

    __slots__ = (
        "worker_id",
        "proc",
        "channel",
        "incarnation",
        "restarts_used",
        "last_progress",
        "lost",
    )

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.proc: Any = None
        self.channel: Any = None
        self.incarnation = 0
        self.restarts_used = 0
        self.last_progress = 0.0
        self.lost = False


class WorkerSupervisor:
    """Liveness/progress tracking and restart policy for worker processes.

    Parameters
    ----------
    n_workers:
        Number of worker slots (``AbsConfig.n_gpus``).
    spawn:
        ``spawn(worker_id, incarnation, channel) -> process`` — create
        and start one worker process for that incarnation; ``channel``
        is the handle ``channel_factory`` just made for it.
        The returned object needs ``is_alive()``, ``terminate()``,
        ``kill()``, ``join(timeout)``, and ``exitcode``.
    channel_factory:
        ``channel_factory(worker_id, incarnation) -> channel`` — the
        target channel that incarnation reads.  The underlying mailbox
        or stream *survives* restarts; the factory returns a handle
        bound to the new incarnation's epoch, which makes the
        replacement skip anything published for its predecessor.
    max_restarts:
        Restart budget *per worker*; 0 disables restarts entirely.
    stall_timeout:
        Progress deadline in seconds — a worker that ships no result
        for longer is treated as unhealthy.  ``None`` (default)
        disables stall detection; process death is always detected.
    bus:
        Telemetry bus for ``supervisor.*`` events (optional).
    clock:
        Monotonic time source; injectable for tests.
    """

    def __init__(
        self,
        n_workers: int,
        spawn: Callable[[int, int, Any], Any],
        *,
        channel_factory: Callable[[int, int], Any],
        max_restarts: int = 2,
        stall_timeout: float | None = None,
        bus: TelemetryBus | NullBus | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        if stall_timeout is not None and stall_timeout <= 0:
            raise ValueError(f"stall_timeout must be positive, got {stall_timeout}")
        self._spawn = spawn
        self._channel_factory = channel_factory
        self._max_restarts = int(max_restarts)
        self._stall_timeout = stall_timeout
        self._bus = bus if bus is not None else NULL_BUS
        self._clock = clock
        self._workers = [_WorkerState(g) for g in range(n_workers)]
        # Per-worker state (_workers) is externally synchronized — poll,
        # rebind, and note_result all run on the owning host loop.  The
        # ever-spawned registry is different: fleet shutdown() walks it
        # from whatever thread closes the service, concurrently with a
        # supervise-thread restart appending to it.  Scopes stay
        # call-free so no lock-order edges can form.
        self._registry_lock = threading.Lock()
        self._all_procs: list[Any] = []  # guarded-by: _registry_lock
        #: Total successful restarts across all workers.
        self.workers_restarted = 0
        #: Workers permanently retired (restart budget exhausted).
        self.workers_lost = 0
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn incarnation 0 of every worker."""
        if self._started:
            raise RuntimeError("supervisor already started")
        self._started = True
        now = self._clock()
        for st in self._workers:
            st.channel = self._channel_factory(st.worker_id, st.incarnation)
            st.proc = self._spawn(st.worker_id, st.incarnation, st.channel)
            with self._registry_lock:
                self._all_procs.append(st.proc)
            st.last_progress = now

    def target_channel(self, worker_id: int) -> Any | None:
        """Current-incarnation target channel; ``None`` once lost."""
        st = self._workers[worker_id]
        return None if st.lost else st.channel

    def rebind_channels(self) -> None:
        """Re-stamp every healthy worker's target channel in place.

        Used by the fleet when re-arming live workers with a new job:
        ``channel_factory`` is called again for each worker's current
        incarnation, and the fleet has already moved its job sequence,
        so the new handle publishes into the surviving mailbox/stream
        under the new job's epoch token.  Unlike a restart, the
        incarnation does not change and no process is spawned.
        Progress clocks are reset so a worker is not declared stalled
        for time spent idle between jobs.
        """
        if not self._started:
            raise RuntimeError("supervisor not started")
        now = self._clock()
        for st in self._workers:
            if st.lost:
                continue
            st.channel = self._channel_factory(st.worker_id, st.incarnation)
            st.last_progress = now

    def incarnation(self, worker_id: int) -> int:
        """Current incarnation number of a worker slot (0-based)."""
        return self._workers[worker_id].incarnation

    @property
    def n_healthy(self) -> int:
        """Workers not (yet) marked lost."""
        return sum(1 for st in self._workers if not st.lost)

    @property
    def healthy_ids(self) -> list[int]:
        """Worker ids not (yet) marked lost."""
        return [st.worker_id for st in self._workers if not st.lost]

    @property
    def all_processes(self) -> list[Any]:
        """Every process ever spawned (for final join/terminate)."""
        with self._registry_lock:
            return list(self._all_procs)

    # ------------------------------------------------------------------
    # Progress accounting
    # ------------------------------------------------------------------
    def note_result(self, worker_id: int, incarnation: int) -> bool:
        """Record a result arrival; returns whether it is *fresh*.

        A result is fresh when it came from the worker's current
        incarnation.  Stale results (shipped by a killed predecessor,
        still sitting in its ring or stream) are safe to *absorb* — any
        solution is a valid solution — but must not reset the
        replacement's progress clock nor update its counter snapshot,
        so the caller branches on the return value.
        """
        st = self._workers[worker_id]
        if st.lost or incarnation != st.incarnation:
            return False
        st.last_progress = self._clock()
        return True

    # ------------------------------------------------------------------
    # The supervision step
    # ------------------------------------------------------------------
    def poll(self) -> list[WorkerAction]:
        """Check every worker's health; restart or retire the unhealthy.

        Called from the host polling loop (cheap: one ``is_alive`` per
        worker).  Returns the actions taken this step so the caller can
        bank the defunct incarnation's counters and rehydrate
        replacements with fresh GA targets.
        """
        if not self._started:
            raise RuntimeError("supervisor not started")
        actions: list[WorkerAction] = []
        for st in self._workers:
            if st.lost:
                continue
            now = self._clock()
            dead = not st.proc.is_alive()
            stalled = (
                not dead
                and self._stall_timeout is not None
                and now - st.last_progress > self._stall_timeout
            )
            if not dead and not stalled:
                continue
            reason = "died" if dead else "stalled"
            if stalled:
                if self._bus.enabled:
                    self._bus.emit(
                        "supervisor.stall",
                        worker=st.worker_id,
                        silent_for=now - st.last_progress,
                        stall_timeout=self._stall_timeout,
                    )
                self._reap(st.proc)
            else:
                st.proc.join(timeout=0)  # collect the zombie
            exitcode = st.proc.exitcode
            if st.restarts_used >= self._max_restarts:
                actions.append(self._retire(st, reason, exitcode))
            else:
                actions.append(self._restart(st, reason, exitcode))
        return actions

    def _restart(
        self, st: _WorkerState, reason: str, exitcode: int | None
    ) -> WorkerAction:
        st.restarts_used += 1
        st.incarnation += 1
        st.channel = self._channel_factory(st.worker_id, st.incarnation)
        st.proc = self._spawn(st.worker_id, st.incarnation, st.channel)
        with self._registry_lock:
            self._all_procs.append(st.proc)
        st.last_progress = self._clock()
        self.workers_restarted += 1
        bus = self._bus
        if bus.enabled:
            bus.emit(
                "supervisor.restart",
                worker=st.worker_id,
                reason=reason,
                incarnation=st.incarnation,
                restarts_used=st.restarts_used,
                exitcode=exitcode,
            )
        return WorkerAction(st.worker_id, "restart", reason, exitcode)

    def _retire(
        self, st: _WorkerState, reason: str, exitcode: int | None
    ) -> WorkerAction:
        st.lost = True
        self.workers_lost += 1
        bus = self._bus
        if bus.enabled:
            bus.emit(
                "supervisor.degrade",
                worker=st.worker_id,
                reason=reason,
                restarts_used=st.restarts_used,
                healthy_left=self.n_healthy,
                exitcode=exitcode,
            )
        return WorkerAction(st.worker_id, "lost", reason, exitcode)

    @staticmethod
    def _reap(proc: Any) -> None:
        """Terminate a stalled process, escalating to ``kill``."""
        proc.terminate()
        proc.join(timeout=_TERMINATE_GRACE)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=_TERMINATE_GRACE)
