"""Shared-memory host↔device exchange rings (paper Figure 5, §3.3).

In the paper the target buffer and the solution buffer are preallocated
arrays in GPU global memory; a *global counter* advanced by the devices
tells the host how many solutions have been stored, and the host polls
it with ``cudaMemcpyAsync`` without ever stopping the kernels.  This
module is the process-mode realization of those buffers.  Each worker
gets one ``multiprocessing.shared_memory`` segment per job, laid out
``[mailbox | ring]`` with the ring at the next multiple of 64 bytes
(:func:`ring_offset`), so every int64 word is aligned.  The two
buffers are plain views over ``(buf, offset)``, each with a static
``size`` and a ``release`` that drops its arrays before the segment
closes:

- :class:`TargetMailbox` — a double-buffered target slot.  The host
  *publishes* a whole ``(B, n)`` target batch (bit-packed) under a
  seqlock: payload first, then the generation counter.  A worker
  *fetches* the freshest generation without locks; a torn read is
  detected by re-reading the counter and retried.  Like the paper's
  target buffer, only the newest batch matters — a slow worker simply
  skips generations.
- :class:`SolutionRing` — a single-producer single-consumer ring of
  result records.  Each slot carries the per-block best energies, the
  bit-packed best solutions, and the worker's cumulative counters;
  ``head``/``tail`` are the global counters of Figure 5.  The producer
  blocks (with a stall counter) only when the host has fallen a full
  ring behind.
- :class:`ShmHostTransport` — the host side of one job, which
  :meth:`~repro.abs.fleet.WorkerFleet.arm_job` builds for the job's
  size: it creates and unlinks one segment per worker, and offers
  per-worker target ``channels`` with ``put``, a picklable
  ``worker_ref``, the worker's ``bells``, a ``poll`` for the next
  :class:`ResultBatch`, ``result_backlog``, ``end_job``, ``describe``,
  ``close``, and byte statistics.
- :class:`ShmWorkerEndpoint` — the worker-side counterpart, which
  attaches its segment once from a ``worker_ref``.

**Doorbells.**  The paper's host polls the device's global counter and
its kernels never stop.  Here host and workers share CPU cores, so
nobody spins on a counter: every store that a peer may be waiting for
is followed by a *ring* of that peer's bell (a counting semaphore the
fleet creates, one per worker plus one shared by the host).  A target
publish rings the worker's bell, a result write rings the host bell,
and a consume rings the producer's bell, because a ring slot is free.
A waiter checks the shared state, blocks in ``acquire`` for at most
:data:`_BELL_TIMEOUT`, drains any further rings without blocking, and
checks again.  Ringing only after the store is what makes a lost
wakeup impossible (:mod:`repro.analysis.interleave` explores it); the
timeout is a fallback that only matters when a peer dies between its
store and its ring.  When a job ends the host sets the mailbox's
*job-over* word and rings every worker bell, so a worker blocked in a
target wait or a full-ring stall returns to its control loop at once.

Solutions cross the boundary bit-packed (:func:`~repro.abs.buffers.
pack_solutions`, 8× smaller) — the analogue of the paper packing 32
solution bits per register word.  Telemetry events are variable-sized
Python objects, so they take a side queue (the fleet's, shared by
every job) and only when telemetry is enabled; the search path never
depends on them.

Correctness notes: the seqlock writer never touches the slot it last
published (generation ``g`` lives in slot ``g % 2``), so a reader that
saw a stable generation counter read a consistent payload.  The ring
is strictly SPSC — the producer owns ``head``, the consumer ``tail``.
Segments belong to one job and are never shared across jobs.  Worker
restarts within a job (see :mod:`repro.abs.supervisor`) re-attach the
same segment: the mailbox stamps each publish with an *epoch* (the worker
incarnation it is meant for) so a replacement ignores its
predecessor's targets, and every ring record carries the producer's
incarnation so the host can tell stale results from fresh ones.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Any

import numpy as np

from repro.abs.buffers import pack_solutions, packed_length, unpack_solutions

#: Transport names accepted by ``AbsConfig.exchange`` / ``REPRO_EXCHANGE``.
EXCHANGE_NAMES = ("shm",)

#: Explicit wire dtypes for everything that crosses the process
#: boundary (the ring and mailbox views).  Pinned little-endian so the
#: layout is identical on every platform — a bare ``np.int64`` view
#: would silently flip byte order on a big-endian host.
#: ``tests/abs/test_exchange.py`` pins these.
WIRE_I64 = np.dtype("<i8")
WIRE_U8 = np.dtype("u1")

#: Result slots per worker ring.  The host absorbs much faster than a
#: worker produces, so a short ring suffices; a full ring only means
#: the producer waits for a consume (counted in
#: ``exchange.publish_stalls``).
DEFAULT_RING_SLOTS = 4

#: Cumulative worker counters shipped in the fixed-width ring meta
#: record, in wire order: the keys of ``DeviceSimulator.totals()``
#: (``tests/abs/test_device_sim.py`` pins the match).
ENGINE_COUNTER_KEYS = (
    "engine.flips",
    "engine.evaluated",
    "engine.delta_updates",
    "engine.straight_flips",
    "engine.local_flips",
    "engine.straight_retirements",
    "adapt.reassignments",
    "adapt.nonfinite_observations",
    "variant.tabu_steps",
)

# Ring meta record layout (int64 slots).
_META_SLOTS = 16
_M_INCARNATION = 0
_M_COUNT = 1
_M_COUNTERS = 2  # ..., one slot per ENGINE_COUNTER_KEYS entry
_M_PUBLISH_STALLS = _M_COUNTERS + len(ENGINE_COUNTER_KEYS)
_M_TARGET_WAITS = _M_PUBLISH_STALLS + 1
_M_TARGET_WAIT_NS = _M_TARGET_WAITS + 1
assert _M_TARGET_WAIT_NS < _META_SLOTS

# Mailbox/ring header layout (int64 slots).
_HEADER_SLOTS = 4
_H_SEQ = 0  # mailbox: generation counter; ring: head (producer-owned)
_H_EPOCH = 1  # mailbox: incarnation of the latest publish; ring: tail
_H_OVER = 2  # mailbox: nonzero once the host ended the job

#: Alignment of the ring inside a worker's segment, in bytes.
_SEGMENT_ALIGN = 64

#: Longest single block on a bell, in seconds.  Every store is followed
#: by a ring, so a wait that runs this long means a peer died between
#: its store and its ring, or the waiter's stop condition changed
#: (``stop_evt``) without one.
_BELL_TIMEOUT = 0.05


def _await_ring(bell: Any, timeout: float) -> bool:
    """Block on ``bell`` for up to ``timeout`` s, then drain further rings.

    Returns whether a ring arrived.  The caller re-checks the shared
    state afterwards: every ring drained here came after a store that
    the re-check will see.
    """
    rang = bell.acquire(True, timeout)
    if rang:
        while bell.acquire(False):
            pass
    return rang


def resolve_exchange(value: str | None) -> str:
    """Resolve the process-mode transport name.

    Explicit config beats the ``REPRO_EXCHANGE`` environment variable;
    unset, the default is ``"shm"`` (the Figure-5 rings), which is also
    the only name accepted.
    """
    if value is None:
        value = os.environ.get("REPRO_EXCHANGE") or "shm"
    if value not in EXCHANGE_NAMES:
        raise ValueError(
            f"unknown exchange transport {value!r} "
            f"(use one of: {', '.join(EXCHANGE_NAMES)})"
        )
    return value


@dataclass
class ResultBatch:
    """One worker round's results, as handed to the host loop.

    ``energies`` is the per-block best energy vector, ``x`` the matching
    ``(B, n)`` unpacked solution matrix; ``counters`` are the worker's
    *cumulative* totals for its current incarnation (the host
    reconciles deltas), ``engine.evaluated`` and ``engine.flips``
    among them.
    """

    worker_id: int
    incarnation: int
    energies: np.ndarray
    x: np.ndarray
    counters: dict[str, int] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Shared-memory views
# ----------------------------------------------------------------------
class TargetMailbox:
    """Double-buffered target batch in shared memory (host → worker).

    A view over ``buf`` from byte ``offset`` on: an int64 header
    ``[generation, epoch, job_over, …]`` followed by two bit-packed
    ``(n_blocks, ⌈n/8⌉)`` payload slots.  Generation ``g`` is published
    into slot ``g % 2``, so the slot of the *current* generation is
    never overwritten by the next publish — the seqlock reader only
    needs to re-check the generation counter after copying the payload.
    Fresh memory reads as zeros, which is the empty mailbox.
    """

    def __init__(self, buf: Any, offset: int, n_blocks: int, n: int) -> None:
        self.n_blocks = int(n_blocks)
        self.n = int(n)
        self._header = np.ndarray(
            (_HEADER_SLOTS,), dtype=WIRE_I64, buffer=buf, offset=offset
        )
        self._slots = np.ndarray(
            (2, self.n_blocks, packed_length(n)),
            dtype=WIRE_U8,
            buffer=buf,
            offset=offset + _HEADER_SLOTS * 8,
        )

    @staticmethod
    def size(n_blocks: int, n: int) -> int:
        """Bytes the view spans."""
        return _HEADER_SLOTS * 8 + 2 * n_blocks * packed_length(n)

    def release(self) -> None:
        """Drop the arrays, so the mapping under them can close."""
        self._header = None  # type: ignore[assignment]
        self._slots = None  # type: ignore[assignment]

    @property
    def generation(self) -> int:
        """Latest published generation (0 before the first publish)."""
        return int(self._header[_H_SEQ])

    @property
    def job_over(self) -> bool:
        """Whether the host has ended this mailbox's job."""
        return bool(self._header[_H_OVER])

    def end_job(self) -> None:
        """Host side: tell the worker this job's traffic is over."""
        self._header[_H_OVER] = 1

    def publish(self, targets: np.ndarray, epoch: int) -> int:
        """Host side: publish a fresh ``(n_blocks, n)`` target batch.

        ``epoch`` is the worker incarnation the batch is meant for;
        a replacement worker skips batches published for its
        predecessor.  Returns the new generation number.
        """
        targets = np.asarray(targets, dtype=WIRE_U8)
        if targets.shape != (self.n_blocks, self.n):
            raise ValueError(
                f"targets must have shape ({self.n_blocks}, {self.n}), "
                f"got {targets.shape}"
            )
        gen = int(self._header[_H_SEQ]) + 1
        self._slots[gen % 2, :, :] = pack_solutions(targets)
        self._header[_H_EPOCH] = int(epoch)
        # The generation counter is written last: a reader that sees it
        # knows the payload (in the other slot than the previous
        # generation's) is complete.
        self._header[_H_SEQ] = gen
        return gen

    def fetch(self, last_gen: int, epoch: int) -> tuple[int, np.ndarray] | None:
        """Worker side: the freshest batch newer than ``last_gen``.

        Returns ``(generation, targets)`` or ``None`` when nothing new
        has been published for this ``epoch``.  Lock-free: a read that
        races a publish is detected by the generation counter changing
        and retried.
        """
        while True:
            gen = int(self._header[_H_SEQ])
            if gen <= last_gen or gen == 0:
                return None
            pub_epoch = int(self._header[_H_EPOCH])
            payload = self._slots[gen % 2].copy()
            if int(self._header[_H_SEQ]) != gen:
                continue  # torn read: a newer publish landed mid-copy
            if pub_epoch != epoch:
                # Published for another incarnation (stale targets from
                # before a restart): not ours, and nothing newer yet.
                return None
            return gen, unpack_solutions(payload, self.n)


class SolutionRing:
    """SPSC result ring in shared memory (worker → host).

    A view over ``buf`` from byte ``offset`` on: an int64 header
    ``[head, tail, …]`` followed by ``slots`` fixed-size records, each
    ``(meta int64[16], energies int64[B], packed uint8[B × ⌈n/8⌉])``.
    ``head`` is advanced only by the producer (after the record is
    fully written), ``tail`` only by the consumer — the paper's global
    counter, split per direction.  Fresh memory reads as zeros, which
    is the empty ring.
    """

    def __init__(
        self, buf: Any, offset: int, n_blocks: int, n: int, slots: int
    ) -> None:
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        self.n_blocks = int(n_blocks)
        self.n = int(n)
        self.slots = int(slots)
        self._header = np.ndarray(
            (_HEADER_SLOTS,), dtype=WIRE_I64, buffer=buf, offset=offset
        )
        offset += _HEADER_SLOTS * 8
        self._meta = np.ndarray(
            (self.slots, _META_SLOTS), dtype=WIRE_I64, buffer=buf, offset=offset
        )
        offset += self.slots * _META_SLOTS * 8
        self._energies = np.ndarray(
            (self.slots, self.n_blocks), dtype=WIRE_I64, buffer=buf, offset=offset
        )
        offset += self.slots * self.n_blocks * 8
        self._packed = np.ndarray(
            (self.slots, self.n_blocks, packed_length(n)),
            dtype=WIRE_U8,
            buffer=buf,
            offset=offset,
        )

    @staticmethod
    def size(n_blocks: int, n: int, slots: int) -> int:
        """Bytes the view spans."""
        return (
            _HEADER_SLOTS * 8
            + slots * _META_SLOTS * 8
            + slots * n_blocks * 8
            + slots * n_blocks * packed_length(n)
        )

    def release(self) -> None:
        """Drop the arrays, so the mapping under them can close."""
        self._header = None  # type: ignore[assignment]
        self._meta = None  # type: ignore[assignment]
        self._energies = None  # type: ignore[assignment]
        self._packed = None  # type: ignore[assignment]

    def backlog(self) -> int:
        """Records written but not yet consumed."""
        return int(self._header[_H_SEQ]) - int(self._header[_H_EPOCH])

    def is_full(self) -> bool:
        return self.backlog() >= self.slots

    def write(
        self,
        meta_values: "np.ndarray | list[int]",
        energies: np.ndarray,
        packed: np.ndarray,
    ) -> None:
        """Producer side: store one record and advance ``head``.

        The caller must have checked :meth:`is_full` (SPSC: only this
        process writes ``head``, so the check cannot race).
        """
        head = int(self._header[_H_SEQ])
        if head - int(self._header[_H_EPOCH]) >= self.slots:
            raise RuntimeError("ring full — call is_full() before write()")
        s = head % self.slots
        meta = self._meta[s]
        meta[:] = 0
        meta[: len(meta_values)] = meta_values
        self._energies[s, :] = energies
        self._packed[s, :, :] = packed
        self._header[_H_SEQ] = head + 1  # record complete → visible

    def consume(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Consumer side: the oldest unread record, or ``None``.

        Returns copies of ``(meta, energies, packed)`` and advances
        ``tail``, freeing the slot for the producer.
        """
        tail = int(self._header[_H_EPOCH])
        if int(self._header[_H_SEQ]) == tail:
            return None
        s = tail % self.slots
        record = (
            self._meta[s].copy(),
            self._energies[s].copy(),
            self._packed[s].copy(),
        )
        self._header[_H_EPOCH] = tail + 1
        return record


def ring_offset(n_blocks: int, n: int) -> int:
    """Where the ring starts in a worker's ``[mailbox | ring]`` segment.

    The mailbox's size is not a multiple of 8 in general, so the ring
    starts at the next multiple of :data:`_SEGMENT_ALIGN`: the seqlock
    and the ring rely on aligned 8-byte stores not being torn.
    """
    size = TargetMailbox.size(n_blocks, n)
    return -(-size // _SEGMENT_ALIGN) * _SEGMENT_ALIGN


def segment_size(n_blocks: int, n: int) -> int:
    """Bytes of one worker's ``[mailbox | ring]`` segment."""
    return ring_offset(n_blocks, n) + SolutionRing.size(
        n_blocks, n, DEFAULT_RING_SLOTS
    )


def segment_views(
    buf: Any, n_blocks: int, n: int
) -> tuple[TargetMailbox, SolutionRing]:
    """The mailbox and the ring over one worker's segment ``buf``."""
    return (
        TargetMailbox(buf, 0, n_blocks, n),
        SolutionRing(buf, ring_offset(n_blocks, n), n_blocks, n, DEFAULT_RING_SLOTS),
    )


# ----------------------------------------------------------------------
# Host side
# ----------------------------------------------------------------------
class _MailboxTargetChannel:
    """Host-side handle for one worker's mailbox and bell."""

    def __init__(
        self, mailbox: TargetMailbox, stats: dict[str, int], bell: Any
    ) -> None:
        self._mailbox = mailbox
        self._stats = stats
        self._bell = bell

    def put(self, targets: np.ndarray, epoch: int) -> None:
        """Publish ``targets`` for the worker incarnation ``epoch``."""
        self._mailbox.publish(targets, epoch)
        self._bell.release()  # after the generation store it announces
        self._stats["exchange.targets_published"] += 1
        self._stats["exchange.packs"] += 1
        self._stats["exchange.bytes_to_device"] += (
            self._mailbox.n_blocks * packed_length(self._mailbox.n)
        )


class ShmHostTransport:
    """Host side of one job's exchange: Figure-5 rings in shared memory.

    ``worker_bells`` (one per worker) and ``host_bell`` are the fleet's
    doorbells; a transport built without them makes private ones, which
    serve endpoints in this process only.
    """

    name = "shm"

    def __init__(
        self,
        n_workers: int,
        n_blocks: int,
        n: int,
        *,
        worker_bells: list[Any] | None = None,
        host_bell: Any = None,
    ) -> None:
        self.n_workers = int(n_workers)
        self.n_blocks = int(n_blocks)
        self.n = int(n)
        self.stats = {
            "exchange.targets_published": 0,
            "exchange.results_consumed": 0,
            "exchange.bytes_to_device": 0,
            "exchange.bytes_from_device": 0,
            "exchange.packs": 0,
            "exchange.unpacks": 0,
        }
        if worker_bells is None:
            worker_bells = [threading.Semaphore(0) for _ in range(n_workers)]
        self._worker_bells = list(worker_bells)
        self._host_bell = host_bell if host_bell is not None else threading.Semaphore(0)
        #: Host waits that ran to the full :data:`_BELL_TIMEOUT` unrung.
        self.bell_timeouts = 0
        # One segment per worker, laid out [mailbox | ring]; a fresh
        # segment reads as zeros, so both start empty.
        self._segments = [
            shared_memory.SharedMemory(create=True, size=segment_size(n_blocks, n))
            for _ in range(n_workers)
        ]
        views = [segment_views(seg.buf, n_blocks, n) for seg in self._segments]
        self._mailboxes = [box for box, _ in views]
        self._rings = [ring for _, ring in views]
        #: Per-worker target channels (indexed by worker id).
        self.channels = [
            _MailboxTargetChannel(box, self.stats, bell)
            for box, bell in zip(self._mailboxes, self._worker_bells)
        ]
        self._rr = 0  # round-robin fairness cursor over worker rings

    def worker_ref(self, worker_id: int) -> tuple[str, int, int]:
        """What :class:`ShmWorkerEndpoint` attaches from (picklable):
        ``(segment name, n_blocks, n)``."""
        return (self._segments[worker_id].name, self.n_blocks, self.n)

    def bells(self, worker_id: int) -> tuple[Any, Any]:
        """``(worker bell, host bell)``: the endpoint's ``bells`` argument."""
        return self._worker_bells[worker_id], self._host_bell

    def _consume_next(self) -> ResultBatch | None:
        """The next record in round-robin order over the worker rings."""
        n = self.n_workers
        for i in range(n):
            w = (self._rr + 1 + i) % n
            record = self._rings[w].consume()
            if record is None:
                continue
            self._worker_bells[w].release()  # a ring slot is free
            self._rr = w
            meta, energies, packed = record
            count = int(meta[_M_COUNT])
            xs = unpack_solutions(packed[:count], self.n)
            counters = {
                key: int(meta[_M_COUNTERS + j])
                for j, key in enumerate(ENGINE_COUNTER_KEYS)
            }
            counters["exchange.publish_stalls"] = int(meta[_M_PUBLISH_STALLS])
            counters["exchange.target_waits"] = int(meta[_M_TARGET_WAITS])
            counters["exchange.target_wait_ns"] = int(meta[_M_TARGET_WAIT_NS])
            self.stats["exchange.results_consumed"] += 1
            self.stats["exchange.unpacks"] += 1
            self.stats["exchange.bytes_from_device"] += energies.nbytes + packed.nbytes
            return ResultBatch(
                worker_id=w,
                incarnation=int(meta[_M_INCARNATION]),
                energies=energies[:count],
                x=xs,
                counters=counters,
            )
        return None

    def poll(self, timeout: float) -> ResultBatch | None:
        """The next result, waiting on the host bell for up to ``timeout`` s."""
        deadline = time.monotonic() + timeout
        while True:
            batch = self._consume_next()
            if batch is not None:
                return batch
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            wait = min(remaining, _BELL_TIMEOUT)
            if not _await_ring(self._host_bell, wait) and wait == _BELL_TIMEOUT:
                self.bell_timeouts += 1

    def end_job(self) -> None:
        """Mark every mailbox's job over and ring every worker bell.

        A worker blocked in a target wait or a full-ring stall returns
        to its control loop; one that is running a round stops after
        it.  Idempotent.
        """
        for box, bell in zip(self._mailboxes, self._worker_bells):
            box.end_job()
            bell.release()

    def result_backlog(self, worker_id: int) -> int:
        """Result records the worker has written but the host not read."""
        return self._rings[worker_id].backlog()

    def describe(self) -> dict[str, int | str]:
        pn = packed_length(self.n)
        return {
            "transport": self.name,
            "workers": self.n_workers,
            "ring_slots": DEFAULT_RING_SLOTS,
            "target_slot_bytes": self.n_blocks * pn,
            "result_slot_bytes": _META_SLOTS * 8
            + self.n_blocks * 8
            + self.n_blocks * pn,
        }

    def close(self) -> None:
        """Release the views, then close and unlink every segment."""
        for box, ring, seg in zip(self._mailboxes, self._rings, self._segments):
            box.release()
            ring.release()
            seg.close()
            try:
                seg.unlink()
            except FileNotFoundError:  # already unlinked
                pass


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class ShmWorkerEndpoint:
    """Worker side of one job's exchange, attached from a ``worker_ref``.

    ``events_q`` is the fleet's telemetry side queue; event bundles go
    onto it tagged ``(worker_id, job_seq, incarnation)``.  ``bells`` is
    ``(this worker's bell, the host bell)`` from the fleet; without
    them the endpoint rings and waits on private bells nobody else
    holds, so its waits end only on their timeout.
    """

    def __init__(
        self,
        ref: tuple,
        events_q: Any,
        *,
        worker_id: int,
        job_seq: int,
        incarnation: int,
        stop_evt: Any,
        bells: tuple[Any, Any] | None = None,
    ) -> None:
        name, n_blocks, n = ref
        self._segment = shared_memory.SharedMemory(name=name)
        self._mailbox, self._ring = segment_views(self._segment.buf, n_blocks, n)
        self._events_q = events_q
        self._tag = (int(worker_id), int(job_seq), int(incarnation))
        self._incarnation = int(incarnation)
        self._stop_evt = stop_evt
        if bells is None:
            bells = (threading.Semaphore(0), threading.Semaphore(0))
        self._bell, self._host_bell = bells
        self._last_gen = 0
        self._publish_stalls = 0
        self._target_waits = 0
        self._target_wait_ns = 0
        #: Waits that ran to the full :data:`_BELL_TIMEOUT` unrung.
        self.bell_timeouts = 0

    def stopping(self) -> bool:
        """Whether the host ended this job or the fleet is stopping."""
        return self._mailbox.job_over or self._stop_evt.is_set()

    def _wait(self) -> None:
        if not _await_ring(self._bell, _BELL_TIMEOUT):
            self.bell_timeouts += 1

    def fetch_targets(self, *, wait: bool) -> np.ndarray | None:
        """The freshest targets not seen yet; ``wait`` blocks for them
        until they arrive or :meth:`stopping` turns true."""
        got = self._mailbox.fetch(self._last_gen, self._incarnation)
        if got is None and wait and not self.stopping():
            self._target_waits += 1
            t0 = time.perf_counter_ns()
            while got is None and not self.stopping():
                self._wait()
                got = self._mailbox.fetch(self._last_gen, self._incarnation)
            self._target_wait_ns += time.perf_counter_ns() - t0
        if got is None:
            return None
        self._last_gen, targets = got
        return targets

    def publish(
        self,
        energies: np.ndarray,
        x: np.ndarray,
        counters: dict[str, int],
        events: list,
    ) -> bool:
        """Ship one round's results; ``False`` when the ring stayed full
        until :meth:`stopping` turned true."""
        stalled = False
        while self._ring.is_full():
            if self.stopping():
                return False
            if not stalled:
                self._publish_stalls += 1
                stalled = True
            self._wait()
        meta = np.zeros(_META_SLOTS, dtype=WIRE_I64)
        meta[_M_INCARNATION] = self._incarnation
        meta[_M_COUNT] = len(energies)
        for j, key in enumerate(ENGINE_COUNTER_KEYS):
            meta[_M_COUNTERS + j] = int(counters.get(key, 0))
        meta[_M_PUBLISH_STALLS] = self._publish_stalls
        meta[_M_TARGET_WAITS] = self._target_waits
        meta[_M_TARGET_WAIT_NS] = self._target_wait_ns
        self._ring.write(
            meta, np.asarray(energies, dtype=WIRE_I64), pack_solutions(x)
        )
        self._host_bell.release()  # after the head advance it announces
        if events:
            self._events_q.put((*self._tag, events))
        return True

    def close(self) -> None:
        self._mailbox.release()
        self._ring.release()
        self._segment.close()
