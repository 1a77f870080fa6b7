"""Shared-memory host↔device exchange rings (paper Figure 5, §3.3).

In the paper the target buffer and the solution buffer are preallocated
arrays in GPU global memory; a *global counter* advanced by the devices
tells the host how many solutions have been stored, and the host polls
it with ``cudaMemcpyAsync`` without ever stopping the kernels.  This
module is the process-mode realization of those buffers:

- :class:`TargetMailbox` — a double-buffered target slot per worker in
  ``multiprocessing.shared_memory``.  The host *publishes* a whole
  ``(B, n)`` target batch (bit-packed) under a seqlock: payload first,
  then the generation counter.  A worker *fetches* the freshest
  generation without locks; a torn read is detected by re-reading the
  counter and retried.  Like the paper's target buffer, only the
  newest batch matters — a slow worker simply skips generations.
- :class:`SolutionRing` — a single-producer single-consumer ring of
  result records per worker.  Each slot carries the per-block best
  energies, the bit-packed best solutions, and the worker's cumulative
  counters; ``head``/``tail`` are the global counters of Figure 5.
  The producer blocks (briefly, with a stall counter) only when the
  host has fallen a full ring behind.
- :class:`ShmHostTransport` — the host side of one job, which
  :meth:`~repro.abs.fleet.WorkerFleet.arm_job` builds for the job's
  size: one mailbox and one ring per worker, per-worker target
  ``channels`` with ``put``, a picklable ``worker_ref``, a ``poll``
  for the next :class:`ResultBatch`, ``result_backlog``,
  ``describe``, ``close``, and byte statistics.
- :class:`ShmWorkerEndpoint` — the worker-side counterpart, attached
  from a ``worker_ref``.

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
restarts within a job (see :mod:`repro.abs.supervisor`) reuse them:
the mailbox stamps each publish with an *epoch* (the worker
incarnation it is meant for) so a replacement ignores its
predecessor's targets, and every ring record carries the producer's
incarnation so the host can tell stale results from fresh ones.
"""

from __future__ import annotations

import os
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
#: the producer naps (counted in ``exchange.publish_stalls``).
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
assert _M_TARGET_WAITS < _META_SLOTS

# Mailbox/ring header layout (int64 slots).
_HEADER_SLOTS = 4
_H_SEQ = 0  # mailbox: generation counter; ring: head (producer-owned)
_H_EPOCH = 1  # mailbox: incarnation of the latest publish; ring: tail

#: Seconds slept while polling a counter that has not moved.
_POLL_SLEEP = 0.0005


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
# Shared-memory primitives
# ----------------------------------------------------------------------
class _ShmRegion:
    """Create/attach/close/unlink plumbing shared by mailbox and ring."""

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool) -> None:
        self._shm = shm
        self._owner = owner

    @property
    def name(self) -> str:
        return self._shm.name

    def close(self) -> None:
        """Detach this process's mapping."""
        # Views into shm.buf must be dropped before close(); subclasses
        # override _release_views for that.
        self._release_views()
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (owner only; also closes)."""
        self.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # already unlinked
                pass

    def _release_views(self) -> None:  # pragma: no cover - overridden
        pass


class TargetMailbox(_ShmRegion):
    """Double-buffered target batch in shared memory (host → worker).

    Layout: an int64 header ``[generation, epoch, …]`` followed by two
    bit-packed ``(n_blocks, ⌈n/8⌉)`` payload slots.  Generation ``g``
    is published into slot ``g % 2``, so the slot of the *current*
    generation is never overwritten by the next publish — the seqlock
    reader only needs to re-check the generation counter after copying
    the payload.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        n_blocks: int,
        n: int,
        owner: bool,
    ) -> None:
        super().__init__(shm, owner)
        self.n_blocks = int(n_blocks)
        self.n = int(n)
        self._packed_n = packed_length(n)
        self._header = np.ndarray((_HEADER_SLOTS,), dtype=WIRE_I64, buffer=shm.buf)
        self._slots = np.ndarray(
            (2, self.n_blocks, self._packed_n),
            dtype=WIRE_U8,
            buffer=shm.buf,
            offset=_HEADER_SLOTS * 8,
        )

    def _release_views(self) -> None:
        self._header = None  # type: ignore[assignment]
        self._slots = None  # type: ignore[assignment]

    @staticmethod
    def _size(n_blocks: int, n: int) -> int:
        return _HEADER_SLOTS * 8 + 2 * n_blocks * packed_length(n)

    @classmethod
    def create(cls, n_blocks: int, n: int) -> "TargetMailbox":
        shm = shared_memory.SharedMemory(create=True, size=cls._size(n_blocks, n))
        box = cls(shm, n_blocks, n, owner=True)
        box._header[:] = 0
        return box

    @property
    def descriptor(self) -> tuple[str, int, int]:
        """Picklable handle: ``(name, n_blocks, n)``."""
        return (self.name, self.n_blocks, self.n)

    @classmethod
    def attach(cls, descriptor: tuple[str, int, int]) -> "TargetMailbox":
        name, n_blocks, n = descriptor
        return cls(shared_memory.SharedMemory(name=name), n_blocks, n, owner=False)

    @property
    def generation(self) -> int:
        """Latest published generation (0 before the first publish)."""
        return int(self._header[_H_SEQ])

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


class SolutionRing(_ShmRegion):
    """SPSC result ring in shared memory (worker → host).

    Layout: an int64 header ``[head, tail, …]`` followed by ``slots``
    fixed-size records, each ``(meta int64[16], energies int64[B],
    packed uint8[B × ⌈n/8⌉])``.  ``head`` is advanced only by the
    producer (after the record is fully written), ``tail`` only by the
    consumer — the paper's global counter, split per direction.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        n_blocks: int,
        n: int,
        slots: int,
        owner: bool,
    ) -> None:
        super().__init__(shm, owner)
        self.n_blocks = int(n_blocks)
        self.n = int(n)
        self.slots = int(slots)
        self._packed_n = packed_length(n)
        offset = _HEADER_SLOTS * 8
        self._header = np.ndarray((_HEADER_SLOTS,), dtype=WIRE_I64, buffer=shm.buf)
        self._meta = np.ndarray(
            (self.slots, _META_SLOTS), dtype=WIRE_I64, buffer=shm.buf, offset=offset
        )
        offset += self.slots * _META_SLOTS * 8
        self._energies = np.ndarray(
            (self.slots, self.n_blocks), dtype=WIRE_I64, buffer=shm.buf, offset=offset
        )
        offset += self.slots * self.n_blocks * 8
        self._packed = np.ndarray(
            (self.slots, self.n_blocks, self._packed_n),
            dtype=WIRE_U8,
            buffer=shm.buf,
            offset=offset,
        )

    def _release_views(self) -> None:
        self._header = None  # type: ignore[assignment]
        self._meta = None  # type: ignore[assignment]
        self._energies = None  # type: ignore[assignment]
        self._packed = None  # type: ignore[assignment]

    @staticmethod
    def _size(n_blocks: int, n: int, slots: int) -> int:
        return (
            _HEADER_SLOTS * 8
            + slots * _META_SLOTS * 8
            + slots * n_blocks * 8
            + slots * n_blocks * packed_length(n)
        )

    @classmethod
    def create(
        cls, n_blocks: int, n: int, slots: int = DEFAULT_RING_SLOTS
    ) -> "SolutionRing":
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        shm = shared_memory.SharedMemory(
            create=True, size=cls._size(n_blocks, n, slots)
        )
        ring = cls(shm, n_blocks, n, slots, owner=True)
        ring._header[:] = 0
        return ring

    @property
    def descriptor(self) -> tuple[str, int, int, int]:
        """Picklable handle: ``(name, n_blocks, n, slots)``."""
        return (self.name, self.n_blocks, self.n, self.slots)

    @classmethod
    def attach(cls, descriptor: tuple[str, int, int, int]) -> "SolutionRing":
        name, n_blocks, n, slots = descriptor
        return cls(
            shared_memory.SharedMemory(name=name), n_blocks, n, slots, owner=False
        )

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


# ----------------------------------------------------------------------
# Host side
# ----------------------------------------------------------------------
class _MailboxTargetChannel:
    """Host-side handle for one worker's mailbox."""

    def __init__(self, mailbox: TargetMailbox, stats: dict[str, int]) -> None:
        self._mailbox = mailbox
        self._stats = stats

    def put(self, targets: np.ndarray, epoch: int) -> None:
        """Publish ``targets`` for the worker incarnation ``epoch``."""
        self._mailbox.publish(targets, epoch)
        self._stats["exchange.targets_published"] += 1
        self._stats["exchange.packs"] += 1
        self._stats["exchange.bytes_to_device"] += (
            self._mailbox.n_blocks * packed_length(self._mailbox.n)
        )


class ShmHostTransport:
    """Host side of one job's exchange: Figure-5 rings in shared memory."""

    name = "shm"

    def __init__(self, n_workers: int, n_blocks: int, n: int) -> None:
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
        self._mailboxes = [TargetMailbox.create(n_blocks, n) for _ in range(n_workers)]
        self._rings = [SolutionRing.create(n_blocks, n) for _ in range(n_workers)]
        #: Per-worker target channels (indexed by worker id).
        self.channels = [_MailboxTargetChannel(box, self.stats) for box in self._mailboxes]
        self._rr = 0  # round-robin fairness cursor over worker rings

    def worker_ref(self, worker_id: int) -> tuple:
        """What :class:`ShmWorkerEndpoint` attaches from (picklable)."""
        return (self._mailboxes[worker_id].descriptor, self._rings[worker_id].descriptor)

    def poll(self, timeout: float) -> ResultBatch | None:
        deadline = time.monotonic() + timeout
        n = self.n_workers
        while True:
            for i in range(n):
                w = (self._rr + 1 + i) % n
                record = self._rings[w].consume()
                if record is None:
                    continue
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
                self.stats["exchange.results_consumed"] += 1
                self.stats["exchange.unpacks"] += 1
                self.stats["exchange.bytes_from_device"] += (
                    energies.nbytes + packed.nbytes
                )
                return ResultBatch(
                    worker_id=w,
                    incarnation=int(meta[_M_INCARNATION]),
                    energies=energies[:count],
                    x=xs,
                    counters=counters,
                )
            if time.monotonic() >= deadline:
                return None
            time.sleep(_POLL_SLEEP)

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
        for box in self._mailboxes:
            box.unlink()
        for ring in self._rings:
            ring.unlink()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class ShmWorkerEndpoint:
    """Worker side of one job's exchange, attached from a ``worker_ref``.

    ``events_q`` is the fleet's telemetry side queue; event bundles go
    onto it tagged ``(worker_id, job_seq, incarnation)``.
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
    ) -> None:
        mailbox_desc, ring_desc = ref
        self._mailbox = TargetMailbox.attach(mailbox_desc)
        self._ring = SolutionRing.attach(ring_desc)
        self._events_q = events_q
        self._tag = (int(worker_id), int(job_seq), int(incarnation))
        self._incarnation = int(incarnation)
        self._stop_evt = stop_evt
        self._last_gen = 0
        self._publish_stalls = 0
        self._target_waits = 0

    def fetch_targets(self, *, wait: bool) -> np.ndarray | None:
        got = self._mailbox.fetch(self._last_gen, self._incarnation)
        if got is None and wait:
            waited = False
            while got is None and not self._stop_evt.is_set():
                if not waited:
                    self._target_waits += 1
                    waited = True
                time.sleep(0.001)
                got = self._mailbox.fetch(self._last_gen, self._incarnation)
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
        stalled = False
        while self._ring.is_full():
            if self._stop_evt.is_set():
                return False
            if not stalled:
                self._publish_stalls += 1
                stalled = True
            time.sleep(0.001)
        meta = np.zeros(_META_SLOTS, dtype=WIRE_I64)
        meta[_M_INCARNATION] = self._incarnation
        meta[_M_COUNT] = len(energies)
        for j, key in enumerate(ENGINE_COUNTER_KEYS):
            meta[_M_COUNTERS + j] = int(counters.get(key, 0))
        meta[_M_PUBLISH_STALLS] = self._publish_stalls
        meta[_M_TARGET_WAITS] = self._target_waits
        self._ring.write(
            meta, np.asarray(energies, dtype=WIRE_I64), pack_solutions(x)
        )
        if events:
            self._events_q.put((*self._tag, events))
        return True

    def close(self) -> None:
        self._mailbox.close()
        self._ring.close()
