"""Deterministic interleaving explorer for the Figure-5 exchange buffers.

The shared-memory ``TargetMailbox`` (seqlock'd double buffer) and
``SolutionRing`` (SPSC ring) in :mod:`repro.abs.exchange` are the one
lock-free component this project owns, and their safety argument is a
store-ordering convention that unit tests can only sample.  This module
*explores* it: the real mailbox/ring views are built over a
process-local ``bytearray``, their ``publish``/``fetch``/``write``/
``consume`` bodies are re-expressed as step machines in which every
shared-memory access is one atomic step (payload stores and copies are
split into two halves so torn reads are representable), and a memoized
DFS walks the *entire* reachable state graph of one reader and one
writer — every distinct interleaving of every schedule up to ``depth``
high-level operations per actor.

Because both actors are deterministic, the state graph covers exactly
the set of observable behaviours; checking invariants at every step
therefore proves (within the explored bounds):

- **mailbox**: a successful ``fetch`` never returns a torn payload
  (both halves always belong to the same generation), generations are
  observed in strictly increasing order, and epoch filtering holds;
- **ring**: consumed records are exactly the FIFO prefix of what was
  written — no loss, no duplication, no tearing across the record's
  meta/energies/packed components, including across wraparound
  (``slots=2`` with more writes than slots forces it);
- **doorbells**: no waiter is ever left blocked on its bell while a
  write it waits for is visible — the target wait against the host's
  ``put``, and the host poll and the full-ring stall against each
  other.  The waiters do what the exchange does: check, block on a
  counting bell (its count is part of the explored state), drain the
  further rings, check again.  A state in which every actor is done
  or blocked, and one is blocked, is a lost wakeup.  The real waits
  would recover from it after their fallback timeout; the model grants
  them none.

Known, deliberate bugs can be injected (``bug=...``) to prove the
checker actually detects protocol violations; the test suite pins both
directions.  Scope and limits: ``docs/analysis.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.abs.exchange import (
    _H_EPOCH,
    _H_SEQ,
    WIRE_I64,
    SolutionRing,
    TargetMailbox,
)

__all__ = [
    "InterleaveReport",
    "InterleaveViolation",
    "explore_mailbox",
    "explore_mailbox_doorbell",
    "explore_ring",
    "explore_ring_doorbell",
    "run_all",
]

#: Worker incarnation used throughout the explored scenarios.
_EPOCH = 1


class InterleaveViolation(AssertionError):
    """An invariant broke under some interleaving (carries the schedule)."""


# --------------------------------------------------------------------------
# step-machine actors
# --------------------------------------------------------------------------

class _Actor:
    """One deterministic protocol participant, advanced one atomic step
    at a time.  All state lives in ``op``/``pc``/``locals``/``results``
    so the explorer can snapshot and restore it exactly."""

    name = "actor"

    def __init__(self, depth: int, bug: str | None = None) -> None:
        self.depth = depth
        self.bug = bug
        self.op = 0
        self.pc = 0
        self.locals: dict[str, int] = {}
        self.results: tuple = ()

    def snapshot(self) -> tuple:
        return (
            self.op,
            self.pc,
            tuple(sorted(self.locals.items())),
            self.results,
        )

    def restore(self, snap: tuple) -> None:
        self.op, self.pc, loc, self.results = snap
        self.locals = dict(loc)

    def done(self) -> bool:
        return self.op >= self.depth

    def blocked(self) -> bool:
        """Whether the actor cannot step until another one does."""
        return False

    def lost_wakeup(self) -> str:  # pragma: no cover - blocking actors only
        """What a blocked actor missed, once nobody can wake it."""
        raise NotImplementedError

    def _end_op(self, result) -> None:
        self.results = self.results + (result,)
        self.op += 1
        self.pc = 0

    def step(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


def _mailbox_payload(gen: int) -> tuple[int, int]:
    """The two deterministic payload bytes for generation ``gen``.

    The halves differ (and depend on ``gen``), so any mix of two
    generations — a torn read — fails the equality check."""
    return gen & 0xFF, (37 * gen + 11) & 0xFF


class _MailboxWriter(_Actor):
    """``TargetMailbox.publish`` with each shared access made atomic.

    Mirrors exchange.py lines: load generation; store both payload
    halves into slot ``gen % 2``; store epoch; store the sequence word
    last.  ``bug='seq_first'`` publishes the sequence word *before* the
    payload, the classic torn-write mistake the seqlock ordering exists
    to prevent."""

    name = "publish"

    def __init__(self, box: TargetMailbox, depth: int, bug: str | None = None) -> None:
        super().__init__(depth, bug)
        self.box = box

    def step(self) -> None:
        box, loc = self.box, self.locals
        seq_early = self.bug == "seq_first"
        if self.pc == 0:
            loc["gen"] = int(box._header[_H_SEQ]) + 1
            self.pc = 1
        elif self.pc == 1:
            gen = loc["gen"]
            if seq_early:
                box._header[_H_SEQ] = gen
            else:
                box._slots[gen % 2, 0, 0] = _mailbox_payload(gen)[0]
            self.pc = 2
        elif self.pc == 2:
            gen = loc["gen"]
            box._slots[gen % 2, 0, 0 if seq_early else 1] = _mailbox_payload(gen)[
                0 if seq_early else 1
            ]
            self.pc = 3
        elif self.pc == 3:
            gen = loc["gen"]
            if seq_early:
                box._slots[gen % 2, 0, 1] = _mailbox_payload(gen)[1]
                box._header[_H_EPOCH] = _EPOCH
                self._end_op(gen)
            else:
                box._header[_H_EPOCH] = _EPOCH
                self.pc = 4
        elif self.pc == 4:
            box._header[_H_SEQ] = loc["gen"]
            self._end_op(loc["gen"])


class _MailboxReader(_Actor):
    """``TargetMailbox.fetch`` as a step machine, retry loop included.

    ``bug='no_recheck'`` accepts the payload without re-checking the
    sequence word — the torn read then surfaces as a payload/generation
    mismatch, which is exactly what the checker must catch."""

    name = "fetch"

    def __init__(self, box: TargetMailbox, depth: int, bug: str | None = None) -> None:
        super().__init__(depth, bug)
        self.box = box
        self.locals = {"last_gen": 0}

    def step(self) -> None:
        box, loc = self.box, self.locals
        if self.pc == 0:
            gen = int(box._header[_H_SEQ])
            if gen <= loc["last_gen"] or gen == 0:
                self._end_op(None)  # nothing new published
                return
            loc["gen"] = gen
            self.pc = 1
        elif self.pc == 1:
            loc["pub_epoch"] = int(box._header[_H_EPOCH])
            self.pc = 2
        elif self.pc == 2:
            loc["b0"] = int(box._slots[loc["gen"] % 2, 0, 0])
            self.pc = 3
        elif self.pc == 3:
            loc["b1"] = int(box._slots[loc["gen"] % 2, 0, 1])
            self.pc = 4
        elif self.pc == 4:
            gen = loc.pop("gen")
            pub_epoch = loc.pop("pub_epoch")
            b0, b1 = loc.pop("b0"), loc.pop("b1")
            if self.bug != "no_recheck" and int(box._header[_H_SEQ]) != gen:
                self.pc = 0  # torn read detected by the protocol: retry
                return
            if pub_epoch != _EPOCH:
                self._end_op(None)
                return
            if (b0, b1) != _mailbox_payload(gen):
                raise InterleaveViolation(
                    f"torn mailbox read: generation {gen} returned payload "
                    f"({b0}, {b1}), expected {_mailbox_payload(gen)}"
                )
            if gen <= loc["last_gen"]:
                raise InterleaveViolation(
                    f"mailbox generation went backwards: {gen} after "
                    f"{loc['last_gen']}"
                )
            loc["last_gen"] = gen
            self._end_op(gen)


def _ring_energy(i: int) -> int:
    return -1000 - 7 * i


def _ring_packed(i: int) -> int:
    return (53 * i + 7) & 0xFF


class _RingProducer(_Actor):
    """``SolutionRing.write`` (plus the caller's ``is_full`` retry).

    Record ``i`` stores ``i`` into meta, ``_ring_energy(i)`` into
    energies and ``_ring_packed(i)`` into the packed payload — three
    separately-timed stores, so a record observed with mismatched
    components is a tear.  ``bug='early_head'`` advances ``head``
    before the payload is complete; ``bug='no_full_check'`` writes into
    a ring that is full, clobbering an unconsumed slot."""

    name = "write"

    def __init__(self, ring: SolutionRing, depth: int, bug: str | None = None) -> None:
        super().__init__(depth, bug)
        self.ring = ring

    def step(self) -> None:
        ring, loc = self.ring, self.locals
        early_head = self.bug == "early_head"
        if self.pc == 0:
            loc["head"] = int(ring._header[_H_SEQ])
            self.pc = 1
        elif self.pc == 1:
            # caller-side is_full() spin: re-reads tail until a slot frees
            tail = int(ring._header[_H_EPOCH])
            if loc["head"] - tail >= ring.slots and self.bug != "no_full_check":
                return  # still full; re-check on the next scheduling
            self.pc = 2
        elif self.pc == 2:
            head = loc["head"]
            if early_head:
                ring._header[_H_SEQ] = head + 1
            else:
                ring._meta[head % ring.slots, 0] = self.op + 1
            self.pc = 3
        elif self.pc == 3:
            head = loc["head"]
            if early_head:
                ring._meta[head % ring.slots, 0] = self.op + 1
            else:
                ring._energies[head % ring.slots, 0] = _ring_energy(self.op + 1)
            self.pc = 4
        elif self.pc == 4:
            head = loc["head"]
            if early_head:
                ring._energies[head % ring.slots, 0] = _ring_energy(self.op + 1)
            else:
                ring._packed[head % ring.slots, 0, 0] = _ring_packed(self.op + 1)
            self.pc = 5
        elif self.pc == 5:
            head = loc.pop("head")
            if early_head:
                ring._packed[head % ring.slots, 0, 0] = _ring_packed(self.op + 1)
            else:
                ring._header[_H_SEQ] = head + 1  # record complete → visible
            self._end_op(self.op + 1)


class _RingConsumer(_Actor):
    """``SolutionRing.consume`` as a step machine.

    Validates on every non-empty poll that the three record components
    agree (no tear) and that records arrive as the exact FIFO prefix
    ``1, 2, 3, …`` (no loss, no duplication — including wraparound)."""

    name = "consume"

    def __init__(self, ring: SolutionRing, depth: int, bug: str | None = None) -> None:
        super().__init__(depth, bug)
        self.ring = ring

    def step(self) -> None:
        ring, loc = self.ring, self.locals
        if self.pc == 0:
            loc["tail"] = int(ring._header[_H_EPOCH])
            self.pc = 1
        elif self.pc == 1:
            if int(ring._header[_H_SEQ]) == loc["tail"]:
                loc.pop("tail")
                self._end_op(None)  # empty poll
                return
            self.pc = 2
        elif self.pc == 2:
            loc["m"] = int(ring._meta[loc["tail"] % ring.slots, 0])
            self.pc = 3
        elif self.pc == 3:
            loc["e"] = int(ring._energies[loc["tail"] % ring.slots, 0])
            self.pc = 4
        elif self.pc == 4:
            loc["p"] = int(ring._packed[loc["tail"] % ring.slots, 0, 0])
            self.pc = 5
        elif self.pc == 5:
            tail = loc.pop("tail")
            m, e, p = loc.pop("m"), loc.pop("e"), loc.pop("p")
            ring._header[_H_EPOCH] = tail + 1  # release the slot
            consumed = sum(1 for r in self.results if r is not None)
            if (e, p) != (_ring_energy(m), _ring_packed(m)):
                raise InterleaveViolation(
                    f"torn ring record: meta says {m} but components are "
                    f"(energy={e}, packed={p}), expected "
                    f"({_ring_energy(m)}, {_ring_packed(m)})"
                )
            if m != consumed + 1:
                raise InterleaveViolation(
                    f"ring FIFO broken: consumed record {m} after "
                    f"{consumed} records (expected {consumed + 1})"
                )
            self._end_op(m)


# --------------------------------------------------------------------------
# doorbell actors
# --------------------------------------------------------------------------

class _Bell:
    """A counting semaphore whose count lives in the explored region.

    Only the non-blocking acquire exists: a blocking one is a waiter
    that reports :meth:`_Actor.blocked` while the count is zero."""

    def __init__(self, buf: bytearray, offset: int) -> None:
        self._count = np.ndarray((1,), dtype=WIRE_I64, buffer=buf, offset=offset)

    @property
    def count(self) -> int:
        return int(self._count[0])

    def release(self) -> None:
        self._count[0] += 1

    def try_acquire(self) -> bool:
        if self._count[0] == 0:
            return False
        self._count[0] -= 1
        return True


class _Waiter(_Actor):
    """The shared wait loop: check (pc 0, subclass), block on ``bell``
    until it rings (pc 1), drain further rings one non-blocking acquire
    at a time (pc 2), check again."""

    def __init__(self, bell: _Bell, depth: int, bug: str | None = None) -> None:
        super().__init__(depth, bug)
        self.bell = bell

    def blocked(self) -> bool:
        return self.pc == 1 and self.bell.count == 0

    def _wait_step(self) -> None:
        if self.pc == 1:
            self.bell.try_acquire()  # not blocked, so the count is > 0
            self.pc = 2
        elif not self.bell.try_acquire():  # pc 2: drained
            self.pc = 0


class _RingingPublisher(_Actor):
    """``_MailboxTargetChannel.put``: ``TargetMailbox.publish`` (payload
    and epoch in one step: the seqlock model covers their order), the
    generation store, then the worker's bell.  ``bug='ring_before_seq'``
    rings before the generation store."""

    name = "put"

    def __init__(
        self, box: TargetMailbox, bell: _Bell, depth: int, bug: str | None = None
    ) -> None:
        super().__init__(depth, bug)
        self.box = box
        self.bell = bell

    def step(self) -> None:
        box, loc = self.box, self.locals
        early = self.bug == "ring_before_seq"
        if self.pc == 0:
            gen = loc["gen"] = int(box._header[_H_SEQ]) + 1
            box._slots[gen % 2, 0, :2] = _mailbox_payload(gen)
            box._header[_H_EPOCH] = _EPOCH
            self.pc = 1
        elif self.pc == 1:
            if early:
                self.bell.release()
            else:
                box._header[_H_SEQ] = loc["gen"]
            self.pc = 2
        else:
            gen = loc.pop("gen")
            if early:
                box._header[_H_SEQ] = gen
            else:
                self.bell.release()
            self._end_op(gen)


class _TargetWaiter(_Waiter):
    """``ShmWorkerEndpoint.fetch_targets(wait=True)``, called until the
    worker has seen the publisher's last generation (``depth``).  The
    check is the real ``TargetMailbox.fetch``."""

    name = "fetch"

    def __init__(self, box: TargetMailbox, bell: _Bell, depth: int) -> None:
        super().__init__(bell, depth)
        self.box = box
        self.locals = {"last_gen": 0}

    def done(self) -> bool:
        return self.locals["last_gen"] >= self.depth

    def lost_wakeup(self) -> str:
        return (
            f"lost wakeup: the target wait is blocked on its bell, but "
            f"generation {self.box.generation} is published and unseen "
            f"(last seen {self.locals['last_gen']})"
        )

    def step(self) -> None:
        if self.pc != 0:
            self._wait_step()
            return
        got = self.box.fetch(self.locals["last_gen"], _EPOCH)
        if got is None:
            self.pc = 1
            return
        self.locals["last_gen"] = got[0]
        self._end_op(got[0])


class _RingingProducer(_Waiter):
    """``ShmWorkerEndpoint.publish``: wait on the worker's bell while
    the ring is full, store the record, advance ``head``, ring the host
    bell.  ``bug='ring_before_head'`` rings before the head advance."""

    name = "publish"

    def __init__(
        self,
        ring: SolutionRing,
        bell: _Bell,
        host_bell: _Bell,
        depth: int,
        bug: str | None = None,
    ) -> None:
        super().__init__(bell, depth, bug)
        self.ring = ring
        self.host_bell = host_bell

    def lost_wakeup(self) -> str:
        free = self.ring.slots - self.ring.backlog()
        return (
            f"lost wakeup: publish is blocked on its bell, but the ring "
            f"has {free} free slot(s)"
        )

    def step(self) -> None:
        ring = self.ring
        early = self.bug == "ring_before_head"
        i = self.op + 1
        if self.pc == 0:
            self.pc = 1 if ring.is_full() else 3
        elif self.pc in (1, 2):
            self._wait_step()
        elif self.pc == 3:
            s = int(ring._header[_H_SEQ]) % ring.slots
            ring._meta[s, 0] = i
            ring._energies[s, 0] = _ring_energy(i)
            ring._packed[s, 0, 0] = _ring_packed(i)
            self.pc = 4
        elif self.pc == 4:
            if early:
                self.host_bell.release()
            else:
                ring._header[_H_SEQ] += 1
            self.pc = 5
        else:
            if early:
                ring._header[_H_SEQ] += 1
            else:
                self.host_bell.release()
            self._end_op(i)


class _ResultWaiter(_Waiter):
    """``ShmHostTransport.poll`` over one ring: the real
    ``SolutionRing.consume`` as the check, a ring of the producer's
    bell after each consume (a slot is free), and the host bell to
    wait on.  Records must arrive in FIFO order.
    ``bug='no_consume_ring'`` leaves the producer's bell silent."""

    name = "poll"

    def __init__(
        self,
        ring: SolutionRing,
        host_bell: _Bell,
        bell: _Bell,
        depth: int,
        bug: str | None = None,
    ) -> None:
        super().__init__(host_bell, depth, bug)
        self.ring = ring
        self.producer_bell = bell

    def lost_wakeup(self) -> str:
        return (
            f"lost wakeup: the host poll is blocked on its bell with "
            f"{self.ring.backlog()} unread record(s)"
        )

    def step(self) -> None:
        if self.pc in (1, 2):
            self._wait_step()
        elif self.pc == 3:
            if self.bug != "no_consume_ring":
                self.producer_bell.release()
            self._end_op(self.locals.pop("m"))
        else:
            record = self.ring.consume()
            if record is None:
                self.pc = 1
                return
            m = int(record[0][0])
            if m != self.op + 1:
                raise InterleaveViolation(
                    f"ring FIFO broken: consumed record {m} after "
                    f"{self.op} records (expected {self.op + 1})"
                )
            self.locals["m"] = m
            self.pc = 3


# --------------------------------------------------------------------------
# the explorer
# --------------------------------------------------------------------------

@dataclass
class InterleaveReport:
    """Outcome of exhaustively exploring one structure's state graph."""

    structure: str
    depth: int
    states: int
    transitions: int
    terminals: int
    violations: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        return (
            f"{self.structure}: depth={self.depth} states={self.states} "
            f"transitions={self.transitions} terminals={self.terminals} "
            f"[{status}] {self.elapsed:.2f}s"
        )


def _explore(
    structure: str,
    depth: int,
    region: bytearray,
    actors: list[_Actor],
    max_violations: int = 3,
) -> InterleaveReport:
    """Memoized DFS over the product state graph of ``actors``.

    A state is ``(region bytes, actor snapshots)``; every enabled actor
    (not done, not blocked) is stepped from every reachable state, so
    all interleavings of all schedules are covered.  A state where no
    actor is enabled but one is blocked is reported as a lost wakeup.  Self-loop transitions (an actor spinning on
    an unchanged condition) collapse into already-visited states, which
    is what makes the retry loops finite to explore."""
    start = time.perf_counter()
    view = memoryview(region)
    initial = (bytes(region), tuple(a.snapshot() for a in actors))
    visited = {initial}
    parents: dict[tuple, tuple[tuple, str] | None] = {initial: None}
    stack = [initial]
    violations: list[str] = []
    transitions = 0
    terminals = 0

    def schedule_of(state: tuple) -> str:
        names: list[str] = []
        cursor: tuple | None = state
        while cursor is not None and parents[cursor] is not None:
            parent, actor_name = parents[cursor]  # type: ignore[misc]
            names.append(actor_name)
            cursor = parent
        names.reverse()
        text = " ".join(names)
        return text if len(text) <= 400 else "… " + text[-400:]

    while stack:
        state = stack.pop()
        mem_bytes, snaps = state
        view[:] = mem_bytes
        for actor, snap in zip(actors, snaps):
            actor.restore(snap)
        if all(a.done() or a.blocked() for a in actors):
            terminals += 1
            for actor in actors:
                if not actor.done() and len(violations) < max_violations:
                    violations.append(
                        f"{actor.lost_wakeup()} (schedule: {schedule_of(state)})"
                    )
            continue
        for idx, actor in enumerate(actors):
            view[:] = mem_bytes
            for other, snap in zip(actors, snaps):
                other.restore(snap)
            if actor.done() or actor.blocked():
                continue
            try:
                actor.step()
            except InterleaveViolation as exc:
                if len(violations) < max_violations:
                    violations.append(
                        f"{exc} (schedule: {schedule_of(state)} {actor.name})"
                    )
                continue
            transitions += 1
            new_state = (bytes(region), tuple(a.snapshot() for a in actors))
            if new_state not in visited:
                visited.add(new_state)
                parents[new_state] = (state, actor.name)
                stack.append(new_state)

    return InterleaveReport(
        structure=structure,
        depth=depth,
        states=len(visited),
        transitions=transitions,
        terminals=terminals,
        violations=violations,
        elapsed=time.perf_counter() - start,
    )


def make_mailbox(
    n_blocks: int = 1, n: int = 16, extra: int = 0
) -> tuple[TargetMailbox, bytearray]:
    """A real ``TargetMailbox`` over heap bytes (two payload bytes), and
    the bytes, with ``extra`` more after the mailbox (for bells).

    Heap bytes let the explorer snapshot and restore the whole region
    without the syscall cost of a real segment."""
    region = bytearray(TargetMailbox.size(n_blocks, n) + extra)
    return TargetMailbox(region, 0, n_blocks, n), region


def make_ring(
    n_blocks: int = 1, n: int = 8, slots: int = 2, extra: int = 0
) -> tuple[SolutionRing, bytearray]:
    """A real ``SolutionRing`` over heap bytes (one-byte payload), and
    the bytes, with ``extra`` more after the ring (for bells)."""
    region = bytearray(SolutionRing.size(n_blocks, n, slots) + extra)
    return SolutionRing(region, 0, n_blocks, n, slots), region


def explore_mailbox(depth: int = 6, bug: str | None = None) -> InterleaveReport:
    """Exhaustively interleave ``depth`` publishes against ``depth`` fetches."""
    box, region = make_mailbox()
    actors: list[_Actor] = [
        _MailboxWriter(box, depth, bug=bug if bug == "seq_first" else None),
        _MailboxReader(box, depth, bug=bug if bug == "no_recheck" else None),
    ]
    return _explore(f"TargetMailbox(bug={bug})" if bug else "TargetMailbox",
                    depth, region, actors)


def explore_ring(
    depth: int = 6, slots: int = 2, bug: str | None = None
) -> InterleaveReport:
    """Exhaustively interleave ``depth`` writes against ``depth`` consumes.

    ``slots=2`` with ``depth > 2`` forces wraparound and full-ring
    back-pressure into the explored graph."""
    ring, region = make_ring(slots=slots)
    actors: list[_Actor] = [
        _RingProducer(ring, depth,
                      bug=bug if bug in ("early_head", "no_full_check") else None),
        _RingConsumer(ring, depth),
    ]
    return _explore(f"SolutionRing(bug={bug})" if bug else "SolutionRing",
                    depth, region, actors)


def explore_mailbox_doorbell(
    depth: int = 6, bug: str | None = None
) -> InterleaveReport:
    """Exhaustively interleave ``depth`` ringing ``put`` calls against a
    target wait that must see the last of them.

    ``bug='ring_before_seq'`` rings the bell before the generation
    store."""
    box, region = make_mailbox(extra=8)
    bell = _Bell(region, TargetMailbox.size(1, 16))
    actors: list[_Actor] = [
        _RingingPublisher(box, bell, depth, bug=bug),
        _TargetWaiter(box, bell, depth),
    ]
    name = "MailboxDoorbell" + (f"(bug={bug})" if bug else "")
    return _explore(name, depth, region, actors)


def explore_ring_doorbell(
    depth: int = 6, slots: int = 2, bug: str | None = None
) -> InterleaveReport:
    """Exhaustively interleave ``depth`` ringing publishes, which wait
    on a full ring, against a host poll that must consume them all.

    ``depth > slots`` forces full-ring stalls.  ``bug='ring_before_head'``
    rings the host bell before the head advance; ``'no_consume_ring'``
    consumes without ringing the producer's bell."""
    ring, region = make_ring(slots=slots, extra=16)
    ring_size = SolutionRing.size(1, 8, slots)
    host_bell = _Bell(region, ring_size)
    bell = _Bell(region, ring_size + 8)
    actors: list[_Actor] = [
        _RingingProducer(
            ring, bell, host_bell, depth,
            bug=bug if bug == "ring_before_head" else None,
        ),
        _ResultWaiter(
            ring, host_bell, bell, depth,
            bug=bug if bug == "no_consume_ring" else None,
        ),
    ]
    name = "RingDoorbell" + (f"(bug={bug})" if bug else "")
    return _explore(name, depth, region, actors)


def run_all(depth: int = 6) -> list[InterleaveReport]:
    """Both structures and both doorbells at ``depth``
    (`repro analyze --interleave`)."""
    return [
        explore_mailbox(depth=depth),
        explore_ring(depth=depth),
        explore_mailbox_doorbell(depth=depth),
        explore_ring_doorbell(depth=depth),
    ]
