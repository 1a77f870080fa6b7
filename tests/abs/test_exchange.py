"""Unit tests for the shared-memory exchange layer (paper Figure 5).

The mailbox/ring views are exercised in-process (two attaches of one
segment within one interpreter is valid POSIX shm usage), so the seqlock,
epoch, and SPSC invariants are checked deterministically without
worker processes.  Full host↔worker integration runs in
``test_solver_process.py`` and ``test_transport_determinism.py``.
"""

import multiprocessing
import sys
import threading
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.abs.buffers import pack_solutions, packed_length, unpack_solutions
from repro.abs.exchange import (
    DEFAULT_RING_SLOTS,
    EXCHANGE_NAMES,
    WIRE_I64,
    WIRE_U8,
    ResultBatch,
    ShmHostTransport,
    ShmWorkerEndpoint,
    SolutionRing,
    TargetMailbox,
    resolve_exchange,
    ring_offset,
    segment_size,
)

pytestmark = pytest.mark.exchange_shm


def random_targets(B, n, seed=0):
    return np.random.default_rng(seed).integers(0, 2, (B, n), dtype=np.uint8)


class TestPacking:
    def test_round_trip(self):
        X = random_targets(7, 19)
        packed = pack_solutions(X)
        assert packed.shape == (7, packed_length(19))
        assert (unpack_solutions(packed, 19) == X).all()

    def test_packed_length(self):
        assert packed_length(8) == 1
        assert packed_length(9) == 2
        with pytest.raises(ValueError):
            packed_length(0)

    def test_pack_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            pack_solutions(np.zeros(8, dtype=np.uint8))


class TestResolveExchange:
    def test_default_is_shm(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXCHANGE", raising=False)
        assert resolve_exchange(None) == "shm"

    def test_env_consulted(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXCHANGE", "tcp")
        with pytest.raises(ValueError, match=r"'tcp' \(use one of: shm\)"):
            resolve_exchange(None)

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXCHANGE", "tcp")
        assert resolve_exchange("shm") == "shm"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown exchange"):
            resolve_exchange("carrier-pigeon")

    def test_names_catalog(self):
        assert EXCHANGE_NAMES == ("shm",)


def test_wire_dtypes_are_explicit_little_endian():
    """The shm rings share these dtypes; native-order
    ``np.int64`` would silently flip on a big-endian host."""
    assert WIRE_I64 == np.dtype("<i8") and WIRE_I64.byteorder in ("<", "=")
    assert np.dtype("<i8").itemsize == 8
    assert WIRE_U8 == np.dtype("u1")


def test_shm_packing_paths_use_wire_dtypes():
    """The regression for the latent-bug audit: the mailbox/ring views
    and the shm publish path must produce little-endian int64
    and plain uint8 regardless of platform defaults."""
    transport = ShmHostTransport(n_workers=1, n_blocks=1, n=8)
    try:
        box, ring = transport._mailboxes[0], transport._rings[0]
        assert box._header.dtype == WIRE_I64
        assert box._slots.dtype == WIRE_U8
        assert ring._header.dtype == WIRE_I64
        assert ring._meta.dtype == WIRE_I64
        assert ring._energies.dtype == WIRE_I64
        assert ring._packed.dtype == WIRE_U8
    finally:
        transport.close()


@pytest.mark.parametrize("B,n,mailbox_bytes", [(3, 33, 62), (1, 1, 34)])
def test_segment_layout_is_aligned(B, n, mailbox_bytes):
    """The ring starts on a 64-byte boundary after a mailbox whose size
    is not a multiple of 8, and every int64 view starts on an 8-byte
    boundary: the seqlock and the ring rely on aligned 8-byte stores
    not being torn."""
    assert TargetMailbox.size(B, n) == mailbox_bytes
    assert ring_offset(B, n) % 64 == 0
    assert ring_offset(B, n) >= mailbox_bytes
    transport = ShmHostTransport(n_workers=1, n_blocks=B, n=n)
    try:
        box, ring = transport._mailboxes[0], transport._rings[0]
        for view in (box._header, ring._header, ring._meta, ring._energies):
            assert view.ctypes.data % 8 == 0 and view.flags.aligned
        base = box._header.ctypes.data
        assert ring._header.ctypes.data - base == ring_offset(B, n)
        assert (
            ring._packed.ctypes.data + ring._packed.nbytes - base
            == segment_size(B, n)
        )
    finally:
        transport.close()


@pytest.fixture
def attached():
    """``make(View, *shape)``: a view over a fresh segment, and a second
    view over a second attach of the same segment.  Views are released
    and the segments closed and unlinked at teardown."""
    opened = []

    def make(view_cls, *shape):
        owner = shared_memory.SharedMemory(create=True, size=view_cls.size(*shape))
        peer = shared_memory.SharedMemory(name=owner.name)
        views = [view_cls(seg.buf, 0, *shape) for seg in (owner, peer)]
        opened.append((views, owner, peer))
        return views

    yield make
    for views, owner, peer in opened:
        for view in views:
            view.release()
        peer.close()
        owner.close()
        owner.unlink()


class TestTargetMailbox:
    def test_publish_fetch_round_trip(self, attached):
        box, peer = attached(TargetMailbox, 4, 21)
        assert peer.fetch(0, epoch=0) is None  # nothing published
        t = random_targets(4, 21)
        gen = box.publish(t, epoch=0)
        assert gen == 1
        got = peer.fetch(0, epoch=0)
        assert got is not None
        gen2, targets = got
        assert gen2 == 1
        assert (targets == t).all()
        # Same generation is not served twice.
        assert peer.fetch(gen2, epoch=0) is None

    def test_only_freshest_generation_served(self, attached):
        """Like the paper's target buffer: a slow worker skips straight
        to the newest batch instead of replaying stale ones."""
        box, _ = attached(TargetMailbox, 2, 16)
        old = random_targets(2, 16, seed=1)
        new = random_targets(2, 16, seed=2)
        box.publish(old, epoch=0)
        box.publish(new, epoch=0)
        gen, targets = box.fetch(0, epoch=0)
        assert gen == 2
        assert (targets == new).all()

    def test_epoch_filters_stale_targets(self, attached):
        """A publish meant for incarnation 0 is invisible to the
        restarted incarnation 1 (rings survive, targets do not)."""
        box, _ = attached(TargetMailbox, 2, 16)
        box.publish(random_targets(2, 16), epoch=0)
        assert box.fetch(0, epoch=1) is None
        box.publish(random_targets(2, 16, seed=3), epoch=1)
        got = box.fetch(0, epoch=1)
        assert got is not None and got[0] == 2

    def test_shape_validated(self, attached):
        box, _ = attached(TargetMailbox, 2, 16)
        with pytest.raises(ValueError, match="shape"):
            box.publish(random_targets(3, 16), epoch=0)

    def test_generation_slot_alternation(self, attached):
        """Generation g lands in slot g % 2 — the current generation's
        payload is never overwritten by the next publish (the seqlock
        correctness argument)."""
        box, _ = attached(TargetMailbox, 1, 8)
        a = random_targets(1, 8, seed=1)
        b = random_targets(1, 8, seed=2)
        box.publish(a, epoch=0)   # gen 1 → slot 1
        box.publish(b, epoch=0)   # gen 2 → slot 0
        assert (unpack_solutions(box._slots[1], 8) == a).all()
        assert (unpack_solutions(box._slots[0], 8) == b).all()


class TestSolutionRing:
    def make_record(self, B, n, seed=0):
        rng = np.random.default_rng(seed)
        meta = np.arange(16, dtype=np.int64) * (seed + 1)
        energies = rng.integers(-100, 0, B).astype(np.int64)
        packed = pack_solutions(rng.integers(0, 2, (B, n), dtype=np.uint8))
        return meta, energies, packed

    def test_write_consume_fifo(self, attached):
        ring, peer = attached(SolutionRing, 3, 17, 4)
        assert peer.consume() is None
        for seed in range(3):
            ring.write(*self.make_record(3, 17, seed))
        assert peer.backlog() == 3
        for seed in range(3):
            meta, energies, packed = peer.consume()
            want = self.make_record(3, 17, seed)
            assert (meta == want[0]).all()
            assert (energies == want[1]).all()
            assert (packed == want[2]).all()
        assert peer.consume() is None

    def test_full_ring_refuses_writes(self, attached):
        ring, _ = attached(SolutionRing, 2, 8, 2)
        ring.write(*self.make_record(2, 8, 0))
        ring.write(*self.make_record(2, 8, 1))
        assert ring.is_full()
        with pytest.raises(RuntimeError, match="ring full"):
            ring.write(*self.make_record(2, 8, 2))
        ring.consume()
        assert not ring.is_full()
        ring.write(*self.make_record(2, 8, 2))  # slot freed

    def test_wraparound_preserves_contents(self, attached):
        ring, _ = attached(SolutionRing, 1, 8, 2)
        for seed in range(7):
            ring.write(*self.make_record(1, 8, seed))
            meta, _, _ = ring.consume()
            assert (meta == self.make_record(1, 8, seed)[0]).all()

    def test_slots_validated(self):
        with pytest.raises(ValueError, match="slots"):
            SolutionRing(bytearray(SolutionRing.size(1, 8, 1)), 0, 1, 8, slots=0)


class TestTransportEndToEnd:
    """Host transport + worker endpoint talking in one process."""

    @pytest.mark.parametrize("name", EXCHANGE_NAMES)
    def test_round_trip(self, name):
        ctx = multiprocessing.get_context()
        stop = ctx.Event()
        transport = ShmHostTransport(n_workers=1, n_blocks=3, n=20)
        try:
            endpoint = ShmWorkerEndpoint(
                transport.worker_ref(0), ctx.Queue(), worker_id=0, job_seq=1,
                incarnation=0, stop_evt=stop,
            )
            try:
                t = random_targets(3, 20, seed=5)
                transport.channels[0].put(t, 0)
                got = endpoint.fetch_targets(wait=True)
                assert (got == t).all()
                energies = np.array([-3, -1, -2], dtype=np.int64)
                xs = random_targets(3, 20, seed=6)
                counters = {"engine.flips": 11, "engine.evaluated": 44}
                assert endpoint.publish(energies, xs, counters, [])
                batch = transport.poll(timeout=5.0)
                assert isinstance(batch, ResultBatch)
                assert batch.worker_id == 0 and batch.incarnation == 0
                assert (batch.energies == energies).all()
                assert (batch.x == xs).all()
                assert batch.counters["engine.evaluated"] == 44
                assert batch.counters["engine.flips"] == 11
                assert transport.stats["exchange.targets_published"] == 1
                assert transport.stats["exchange.results_consumed"] == 1
                assert transport.stats["exchange.bytes_to_device"] > 0
                assert transport.stats["exchange.bytes_from_device"] > 0
            finally:
                endpoint.close()
        finally:
            transport.close()

    def test_poll_timeout_returns_none(self):
        transport = ShmHostTransport(n_workers=1, n_blocks=2, n=8)
        try:
            assert transport.poll(timeout=0.05) is None
        finally:
            transport.close()

    def test_event_side_channel(self):
        ctx = multiprocessing.get_context()
        stop = ctx.Event()
        events_q = ctx.Queue()
        transport = ShmHostTransport(n_workers=1, n_blocks=2, n=8)
        try:
            endpoint = ShmWorkerEndpoint(
                transport.worker_ref(0), events_q, worker_id=0, job_seq=3,
                incarnation=1, stop_evt=stop,
            )
            try:
                events = [("device.round", {"round": 1})]
                endpoint.publish(
                    np.zeros(2, np.int64), np.zeros((2, 8), np.uint8),
                    {}, events,
                )
                assert transport.poll(timeout=5.0) is not None
                # The side queue's feeder thread may trail the shm
                # ring by a moment; the fleet tolerates that (bundles
                # ride a later relay), so the test waits bounded-time.
                # Bundles are tagged (worker_id, job_seq, incarnation).
                assert events_q.get(timeout=5.0) == (0, 3, 1, events)
                assert events_q.empty()
            finally:
                endpoint.close()
        finally:
            transport.close()

    @pytest.mark.parametrize("name", EXCHANGE_NAMES)
    def test_describe_shapes(self, name):
        transport = ShmHostTransport(n_workers=2, n_blocks=4, n=33)
        try:
            d = transport.describe()
            assert d["transport"] == name
            assert d["workers"] == 2
            assert d["target_slot_bytes"] > 0
            assert d["result_slot_bytes"] > 0
            assert d["ring_slots"] == DEFAULT_RING_SLOTS
            # Bit-packing: 33 bits fit in 5 bytes per block.
            assert d["target_slot_bytes"] == 4 * packed_length(33)
        finally:
            transport.close()

    def test_shm_close_unlinks_segments(self, monkeypatch):
        """One job creates one segment per worker, an endpoint attaches
        exactly one, and close leaves none of them in /dev/shm."""
        import glob
        import os

        made = []

        class Counting(shared_memory.SharedMemory):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append((self.name, kwargs.get("create", False)))

        monkeypatch.setattr(shared_memory, "SharedMemory", Counting)
        before = set(glob.glob("/dev/shm/*"))
        transport = ShmHostTransport(n_workers=3, n_blocks=2, n=16)
        assert [create for _, create in made] == [True] * 3
        endpoint = ShmWorkerEndpoint(
            transport.worker_ref(1), None, worker_id=1, job_seq=1,
            incarnation=0, stop_evt=threading.Event(),
        )
        assert made[3:] == [(made[1][0], False)]
        endpoint.close()
        transport.close()
        assert not [name for name, _ in made if os.path.exists(f"/dev/shm/{name}")]
        after = set(glob.glob("/dev/shm/*"))
        assert after <= before


class TestDoorbells:
    """Waits on the real transport end on a ring, not on a timeout.

    The fallback timeout is raised to 10 s here, so a return within the
    20 ms bounds can only come from a ring."""

    BOUND = 0.020

    @pytest.fixture
    def pair(self, monkeypatch):
        import repro.abs.exchange as exchange_mod

        monkeypatch.setattr(exchange_mod, "_BELL_TIMEOUT", 10.0)
        ctx = multiprocessing.get_context()
        transport = ShmHostTransport(
            n_workers=1, n_blocks=2, n=16,
            worker_bells=[ctx.Semaphore(0)], host_bell=ctx.Semaphore(0),
        )
        endpoint = ShmWorkerEndpoint(
            transport.worker_ref(0), ctx.Queue(), worker_id=0, job_seq=1,
            incarnation=0, stop_evt=ctx.Event(), bells=transport.bells(0),
        )
        yield transport, endpoint
        endpoint.close()
        transport.close()

    @staticmethod
    def _park(call):
        """Run ``call`` on a thread; return (thread, outcome dict)."""
        outcome = {}

        def run():
            outcome["value"] = call()
            outcome["at"] = time.monotonic()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        time.sleep(0.2)  # long enough to be blocked on the bell
        assert thread.is_alive() and not outcome
        return thread, outcome

    def test_target_wait_wakes_on_put(self, pair):
        transport, endpoint = pair
        thread, outcome = self._park(lambda: endpoint.fetch_targets(wait=True))
        targets = random_targets(2, 16, seed=1)
        put_at = time.monotonic()
        transport.channels[0].put(targets, 0)
        thread.join(timeout=5)
        assert (outcome["value"] == targets).all()
        assert outcome["at"] - put_at < self.BOUND
        assert endpoint.bell_timeouts == 0
        # The blocked time ships with the next result.
        endpoint.publish(np.zeros(2, np.int64), targets, {}, [])
        counters = transport.poll(timeout=5.0).counters
        assert counters["exchange.target_waits"] == 1
        assert 0.15e9 < counters["exchange.target_wait_ns"] < 5e9

    def test_target_wait_returns_none_on_job_over(self, pair):
        transport, endpoint = pair
        thread, outcome = self._park(lambda: endpoint.fetch_targets(wait=True))
        over_at = time.monotonic()
        transport.end_job()
        thread.join(timeout=5)
        assert outcome["value"] is None
        assert outcome["at"] - over_at < self.BOUND
        assert endpoint.stopping()

    def test_stalled_publish_resumes_on_consume(self, pair):
        transport, endpoint = pair
        energies, xs = np.zeros(2, np.int64), np.zeros((2, 16), np.uint8)
        for _ in range(DEFAULT_RING_SLOTS):
            assert endpoint.publish(energies, xs, {}, [])
        thread, outcome = self._park(
            lambda: endpoint.publish(energies, xs, {}, [])
        )
        consume_at = time.monotonic()
        assert transport.poll(timeout=0) is not None
        thread.join(timeout=5)
        assert outcome["value"] is True
        assert outcome["at"] - consume_at < self.BOUND
        assert transport.result_backlog(0) == DEFAULT_RING_SLOTS

    def test_host_poll_wakes_on_publish(self, pair):
        transport, endpoint = pair
        thread, outcome = self._park(lambda: transport.poll(timeout=5.0))
        publish_at = time.monotonic()
        endpoint.publish(
            np.array([-1, -2], np.int64), np.zeros((2, 16), np.uint8), {}, []
        )
        thread.join(timeout=5)
        assert outcome["value"].energies.tolist() == [-1, -2]
        assert outcome["at"] - publish_at < self.BOUND
        assert transport.bell_timeouts == 0


@pytest.mark.timeout(60)
@pytest.mark.parametrize("n_workers", [1, 3])
def test_lockstep_ping_pong_never_needs_a_fallback_timeout(monkeypatch, n_workers):
    """1,000 lockstep rounds between a host and worker threads (three
    workers: more threads than cores, sharing the host bell): every
    wait on either side ends on a ring, and each worker's results
    arrive in order.  The fallback is raised to 1 s so a slow host
    cannot pass for a lost ring; a lost ring still shows as an
    expiry."""
    import repro.abs.exchange as exchange_mod

    monkeypatch.setattr(exchange_mod, "_BELL_TIMEOUT", 1.0)
    rounds = 1000
    ctx = multiprocessing.get_context()
    transport = ShmHostTransport(
        n_workers=n_workers, n_blocks=2, n=16,
        worker_bells=[ctx.Semaphore(0) for _ in range(n_workers)],
        host_bell=ctx.Semaphore(0),
    )
    endpoints = [
        ShmWorkerEndpoint(
            transport.worker_ref(w), ctx.Queue(), worker_id=w, job_seq=1,
            incarnation=0, stop_evt=ctx.Event(), bells=transport.bells(w),
        )
        for w in range(n_workers)
    ]

    def worker(endpoint):
        served = 0
        while (targets := endpoint.fetch_targets(wait=True)) is not None:
            served += 1
            energies = np.array([served, -served], np.int64)
            endpoint.publish(energies, targets, {"engine.flips": served}, [])

    threads = [
        threading.Thread(target=worker, args=(e,), daemon=True) for e in endpoints
    ]
    seen = [0] * n_workers
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for w in range(n_workers):
            transport.channels[w].put(random_targets(2, 16, seed=w), 0)
        for r in range(rounds):
            batch = transport.poll(timeout=5.0)
            assert batch is not None
            w = batch.worker_id
            seen[w] += 1
            assert batch.counters["engine.flips"] == seen[w]
            transport.channels[w].put(random_targets(2, 16, seed=r), 0)
        transport.end_job()
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive()
        assert sum(seen) == rounds
        assert [e.bell_timeouts for e in endpoints] == [0] * n_workers
        assert transport.bell_timeouts == 0
    finally:
        sys.setswitchinterval(interval)
        for endpoint in endpoints:
            endpoint.close()
        transport.close()
