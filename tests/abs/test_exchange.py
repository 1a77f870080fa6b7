"""Unit tests for the shared-memory exchange layer (paper Figure 5).

The mailbox/ring primitives are exercised in-process (create + attach
within one interpreter is valid POSIX shm usage), so the seqlock,
epoch, and SPSC invariants are checked deterministically without
worker processes.  Full host↔worker integration runs in
``test_solver_process.py`` and ``test_transport_determinism.py``.
"""

import multiprocessing

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
    from repro.abs.exchange import SolutionRing, TargetMailbox

    box = TargetMailbox.create(1, 8)
    try:
        assert box._header.dtype == WIRE_I64
        assert box._slots.dtype == WIRE_U8
    finally:
        box.unlink()
    ring = SolutionRing.create(1, 8, slots=2)
    try:
        assert ring._header.dtype == WIRE_I64
        assert ring._meta.dtype == WIRE_I64
        assert ring._energies.dtype == WIRE_I64
        assert ring._packed.dtype == WIRE_U8
    finally:
        ring.unlink()


class TestTargetMailbox:
    def test_publish_fetch_round_trip(self):
        box = TargetMailbox.create(4, 21)
        try:
            peer = TargetMailbox.attach(box.descriptor)
            try:
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
            finally:
                peer.close()
        finally:
            box.unlink()

    def test_only_freshest_generation_served(self):
        """Like the paper's target buffer: a slow worker skips straight
        to the newest batch instead of replaying stale ones."""
        box = TargetMailbox.create(2, 16)
        try:
            old = random_targets(2, 16, seed=1)
            new = random_targets(2, 16, seed=2)
            box.publish(old, epoch=0)
            box.publish(new, epoch=0)
            gen, targets = box.fetch(0, epoch=0)
            assert gen == 2
            assert (targets == new).all()
        finally:
            box.unlink()

    def test_epoch_filters_stale_targets(self):
        """A publish meant for incarnation 0 is invisible to the
        restarted incarnation 1 (rings survive, targets do not)."""
        box = TargetMailbox.create(2, 16)
        try:
            box.publish(random_targets(2, 16), epoch=0)
            assert box.fetch(0, epoch=1) is None
            box.publish(random_targets(2, 16, seed=3), epoch=1)
            got = box.fetch(0, epoch=1)
            assert got is not None and got[0] == 2
        finally:
            box.unlink()

    def test_shape_validated(self):
        box = TargetMailbox.create(2, 16)
        try:
            with pytest.raises(ValueError, match="shape"):
                box.publish(random_targets(3, 16), epoch=0)
        finally:
            box.unlink()

    def test_generation_slot_alternation(self):
        """Generation g lands in slot g % 2 — the current generation's
        payload is never overwritten by the next publish (the seqlock
        correctness argument)."""
        box = TargetMailbox.create(1, 8)
        try:
            a = random_targets(1, 8, seed=1)
            b = random_targets(1, 8, seed=2)
            box.publish(a, epoch=0)   # gen 1 → slot 1
            box.publish(b, epoch=0)   # gen 2 → slot 0
            assert (unpack_solutions(box._slots[1], 8) == a).all()
            assert (unpack_solutions(box._slots[0], 8) == b).all()
        finally:
            box.unlink()


class TestSolutionRing:
    def make_record(self, B, n, seed=0):
        rng = np.random.default_rng(seed)
        meta = np.arange(16, dtype=np.int64) * (seed + 1)
        energies = rng.integers(-100, 0, B).astype(np.int64)
        packed = pack_solutions(rng.integers(0, 2, (B, n), dtype=np.uint8))
        return meta, energies, packed

    def test_write_consume_fifo(self):
        ring = SolutionRing.create(3, 17, slots=4)
        try:
            peer = SolutionRing.attach(ring.descriptor)
            try:
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
            finally:
                peer.close()
        finally:
            ring.unlink()

    def test_full_ring_refuses_writes(self):
        ring = SolutionRing.create(2, 8, slots=2)
        try:
            ring.write(*self.make_record(2, 8, 0))
            ring.write(*self.make_record(2, 8, 1))
            assert ring.is_full()
            with pytest.raises(RuntimeError, match="ring full"):
                ring.write(*self.make_record(2, 8, 2))
            ring.consume()
            assert not ring.is_full()
            ring.write(*self.make_record(2, 8, 2))  # slot freed
        finally:
            ring.unlink()

    def test_wraparound_preserves_contents(self):
        ring = SolutionRing.create(1, 8, slots=2)
        try:
            for seed in range(7):
                ring.write(*self.make_record(1, 8, seed))
                meta, _, _ = ring.consume()
                assert (meta == self.make_record(1, 8, seed)[0]).all()
        finally:
            ring.unlink()

    def test_slots_validated(self):
        with pytest.raises(ValueError, match="slots"):
            SolutionRing.create(1, 8, slots=0)


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

    def test_shm_close_unlinks_segments(self):
        import glob

        before = set(glob.glob("/dev/shm/*"))
        transport = ShmHostTransport(n_workers=2, n_blocks=2, n=16)
        transport.close()
        after = set(glob.glob("/dev/shm/*"))
        assert after <= before
