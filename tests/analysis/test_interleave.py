"""The exchange-protocol interleaving explorer: proof and anti-proof.

Three layers:

1. the real protocols pass *exhaustively* at depth ≥ 6 for both
   structures — the shm mailbox and ring (well under the 60 s
   budget) — and for the doorbells that wake their waiters;
2. the step machines are pinned byte-for-byte against the real
   ``publish``/``write`` methods and cross-validated by running the
   real ``fetch``/``consume`` over machine-written memory — so the
   explorer exercises the actual protocol, not a drifted model of it;
3. every injected protocol bug is detected — the checker is not
   vacuous.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.abs.exchange import (
    _H_EPOCH,
    _H_SEQ,
    TargetMailbox,
    _MailboxTargetChannel,
)
from repro.analysis.interleave import (
    _EPOCH,
    _Bell,
    _MailboxWriter,
    _RingingPublisher,
    _RingProducer,
    _mailbox_payload,
    _ring_energy,
    _ring_packed,
    explore_mailbox,
    explore_mailbox_doorbell,
    explore_ring,
    explore_ring_doorbell,
    make_mailbox,
    make_ring,
    run_all,
)
from repro.abs.buffers import unpack_solutions

pytestmark = pytest.mark.analysis


# -- 1. exhaustive passes ---------------------------------------------------

@pytest.mark.timeout(60)
def test_mailbox_depth6_exhaustive_no_violations():
    report = explore_mailbox(depth=6)
    assert report.ok, report.violations
    assert report.depth == 6
    # exhaustiveness sanity: the graph is far larger than any sampled run
    assert report.states > 10_000
    assert report.terminals > 0
    assert report.elapsed < 60


@pytest.mark.timeout(60)
def test_ring_depth6_exhaustive_no_violations_with_wraparound():
    report = explore_ring(depth=6, slots=2)  # depth > slots forces wraparound
    assert report.ok, report.violations
    assert report.states > 1_000
    assert report.terminals > 0
    assert report.elapsed < 60


@pytest.mark.timeout(60)
def test_run_all_covers_all_structures():
    reports = run_all(depth=6)
    assert [r.structure for r in reports] == [
        "TargetMailbox", "SolutionRing", "MailboxDoorbell", "RingDoorbell",
    ]
    assert all(r.ok for r in reports)


@pytest.mark.timeout(60)
def test_mailbox_doorbell_depth6_exhaustive_no_lost_wakeup():
    report = explore_mailbox_doorbell(depth=6)
    assert report.ok, report.violations
    assert report.states > 1_000
    assert report.terminals > 0


@pytest.mark.timeout(60)
def test_ring_doorbell_depth6_exhaustive_no_lost_wakeup_with_stalls():
    report = explore_ring_doorbell(depth=6, slots=2)  # depth > slots: stalls
    assert report.ok, report.violations
    assert report.states > 1_000
    assert report.terminals > 0


# -- 2. the machines ARE the protocol --------------------------------------

def _drain(actor):
    while not actor.done():
        actor.step()


def test_mailbox_writer_machine_matches_real_publish_bytes():
    (machine_box, machine_mem), (real_box, real_mem) = make_mailbox(), make_mailbox()
    writer = _MailboxWriter(machine_box, depth=3)
    for gen in range(1, 4):
        while writer.op < gen:
            writer.step()
        b0, b1 = _mailbox_payload(gen)
        targets = unpack_solutions(
            np.array([[b0, b1]], dtype=np.uint8), real_box.n
        )
        assert real_box.publish(targets, epoch=_EPOCH) == gen
        assert machine_mem == real_mem


def _belled_mailbox():
    box, region = make_mailbox(extra=8)
    return box, _Bell(region, TargetMailbox.size(1, 16)), region


def test_ringing_publisher_matches_real_channel_put_bytes():
    """Mailbox bytes *and* the bell count match the real ``put``."""
    (machine_box, machine_bell, machine_mem), (real_box, real_bell, real_mem) = (
        _belled_mailbox(), _belled_mailbox()
    )
    publisher = _RingingPublisher(machine_box, machine_bell, depth=3)
    channel = _MailboxTargetChannel(real_box, {
        "exchange.targets_published": 0, "exchange.packs": 0,
        "exchange.bytes_to_device": 0,
    }, real_bell)
    for gen in range(1, 4):
        while publisher.op < gen:
            publisher.step()
        b0, b1 = _mailbox_payload(gen)
        channel.put(
            unpack_solutions(np.array([[b0, b1]], dtype=np.uint8), 16), _EPOCH
        )
        assert machine_mem == real_mem
        assert real_bell.count == gen


def test_real_fetch_reads_machine_written_mailbox():
    box, _ = make_mailbox()
    _drain(_MailboxWriter(box, depth=3))
    got = box.fetch(last_gen=0, epoch=_EPOCH)
    assert got is not None
    gen, targets = got
    assert gen == 3
    b0, b1 = _mailbox_payload(3)
    expected = unpack_solutions(np.array([[b0, b1]], dtype=np.uint8), box.n)
    np.testing.assert_array_equal(targets, expected)
    assert box.fetch(last_gen=3, epoch=_EPOCH) is None
    assert box.fetch(last_gen=0, epoch=_EPOCH + 1) is None  # epoch filter


def test_ring_producer_machine_matches_real_write_bytes():
    (machine_ring, machine_mem), (real_ring, real_mem) = make_ring(), make_ring()
    producer = _RingProducer(machine_ring, depth=2)
    for i in range(1, 3):
        while producer.op < i:
            producer.step()
        real_ring.write(
            [i],
            np.array([_ring_energy(i)], dtype=np.int64),
            np.array([[_ring_packed(i)]], dtype=np.uint8),
        )
        assert machine_mem == real_mem


def test_real_consume_reads_machine_written_ring():
    ring, _ = make_ring()
    _drain(_RingProducer(ring, depth=2))
    assert int(ring._header[_H_SEQ]) == 2
    for i in range(1, 3):
        record = ring.consume()
        assert record is not None
        meta, energies, packed = record
        assert int(meta[0]) == i
        assert int(energies[0]) == _ring_energy(i)
        assert int(packed[0, 0]) == _ring_packed(i)
    assert ring.consume() is None
    assert int(ring._header[_H_EPOCH]) == 2


# -- 3. injected bugs are caught -------------------------------------------

@pytest.mark.timeout(60)
@pytest.mark.parametrize("bug", ["seq_first", "no_recheck"])
def test_mailbox_bugs_detected(bug):
    report = explore_mailbox(depth=4, bug=bug)
    assert not report.ok
    assert any("torn mailbox read" in v for v in report.violations)
    assert any("schedule:" in v for v in report.violations)  # repro recipe


@pytest.mark.timeout(60)
def test_ring_before_generation_store_is_a_lost_wakeup():
    report = explore_mailbox_doorbell(depth=4, bug="ring_before_seq")
    assert not report.ok
    assert any(
        "lost wakeup: the target wait" in v and "schedule:" in v
        for v in report.violations
    )


@pytest.mark.timeout(60)
@pytest.mark.parametrize(
    "bug,who",
    [("ring_before_head", "the host poll"), ("no_consume_ring", "publish")],
)
def test_ring_doorbell_bugs_are_lost_wakeups(bug, who):
    report = explore_ring_doorbell(depth=4, bug=bug)
    assert not report.ok
    assert any(f"lost wakeup: {who}" in v for v in report.violations)


@pytest.mark.timeout(60)
@pytest.mark.parametrize("bug", ["early_head", "no_full_check"])
def test_ring_bugs_detected(bug):
    report = explore_ring(depth=4, bug=bug)
    assert not report.ok
    assert any(
        "torn ring record" in v or "ring FIFO broken" in v
        for v in report.violations
    )
