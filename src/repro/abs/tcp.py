"""TCP exchange transport: the Figure-5 buffers over socket streams.

Nothing in the host loop of :mod:`repro.abs.fleet` cares whether a
device worker lives in another process or on another machine — the
exchange interface only moves bits.  This module is the second
transport behind ``AbsConfig.exchange`` (``"tcp"``): the host runs one
asyncio acceptor that multiplexes every device stream, each worker
opens a plain blocking socket, and the payloads are the *same*
bit-packed arrays the shm rings carry, wrapped in length-prefixed
binary frames.

Wire format (all integers little-endian; see ``docs/exchange.md`` for
the field tables)::

    frame   := magic "AB" | type u8 | pad u8 | payload_len u32 | crc32 u32 | payload
    HELLO   := worker_id i32 | incarnation i64
    TARGETS := generation i64 | epoch i64 | n_blocks i32 | n i32 | packbits payload
    RESULT  := worker_id i32 | incarnation i64 | count i32 | n i32
               | evaluated i64 | flips i64 | counters i64[K] | energies i64[count]
               | packbits rows
    EVENTS  := worker_id i32 | incarnation i64 | pickled event list

Framing is the transport's whole ordering story: TCP already
guarantees that bytes inside one connection arrive intact and in
order, so a decoded frame can never be torn or reordered — the only
failure left is *loss of the connection*, which drops any frames still
in flight.  The protocol is built so that loss is always safe:

- **Targets** are freshest-wins, exactly like the
  :class:`~repro.abs.exchange.TargetMailbox`: every batch carries a
  per-worker generation counter and the incarnation epoch it is meant
  for, the host remembers only the newest frame, and replays it when a
  worker (re)connects.  A worker accepts a batch only when its
  generation is newer than anything it has used and the epoch matches
  its own incarnation — a replayed or stale frame is skipped, never
  searched twice.
- **Results** are cumulative snapshots sent at most once: a send that
  fails mid-connection is *dropped*, not retried, so the host can
  never observe a duplicated or reordered result — only a gap, which
  the next round's (cumulative) snapshot closes.  This mirrors the
  suffix-loss semantics of a killed shm worker.

The interleaving explorer (:mod:`repro.analysis.interleave`) walks a
step-machine model of exactly these two streams — including
disconnects and the HELLO replay — and proves the freshness and FIFO
invariants; injected protocol bugs (accepting without the generation
filter, replaying stale generations, retrying result sends, frame
reorder) are each detected.

Workers are *elastic*: a worker may crash, reconnect, or join
mid-run.  The supervisor restart machinery is unchanged — a
replacement incarnation simply says HELLO on a fresh connection, and
the host stamps an ``exchange.reconnect`` telemetry event whenever a
worker slot is connected more than once.

Trust boundary: the acceptor binds loopback by default and the EVENTS
frame uses pickle (exactly like the shm transport's event side
queue), so the listener must only ever face machines you would let
run this process anyway.
"""

from __future__ import annotations

import pickle
import queue as queue_mod
import socket
import struct
import threading
import time
import zlib
from typing import Any

import numpy as np

from repro.abs.buffers import pack_solutions, packed_length, unpack_solutions
from repro.abs.exchange import (
    ENGINE_COUNTER_KEYS,
    WIRE_I64,
    WIRE_U8,
    ResultBatch,
    _new_stats,
)

__all__ = [
    "FrameError",
    "TcpHostTransport",
    "TcpWorkerEndpoint",
    "decode_frame",
    "decode_hello",
    "decode_result",
    "decode_targets",
    "encode_events",
    "encode_frame",
    "encode_hello",
    "encode_result",
    "encode_targets",
]


class FrameError(ValueError):
    """A frame that cannot be decoded (truncation, garbage, CRC, size).

    Raised instead of ever deserializing a damaged frame silently; a
    stream that produced one is poisoned and must be reconnected."""


# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------

#: Two-byte frame preamble.  The magic plus CRC means random or
#: misaligned bytes fail loudly as :class:`FrameError` instead of
#: decoding into a plausible-looking payload.
FRAME_MAGIC = b"AB"

#: ``magic 2s | type u8 | pad u8 | payload_len u32 | crc32 u32``.
FRAME_HEADER = struct.Struct("<2sBxII")

#: Upper bound on one frame's payload; a length field beyond this is
#: garbage (or an attack), not a batch we would ever ship.
MAX_FRAME_PAYLOAD = 1 << 26

F_HELLO = 1
F_TARGETS = 2
F_RESULT = 3
F_EVENTS = 4
_FRAME_TYPES = frozenset({F_HELLO, F_TARGETS, F_RESULT, F_EVENTS})

_HELLO = struct.Struct("<iq")
_TARGETS_HEAD = struct.Struct("<qqii")
_RESULT_HEAD = struct.Struct("<iqiiqq")

#: Cumulative worker counters shipped in the fixed RESULT counter
#: vector, in wire order — the shm meta keys plus the tcp lane's own.
_WIRE_COUNTER_KEYS: tuple[str, ...] = ENGINE_COUNTER_KEYS + (
    "exchange.tcp.reconnects",
    "exchange.tcp.dropped_results",
)


def encode_frame(ftype: int, payload: bytes) -> bytes:
    """Wrap ``payload`` in a length-prefixed, CRC-protected frame."""
    if ftype not in _FRAME_TYPES:
        raise ValueError(f"unknown frame type {ftype!r}")
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise ValueError(f"payload of {len(payload)} bytes exceeds frame bound")
    header = FRAME_HEADER.pack(
        FRAME_MAGIC, ftype, len(payload), zlib.crc32(payload) & 0xFFFFFFFF
    )
    return header + payload


def decode_frame(
    data: "bytes | bytearray | memoryview", *, partial_ok: bool = False
) -> tuple[int, bytes, int] | None:
    """Decode one frame from the head of ``data``.

    Returns ``(type, payload, bytes_consumed)``.  With ``partial_ok``
    (the streaming path) an *incomplete but so-far-valid* prefix
    returns ``None`` — read more bytes and retry; without it,
    truncation raises.  Damaged bytes (bad magic, unknown type,
    oversized length, CRC mismatch) always raise :class:`FrameError`
    no matter how much data follows.
    """
    view = memoryview(data)
    if len(view) < FRAME_HEADER.size:
        if partial_ok and (
            len(view) < 2 or view[:2].tobytes() == FRAME_MAGIC[: len(view)]
        ):
            return None
        if partial_ok:
            raise FrameError(f"bad frame magic {view[:2].tobytes()!r}")
        raise FrameError(
            f"truncated frame header: {len(view)} of {FRAME_HEADER.size} bytes"
        )
    magic, ftype, length, crc = FRAME_HEADER.unpack_from(view)
    if magic != FRAME_MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if view[3] != 0:  # reserved pad byte: must be zero on the wire
        raise FrameError(f"nonzero reserved byte {view[3]}")
    if ftype not in _FRAME_TYPES:
        raise FrameError(f"unknown frame type {ftype}")
    if length > MAX_FRAME_PAYLOAD:
        raise FrameError(f"frame length {length} exceeds bound {MAX_FRAME_PAYLOAD}")
    total = FRAME_HEADER.size + length
    if len(view) < total:
        if partial_ok:
            return None
        raise FrameError(f"truncated frame payload: {len(view)} of {total} bytes")
    payload = view[FRAME_HEADER.size : total].tobytes()
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise FrameError("frame CRC mismatch")
    return ftype, payload, total


def encode_hello(worker_id: int, incarnation: int) -> bytes:
    return encode_frame(F_HELLO, _HELLO.pack(worker_id, incarnation))


def decode_hello(payload: bytes) -> tuple[int, int]:
    if len(payload) != _HELLO.size:
        raise FrameError(f"HELLO payload is {len(payload)} bytes, want {_HELLO.size}")
    worker_id, incarnation = _HELLO.unpack(payload)
    return worker_id, incarnation


def encode_targets(generation: int, epoch: int, targets: np.ndarray) -> bytes:
    """One ``(B, n)`` target batch, bit-packed, stamped gen + epoch."""
    targets = np.ascontiguousarray(targets, dtype=WIRE_U8)
    if targets.ndim != 2:
        raise ValueError(f"targets must be 2-D, got shape {targets.shape}")
    n_blocks, n = targets.shape
    head = _TARGETS_HEAD.pack(generation, epoch, n_blocks, n)
    return encode_frame(F_TARGETS, head + pack_solutions(targets).tobytes())


def decode_targets(payload: bytes) -> tuple[int, int, np.ndarray]:
    """``(generation, epoch, unpacked (B, n) targets)``."""
    if len(payload) < _TARGETS_HEAD.size:
        raise FrameError(f"short TARGETS payload: {len(payload)} bytes")
    generation, epoch, n_blocks, n = _TARGETS_HEAD.unpack_from(payload)
    if n_blocks < 0 or n < 0:
        raise FrameError(f"negative TARGETS dimensions ({n_blocks}, {n})")
    body = payload[_TARGETS_HEAD.size :]
    expected = n_blocks * packed_length(n)
    if len(body) != expected:
        raise FrameError(
            f"TARGETS body is {len(body)} bytes, want {expected} "
            f"for shape ({n_blocks}, {n})"
        )
    packed = np.frombuffer(body, dtype=WIRE_U8).reshape(n_blocks, packed_length(n))
    return generation, epoch, unpack_solutions(packed, n)


def encode_result(
    worker_id: int,
    incarnation: int,
    energies: np.ndarray,
    x: np.ndarray,
    evaluated: int,
    flips: int,
    counters: dict[str, int],
) -> bytes:
    """One round's per-block bests + cumulative totals, bit-packed."""
    energies = np.ascontiguousarray(energies, dtype=WIRE_I64)
    x = np.ascontiguousarray(x, dtype=WIRE_U8)
    if x.ndim != 2 or x.shape[0] != len(energies):
        raise ValueError(
            f"x must be (len(energies), n), got {x.shape} for "
            f"{len(energies)} energies"
        )
    count, n = x.shape
    head = _RESULT_HEAD.pack(
        worker_id, incarnation, count, n, int(evaluated), int(flips)
    )
    cvec = np.array(
        [int(counters.get(key, 0)) for key in _WIRE_COUNTER_KEYS], dtype=WIRE_I64
    )
    return encode_frame(
        F_RESULT,
        head + cvec.tobytes() + energies.tobytes() + pack_solutions(x).tobytes(),
    )


def decode_result(payload: bytes) -> ResultBatch:
    if len(payload) < _RESULT_HEAD.size:
        raise FrameError(f"short RESULT payload: {len(payload)} bytes")
    worker_id, incarnation, count, n, evaluated, flips = _RESULT_HEAD.unpack_from(
        payload
    )
    if count < 0 or n < 0:
        raise FrameError(f"negative RESULT dimensions ({count}, {n})")
    k = len(_WIRE_COUNTER_KEYS)
    expected = _RESULT_HEAD.size + 8 * k + 8 * count + count * packed_length(n)
    if len(payload) != expected:
        raise FrameError(
            f"RESULT payload is {len(payload)} bytes, want {expected} "
            f"for count={count}, n={n}"
        )
    offset = _RESULT_HEAD.size
    cvec = np.frombuffer(payload, dtype=WIRE_I64, count=k, offset=offset)
    offset += 8 * k
    energies = np.frombuffer(
        payload, dtype=WIRE_I64, count=count, offset=offset
    ).copy()
    offset += 8 * count
    packed = np.frombuffer(payload, dtype=WIRE_U8, offset=offset).reshape(
        count, packed_length(n)
    )
    counters = {key: int(cvec[j]) for j, key in enumerate(_WIRE_COUNTER_KEYS)}
    return ResultBatch(
        worker_id=worker_id,
        incarnation=incarnation,
        energies=energies,
        x=unpack_solutions(packed, n),
        evaluated=int(evaluated),
        flips=int(flips),
        counters=counters,
    )


def encode_events(worker_id: int, incarnation: int, events: list) -> bytes:
    """Telemetry side channel: variable-sized, pickled, never search-critical."""
    return encode_frame(
        F_EVENTS, _HELLO.pack(worker_id, incarnation) + pickle.dumps(events)
    )


def decode_events(payload: bytes) -> tuple[int, int, list]:
    if len(payload) < _HELLO.size:
        raise FrameError(f"short EVENTS payload: {len(payload)} bytes")
    worker_id, incarnation = _HELLO.unpack_from(payload)
    try:
        events = pickle.loads(payload[_HELLO.size :])
    except Exception as exc:  # pickle raises a zoo of types on garbage
        raise FrameError(f"undecodable EVENTS payload: {exc}") from exc
    if not isinstance(events, list):
        raise FrameError(f"EVENTS payload is {type(events).__name__}, want list")
    return worker_id, incarnation, events


# ----------------------------------------------------------------------
# Host side
# ----------------------------------------------------------------------
class _EventBank:
    """Host-side synthetic worker events, shaped like a telemetry bus.

    The transport cannot reach the real :class:`TelemetryBus` (the
    solver owns it), so host-generated events ride the same
    ``event_bundles()`` relay the worker events use.  Exposing them
    through an ``emit()`` call keeps the event name a checkable string
    literal at its creation site, exactly like every bus emit."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pending: list[tuple[int, int, list]] = []  # guarded-by: _lock

    def emit(self, name: str, *, device: int, incarnation: int, **fields: Any) -> None:
        bundle = (device, incarnation, [(name, {"incarnation": incarnation, **fields})])
        with self._lock:
            self._pending.append(bundle)

    def append_bundle(self, bundle: tuple[int, int, list]) -> None:
        with self._lock:
            self._pending.append(bundle)

    def drain(self) -> list[tuple[int, int, list]]:
        with self._lock:
            out = self._pending
            self._pending = []
        return out


class _TcpTargetChannel:
    """Host-side handle for one worker's target stream + incarnation."""

    def __init__(self, transport: "TcpHostTransport", worker_id: int, epoch: int) -> None:
        self._transport = transport
        self._worker_id = int(worker_id)
        self._epoch = int(epoch)

    def put(self, targets: np.ndarray) -> None:
        self._transport._publish_targets(self._worker_id, self._epoch, targets)


class TcpHostTransport:
    """Asyncio acceptor multiplexing every device worker's stream.

    The event loop runs on a daemon thread and owns all readers and
    writers; the solver's host loop talks to it through a thread-safe
    inbox (decoded results and connection notices) and
    ``loop.call_soon_threadsafe`` (target sends).  The freshest TARGETS
    frame per worker is cached and replayed on (re)connect, which is
    what makes workers elastic — a replacement or rejoining worker is
    current after one frame, exactly like re-attaching to a mailbox.
    """

    name = "tcp"

    # The acceptor thread (``_dispatch``) and the host loop
    # (``_publish_targets``/``poll``) both mutate these; the replay
    # cache was always locked, but the stats dict raced until the
    # lock-discipline rule flagged it — int += is not atomic across
    # threads and increments could be lost.
    GUARDED_BY = {"_latest": "_lock", "stats": "_lock"}

    def __init__(
        self,
        ctx: Any,
        n_workers: int,
        n_blocks: int,
        n: int,
        *,
        host: str = "127.0.0.1",
    ) -> None:
        import asyncio

        self.n_workers = int(n_workers)
        self.n_blocks = int(n_blocks)
        self.n = int(n)
        self.stats = _new_stats()
        self.stats.update(
            {
                "exchange.tcp.connects": 0,
                "exchange.tcp.frames_to_device": 0,
                "exchange.tcp.frames_from_device": 0,
            }
        )
        self._lock = threading.Lock()
        self._inbox: queue_mod.Queue = queue_mod.Queue()
        self._events = _EventBank()
        self._gens = [0] * self.n_workers
        self._latest: list[bytes | None] = [None] * self.n_workers
        self._connects_by_worker = [0] * self.n_workers
        self._writers: dict[int, Any] = {}
        self._server: Any = None
        self._boot_error: OSError | None = None
        self.port = 0
        self._loop = asyncio.new_event_loop()
        started = threading.Event()
        self._thread = threading.Thread(
            target=self._serve,
            args=(host, started),
            name="tcp-exchange-host",
            daemon=True,
        )
        self._thread.start()
        started.wait(timeout=10.0)
        if self._boot_error is not None:
            raise self._boot_error
        if self.port == 0:
            raise OSError("tcp exchange acceptor failed to start")
        self._address = (host, self.port)

    # -- event-loop thread ------------------------------------------------
    def _serve(self, host: str, started: threading.Event) -> None:
        import asyncio

        asyncio.set_event_loop(self._loop)

        async def boot() -> None:
            try:
                self._server = await asyncio.start_server(
                    self._handle_conn, host, 0
                )
                self.port = self._server.sockets[0].getsockname()[1]
            except OSError as exc:
                self._boot_error = exc
            finally:
                started.set()

        try:
            self._loop.run_until_complete(boot())
            if self._server is not None:
                self._loop.run_forever()
                # Stopped: cancel leftover connection handlers so the
                # loop closes quietly instead of warning about them.
                pending = asyncio.all_tasks(self._loop)
                for task in pending:
                    task.cancel()
                if pending:
                    self._loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
        finally:
            started.set()  # no-op when boot already set it
            try:
                self._loop.close()
            except RuntimeError:  # pragma: no cover - close raced a stop
                pass

    async def _handle_conn(self, reader: Any, writer: Any) -> None:
        """One worker stream: HELLO binds it to a slot, then frames flow."""
        buf = bytearray()
        worker_id: int | None = None
        try:
            while True:
                chunk = await reader.read(1 << 16)
                if not chunk:
                    break
                buf += chunk
                while True:
                    frame = decode_frame(buf, partial_ok=True)
                    if frame is None:
                        break
                    ftype, payload, consumed = frame
                    del buf[:consumed]
                    worker_id = self._dispatch(ftype, payload, writer, worker_id)
        except (FrameError, ConnectionError, OSError):
            pass  # poisoned or dropped stream: the worker will reconnect
        finally:
            if worker_id is not None and self._writers.get(worker_id) is writer:
                del self._writers[worker_id]
            writer.close()

    def _dispatch(
        self, ftype: int, payload: bytes, writer: Any, worker_id: int | None
    ) -> int | None:
        if ftype == F_HELLO:
            wid, winc = decode_hello(payload)
            if not 0 <= wid < self.n_workers:
                raise FrameError(f"HELLO from unknown worker {wid}")
            self._writers[wid] = writer
            with self._lock:
                replay = self._latest[wid]
            if replay is not None:
                # Replay the freshest batch so a (re)joining worker is
                # current immediately; its gen/epoch filter discards
                # the frame if it already used it or it is not for its
                # incarnation.
                writer.write(replay)
            # Count the connect here on the acceptor thread, not in
            # poll(): a restarted worker's connect can sit behind a
            # backlog of RESULT frames, and if the run finishes first
            # the reconnect would never be recorded.  ``_events`` is
            # already fed from this thread (F_EVENTS below).
            with self._lock:
                self.stats["exchange.tcp.connects"] += 1
            self._connects_by_worker[wid] += 1
            if self._connects_by_worker[wid] > 1:
                # A worker slot connected again (crash, drop, or an
                # elastic rejoin): surface it through the same event
                # relay the worker events use, so the solver stamps
                # the device id and filters stale incarnations.
                self._events.emit(
                    "exchange.reconnect",
                    device=wid,
                    incarnation=winc,
                    connects=self._connects_by_worker[wid],
                )
            return wid
        if ftype == F_RESULT:
            batch = decode_result(payload)
            self._inbox.put(("result", batch, len(payload)))
            return worker_id
        if ftype == F_EVENTS:
            wid, winc, events = decode_events(payload)
            if events:
                self._events.append_bundle((wid, winc, events))
            return worker_id
        raise FrameError(f"unexpected frame type {ftype} on the host side")

    def _send_to_worker(self, worker_id: int, frame: bytes) -> None:
        writer = self._writers.get(worker_id)
        if writer is not None:
            try:
                writer.write(frame)
            except (ConnectionError, OSError):  # pragma: no cover - racing close
                pass

    # -- host-loop thread -------------------------------------------------
    def _publish_targets(self, worker_id: int, epoch: int, targets: np.ndarray) -> None:
        self._gens[worker_id] += 1
        frame = encode_targets(self._gens[worker_id], epoch, targets)
        with self._lock:
            self._latest[worker_id] = frame
            self.stats["exchange.targets_published"] += 1
            self.stats["exchange.packs"] += 1
            self.stats["exchange.tcp.frames_to_device"] += 1
            self.stats["exchange.bytes_to_device"] += len(frame)
        self._loop.call_soon_threadsafe(self._send_to_worker, worker_id, frame)

    def make_target_channel(self, worker_id: int, incarnation: int) -> Any:
        # The stream and generation counter survive restarts; only the
        # epoch changes, so a replacement skips its predecessor's
        # batches exactly like a mailbox re-bind.
        return _TcpTargetChannel(self, worker_id, incarnation)

    def worker_ref(self, worker_id: int) -> tuple:
        return ("tcp", self._address)

    def poll(self, timeout: float) -> ResultBatch | None:
        try:
            _, batch, nbytes = self._inbox.get(timeout=timeout)
        except queue_mod.Empty:
            return None
        with self._lock:
            self.stats["exchange.results_consumed"] += 1
            self.stats["exchange.unpacks"] += 1
            self.stats["exchange.tcp.frames_from_device"] += 1
            self.stats["exchange.bytes_from_device"] += nbytes
        return batch

    def event_bundles(self) -> list[tuple[int, int, list]]:
        return self._events.drain()

    def result_backlog(self, worker_id: int) -> int:
        """Decoded results the host has not read yet (all workers share
        one inbox, so this is the whole stream's backlog)."""
        return self._inbox.qsize()

    def describe(self) -> dict[str, int | str]:
        pn = packed_length(self.n)
        k = len(_WIRE_COUNTER_KEYS)
        return {
            "transport": self.name,
            "workers": self.n_workers,
            "ring_slots": 0,
            "target_slot_bytes": _TARGETS_HEAD.size + self.n_blocks * pn,
            "result_slot_bytes": _RESULT_HEAD.size
            + 8 * k
            + self.n_blocks * 8
            + self.n_blocks * pn,
            "port": self.port,
        }

    def drain(self) -> None:
        try:
            while True:
                self._inbox.get_nowait()
        except queue_mod.Empty:
            pass

    def close(self) -> None:
        def _shutdown() -> None:
            for writer in list(self._writers.values()):
                writer.close()
            self._writers.clear()
            if self._server is not None:
                self._server.close()
            self._loop.stop()

        try:
            self._loop.call_soon_threadsafe(_shutdown)
        except RuntimeError:  # loop already closed
            return
        self._thread.join(timeout=5.0)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: Reconnect backoff bounds (seconds): quick first retry, capped so an
#: absent host is polled a few times a second, not hammered.
_BACKOFF_FIRST = 0.05
_BACKOFF_MAX = 0.5

#: Socket receive timeouts: ``fetch_targets(wait=False)`` peeks, the
#: lockstep wait path blocks in short slices so ``stop_evt`` is honored.
_PEEK_TIMEOUT = 0.002
_WAIT_TIMEOUT = 0.05


class TcpWorkerEndpoint:
    """Worker side of the tcp transport: one blocking loopback socket.

    Connection loss is survivable at every call: ``fetch_targets`` and
    ``publish`` transparently reconnect with exponential backoff, say
    HELLO (which makes the host replay the freshest target batch), and
    carry on.  See the module docstring for why a dropped RESULT frame
    is dropped for good rather than retried.
    """

    def __init__(
        self,
        address: tuple[str, int],
        worker_id: int,
        incarnation: int,
        stop_evt: Any,
    ) -> None:
        self._address = (str(address[0]), int(address[1]))
        self._worker_id = int(worker_id)
        self._incarnation = int(incarnation)
        self._stop_evt = stop_evt
        self._sock: socket.socket | None = None
        self._buf = bytearray()
        self._last_gen = 0
        self._latest_targets: np.ndarray | None = None
        self._connects = 0
        self._reconnects = 0
        self._dropped_results = 0
        self._connect()

    # -- connection management --------------------------------------------
    def _connect(self) -> bool:
        backoff = _BACKOFF_FIRST
        while not self._stop_evt.is_set():
            try:
                sock = socket.create_connection(self._address, timeout=2.0)
            except OSError:
                time.sleep(backoff)
                backoff = min(backoff * 2, _BACKOFF_MAX)
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(_WAIT_TIMEOUT)
            self._sock = sock
            self._buf.clear()
            self._connects += 1
            if self._connects > 1:
                self._reconnects += 1
            try:
                sock.sendall(encode_hello(self._worker_id, self._incarnation))
            except OSError:
                self._drop()
                continue
            return True
        return False

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close best-effort
                pass
            self._sock = None
        self._buf.clear()

    def _recv_once(self, timeout: float) -> bool:
        """One receive + frame parse; ``False`` means the stream died."""
        assert self._sock is not None
        try:
            self._sock.settimeout(timeout)
            chunk = self._sock.recv(1 << 16)
        except socket.timeout:
            return True
        except OSError:
            return False
        if not chunk:
            return False  # orderly EOF: host closed (or is restarting us)
        self._buf += chunk
        while True:
            try:
                frame = decode_frame(self._buf, partial_ok=True)
            except FrameError:
                return False  # poisoned stream: reconnect resyncs it
            if frame is None:
                return True
            ftype, payload, consumed = frame
            del self._buf[:consumed]
            if ftype != F_TARGETS:
                continue  # host → worker only carries targets
            try:
                gen, epoch, targets = decode_targets(payload)
            except FrameError:
                return False
            # Freshest-wins with the mailbox's exact filter: replayed,
            # out-of-date, or other-incarnation batches are skipped.
            if gen > self._last_gen and epoch == self._incarnation:
                self._last_gen = gen
                self._latest_targets = targets

    # -- exchange interface -----------------------------------------------
    def rearm(self, token: int) -> None:
        """Adopt a new epoch token (warm-fleet job switch).

        The host's generation counter keeps running across jobs, so
        ``_last_gen`` stays; any buffered batch decoded under the old
        epoch is discarded so the next fetch can only return targets
        published for the new job.
        """
        self._incarnation = int(token)
        self._latest_targets = None

    def fetch_targets(self, *, wait: bool) -> np.ndarray | None:
        while True:
            if self._stop_evt.is_set():
                return None
            if self._sock is None and not self._connect():
                return None
            if not self._recv_once(_WAIT_TIMEOUT if wait else _PEEK_TIMEOUT):
                self._drop()
                continue
            if self._latest_targets is not None:
                targets = self._latest_targets
                self._latest_targets = None
                return targets
            if not wait:
                return None

    def publish(
        self,
        energies: np.ndarray,
        x: np.ndarray,
        evaluated: int,
        flips: int,
        counters: dict[str, int],
        events: list,
    ) -> bool:
        wire_counters = dict(counters)
        wire_counters["exchange.tcp.reconnects"] = self._reconnects
        wire_counters["exchange.tcp.dropped_results"] = self._dropped_results
        data = encode_result(
            self._worker_id,
            self._incarnation,
            energies,
            x,
            int(evaluated),
            int(flips),
            wire_counters,
        )
        if events:
            data += encode_events(self._worker_id, self._incarnation, events)
        if self._sock is None and not self._connect():
            return False
        try:
            assert self._sock is not None
            self._sock.sendall(data)
        except OSError:
            # At-most-once: the totals are cumulative, so the next
            # round's snapshot covers this one — retrying here is the
            # only way the host could ever see a duplicate.
            self._dropped_results += 1
            self._drop()
        return True

    def close(self) -> None:
        self._drop()
