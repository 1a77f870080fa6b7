"""The telemetry bus: guarded event emission + a counter registry.

Design constraints (see ``docs/observability.md`` for the contract):

- **Off by default, near-zero overhead.**  Every instrumented component
  holds a bus reference defaulting to the shared :data:`NULL_BUS`.  Hot
  paths guard with ``if bus.enabled:`` so a disabled run never builds an
  event payload; counter increments on the null bus are no-ops.
- **No per-flip Python calls.**  The vectorized engine emits one event
  per ``local_steps`` / ``straight_to`` batch, never per flip.
- **Determinism-neutral.**  The bus never touches any RNG stream and
  never feeds information back into the search; a seeded solve is
  bit-identical with telemetry on or off (pinned by
  ``tests/telemetry/test_pipeline.py``).

Counters on the bus accumulate for the bus's lifetime (a *session*);
the per-run snapshot a solve returns on
:attr:`~repro.abs.result.SolveResult.counters` is derived from component
state instead, so it is available even with telemetry disabled.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Protocol, runtime_checkable

from repro.telemetry.events import Event


@runtime_checkable
class Sink(Protocol):
    """Anything that can receive events from a bus."""

    def handle(self, event: Event) -> None: ...


class CounterRegistry:
    """Named monotone integer counters, keyed by dotted names."""

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}

    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` (default 1) to counter ``name``."""
        self._counts[name] = self._counts.get(name, 0) + int(value)

    def get(self, name: str) -> int:
        """Current value of ``name`` (0 if never incremented)."""
        return self._counts.get(name, 0)

    def snapshot(self) -> dict[str, int]:
        """Name-sorted copy of all counters."""
        return dict(sorted(self._counts.items()))

    def reset(self) -> None:
        """Zero every counter."""
        self._counts.clear()

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:
        return f"CounterRegistry({len(self._counts)} counters)"


class _NullCounters(CounterRegistry):
    """Counter registry whose increments are no-ops (disabled telemetry)."""

    __slots__ = ()

    def inc(self, name: str, value: int = 1) -> None:  # noqa: ARG002
        pass


class TelemetryBus:
    """Dispatches events to attached sinks and hosts the session counters.

    Parameters
    ----------
    sinks:
        Initial sinks (more can be attached later).
    clock:
        Monotonic time source; injectable for tests.

    The bus is a context manager: ``with TelemetryBus([JsonlSink(p)]):``
    closes closeable sinks on exit.
    """

    enabled = True

    def __init__(
        self,
        sinks: tuple[Sink, ...] | list[Sink] = (),
        *,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._sinks: list[Sink] = list(sinks)
        self._clock = clock
        self._t0 = clock()
        self._seq = 0
        self.counters = CounterRegistry()

    def attach(self, sink: Sink) -> Sink:
        """Add a sink; returns it so call sites can keep the reference."""
        self._sinks.append(sink)
        return sink

    def detach(self, sink: Sink) -> None:
        """Remove a previously attached sink (no-op if absent)."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

    @property
    def sinks(self) -> tuple[Sink, ...]:
        """The currently attached sinks."""
        return tuple(self._sinks)

    def emit(self, name: str, /, **fields: Any) -> None:
        """Deliver one event to every sink.

        Call sites on hot paths must guard with ``if bus.enabled:`` so
        the kwargs dict is never built for a disabled bus.
        """
        self._seq += 1
        event = Event(name=name, t=self._clock() - self._t0, seq=self._seq, fields=fields)
        for sink in self._sinks:
            sink.handle(event)

    def close(self) -> None:
        """Close every sink that supports it (flushes JSONL writers)."""
        for sink in self._sinks:
            closer = getattr(sink, "close", None)
            if closer is not None:
                closer()

    def __enter__(self) -> "TelemetryBus":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class NullBus:
    """The disabled bus: every operation is a no-op.

    Shares the :class:`TelemetryBus` interface so instrumented code
    never branches on bus *type*, only on :attr:`enabled`.
    """

    enabled = False

    def __init__(self) -> None:
        self.counters: CounterRegistry = _NullCounters()

    @property
    def sinks(self) -> tuple[Sink, ...]:
        return ()

    def attach(self, sink: Sink) -> Sink:
        return sink

    def detach(self, sink: Sink) -> None:
        pass

    def emit(self, name: str, /, **fields: Any) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullBus":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


class RelayBus:
    """An enabled bus that *buffers* events for cross-process relay.

    Worker processes cannot share the host's :class:`TelemetryBus` (its
    sinks hold file handles and in-memory lists that do not cross
    ``fork``/``spawn`` boundaries usefully).  Instead a worker builds a
    ``RelayBus``, hands it to its instrumented components, and ships
    :meth:`drain`'s ``(name, fields)`` pairs back with each result
    batch; the host re-emits them on the real bus — stamping the worker
    id — which assigns the authoritative timestamp and sequence number.

    Counter increments (today only the engine's ``backend.*_ns``
    timings) are accepted but never shipped.  Run counters need no
    relay: each worker reports its cumulative
    :meth:`~repro.abs.device.DeviceSimulator.totals` with every result,
    the host sums them into ``SolveResult.counters``, and the run adds
    that record to the session counters once.
    """

    enabled = True

    def __init__(self) -> None:
        self.counters = CounterRegistry()
        self._pending: list[tuple[str, dict[str, Any]]] = []

    @property
    def sinks(self) -> tuple[Sink, ...]:
        return ()

    def attach(self, sink: Sink) -> Sink:
        return sink

    def detach(self, sink: Sink) -> None:
        pass

    def emit(self, name: str, /, **fields: Any) -> None:
        self._pending.append((name, fields))

    def drain(self) -> list[tuple[str, dict[str, Any]]]:
        """Take (and clear) the buffered ``(name, fields)`` pairs."""
        pending, self._pending = self._pending, []
        return pending

    def close(self) -> None:
        pass


class StampedBus:
    """A view of another bus that stamps fixed fields onto every event.

    The warm-fleet service wraps its shared bus in
    ``StampedBus(bus, job=<id>)`` for each job's solve, so one trace can
    interleave many jobs and still be teased apart per job.  Stamp
    fields must be declared in ``schema.STAMP_FIELDS`` — the validator
    accepts them on any event.  Counters, sinks, and :attr:`enabled`
    delegate to the wrapped bus; explicit event fields win over stamps
    on a name collision.
    """

    __slots__ = ("_inner", "_stamp")

    def __init__(self, inner: Any, **stamp: Any) -> None:
        self._inner = inner
        self._stamp = stamp

    @property
    def enabled(self) -> bool:
        return self._inner.enabled

    @property
    def counters(self) -> CounterRegistry:
        return self._inner.counters

    @property
    def sinks(self) -> tuple[Sink, ...]:
        return self._inner.sinks

    def attach(self, sink: Sink) -> Sink:
        return self._inner.attach(sink)

    def detach(self, sink: Sink) -> None:
        self._inner.detach(sink)

    def emit(self, name: str, /, **fields: Any) -> None:
        self._inner.emit(name, **{**self._stamp, **fields})

    def close(self) -> None:
        # Closing a per-job view must not close the service's shared
        # sinks; the owner closes the inner bus.
        pass


#: Shared disabled bus — the default for every instrumented component.
NULL_BUS = NullBus()
