"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import signal

import numpy as np
import pytest
from hypothesis import HealthCheck, settings


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Enforce ``@pytest.mark.timeout(seconds)`` without a plugin.

    The multiprocessing suite must *fail* within its budget rather than
    hang CI when a worker/host handshake deadlocks.  When the real
    ``pytest-timeout`` plugin is installed it takes precedence; this
    fallback covers environments without it, using ``SIGALRM`` (so it
    is a no-op on platforms lacking it, e.g. Windows).
    """
    marker = item.get_closest_marker("timeout")
    if (
        marker is None
        or not hasattr(signal, "SIGALRM")
        or item.config.pluginmanager.hasplugin("timeout")
    ):
        yield
        return
    seconds = float(marker.args[0]) if marker.args else 60.0

    def _expired(signum, frame):
        raise TimeoutError(f"test exceeded its {seconds:g}s timeout budget")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

# One moderate profile for CI speed; property tests are numerous, so
# each keeps its example count modest and skips the shrink deadline.
settings.register_profile(
    "repro",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for ad-hoc randomness in tests."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def small_qubo():
    """A 16-bit random instance small enough for exhaustive checking."""
    from repro.qubo import QuboMatrix

    return QuboMatrix.random(12, seed=12345)


@pytest.fixture
def medium_qubo():
    """A 64-bit instance for walk-based tests."""
    from repro.qubo import QuboMatrix

    return QuboMatrix.random(64, seed=54321)
