"""Tests for the host loop (§3.1)."""

import math

import numpy as np
import pytest

from repro.abs.host import Host
from repro.utils.rng import RngFactory


def sols(*pairs):
    """``(energies, X)`` for :meth:`Host.absorb_batch`."""
    return (
        np.array([e for e, _ in pairs], dtype=np.int64),
        np.array([x for _, x in pairs], dtype=np.uint8),
    )


class TestHost:
    def test_pool_seeded_at_infinite_energy(self):
        """§3.1 Step 1: initial energies are +∞ (never computed)."""
        host = Host(8, 6, rng_factory=RngFactory(1))
        assert len(host.pool) == 6
        assert host.pool.evaluated_fraction() == 0.0
        assert math.isinf(host.best_energy)

    def test_initial_targets_come_from_pool(self):
        host = Host(8, 4, rng_factory=RngFactory(1))
        targets = host.initial_targets(6)
        assert len(targets) == 6
        keys = {p.x.tobytes() for p in host.pool}
        assert all(t.tobytes() in keys for t in targets)

    def test_initial_targets_validation(self):
        host = Host(8, 4, rng_factory=RngFactory(1))
        with pytest.raises(ValueError):
            host.initial_targets(0)

    def test_absorb_updates_best_and_pool(self):
        host = Host(8, 4, rng_factory=RngFactory(2))
        a = [1, 0, 0, 0, 1, 1, 0, 1]
        b = [0, 1, 0, 0, 1, 0, 1, 1]
        # Ensure the probe vectors aren't already seeded.
        import numpy as np

        assert not host.pool.contains(np.array(a, dtype=np.uint8))
        assert not host.pool.contains(np.array(b, dtype=np.uint8))
        inserted = host.absorb_batch(*sols((-3, a), (-9, b)))
        assert inserted == 2
        assert host.best_energy == -9
        assert host.pool.best().energy == -9
        assert host.absorbed == 2

    def test_absorb_duplicate_not_inserted_but_best_kept(self):
        host = Host(8, 4, rng_factory=RngFactory(2))
        a = [1, 0, 0, 0, 1, 1, 0, 1]
        host.absorb_batch(*sols((-3, a)))
        inserted = host.absorb_batch(*sols((-3, a)))
        assert inserted == 0
        assert host.best_energy == -3

    def test_best_survives_pool_eviction(self):
        """The incumbent is tracked outside the pool: even if eviction
        pressure pushes its entry out later, best_energy/x remain."""
        host = Host(4, 2, rng_factory=RngFactory(3))
        host.absorb_batch(*sols((-50, [1, 1, 1, 1])))
        host.absorb_batch(*sols((-60, [1, 1, 1, 0]), (-70, [1, 1, 0, 0])))
        assert host.best_energy == -70
        assert np.array_equal(host.best_x, [1, 1, 0, 0])

    def test_make_targets_counts(self):
        host = Host(8, 4, rng_factory=RngFactory(4))
        assert len(host.make_targets(5)) == 5

    def test_host_never_computes_energy(self):
        """Whatever the devices report is trusted verbatim: the host has
        no access to the weight matrix at all."""
        host = Host(4, 4, rng_factory=RngFactory(5))
        assert not hasattr(host, "W")
        host.absorb_batch(*sols((123456, [1, 0, 1, 0])))  # plausible or not
        assert host.best_energy == 123456
