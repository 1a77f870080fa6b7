"""Tests for the shared-memory weight segments."""

import numpy as np

from repro.abs.buffers import SharedWeights


class TestSharedWeights:
    def test_create_attach_roundtrip(self):
        W = np.arange(16, dtype=np.int64).reshape(4, 4)
        owner = SharedWeights.create(W)
        try:
            other = SharedWeights.attach(owner.descriptor)
            try:
                assert np.array_equal(other.array, W)
                # Writes propagate (shared segment, not a copy).
                other.array[0, 0] = 99
                assert owner.array[0, 0] == 99
            finally:
                other.close()
        finally:
            owner.unlink()

    def test_unlink_idempotent(self):
        owner = SharedWeights.create(np.zeros((2, 2), dtype=np.int64))
        owner.unlink()
        owner.unlink()  # must not raise

    def test_descriptor_contents(self):
        owner = SharedWeights.create(np.zeros((3, 2), dtype=np.int32))
        try:
            name, shape, dtype = owner.descriptor
            assert shape == (3, 2) and dtype == "int32"
            assert isinstance(name, str)
        finally:
            owner.unlink()
