"""Shared weights and the bit-packed solution wire format (Figure 5).

In the paper the weight matrix sits in every GPU's global memory and
solutions travel as packed bit vectors.  Here (the target and solution
buffers themselves are the exchange rings of
:mod:`repro.abs.exchange`):

- :class:`SharedWeights` places the (large, read-only) weight matrix in
  POSIX shared memory so the multi-process mode never pickles or copies
  it per worker — the analogue of each GPU holding ``W`` in its global
  memory;
- :func:`pack_solutions` / :func:`unpack_solutions` convert between
  one-byte-per-bit solution matrices and the bit-packed wire format the
  shared-memory exchange rings use (:mod:`repro.abs.exchange`) — the
  analogue of the paper packing 32 solution bits per register word.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np


def packed_length(n: int) -> int:
    """Bytes per bit-packed solution of ``n`` bits (``⌈n / 8⌉``)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return (int(n) + 7) // 8


def pack_solutions(X: np.ndarray) -> np.ndarray:
    """Bit-pack a ``(B, n)`` 0/1 matrix into ``(B, ⌈n/8⌉)`` bytes.

    The packed form is what crosses the process boundary in the
    shared-memory exchange — 8× smaller than one byte per bit.
    """
    X = np.asarray(X, dtype=np.uint8)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D (B, n), got shape {X.shape}")
    return np.packbits(X, axis=1)


def unpack_solutions(packed: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_solutions`: ``(B, ⌈n/8⌉)`` → ``(B, n)``."""
    packed = np.asarray(packed, dtype=np.uint8)
    if packed.ndim != 2:
        raise ValueError(f"packed must be 2-D, got shape {packed.shape}")
    if packed.shape[1] != packed_length(n):
        raise ValueError(
            f"packed width {packed.shape[1]} does not match n={n} "
            f"(want {packed_length(n)})"
        )
    return np.unpackbits(packed, axis=1, count=int(n))


class SharedWeights:
    """A weight matrix in shared memory, attachable from worker processes.

    Create in the parent with :meth:`create`, pass :attr:`descriptor`
    (name, shape, dtype strings — cheap to pickle) to children, and
    attach with :meth:`attach`.  The parent must call :meth:`unlink`
    when done; every attacher should call :meth:`close`.
    """

    def __init__(self, shm: shared_memory.SharedMemory, array: np.ndarray, owner: bool) -> None:
        self._shm = shm
        self.array = array
        self._owner = owner

    @classmethod
    def create(cls, W: np.ndarray) -> "SharedWeights":
        """Copy ``W`` into a fresh shared-memory segment."""
        W = np.ascontiguousarray(W)
        shm = shared_memory.SharedMemory(create=True, size=W.nbytes)
        arr = np.ndarray(W.shape, dtype=W.dtype, buffer=shm.buf)
        arr[:] = W
        return cls(shm, arr, owner=True)

    @property
    def descriptor(self) -> tuple[str, tuple[int, ...], str]:
        """Picklable handle: ``(name, shape, dtype_str)``."""
        return (self._shm.name, tuple(self.array.shape), str(self.array.dtype))

    @classmethod
    def attach(cls, descriptor: tuple[str, tuple[int, ...], str]) -> "SharedWeights":
        """Attach to an existing segment from a worker process."""
        name, shape, dtype = descriptor
        shm = shared_memory.SharedMemory(name=name)
        arr = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
        return cls(shm, arr, owner=False)

    def close(self) -> None:
        """Detach this process's mapping."""
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (owner only; also closes)."""
        self._shm.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # already unlinked
                pass
