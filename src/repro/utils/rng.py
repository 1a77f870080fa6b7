"""Deterministic random-number plumbing.

The paper's selection policy (Figure 2) is deliberately RNG-free, but the
host GA, workload generators, and baselines all need randomness.  To keep
every experiment reproducible across process boundaries (the multi-GPU
simulation forks workers), all randomness flows from
:class:`numpy.random.Generator` instances derived from explicit seeds via
``SeedSequence.spawn`` — never from NumPy's legacy global state.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Union

import numpy as np

SeedLike = Union[None, int, Sequence[int], np.random.SeedSequence, np.random.Generator]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an integer seed, a sequence of
    integers, a :class:`~numpy.random.SeedSequence`, or an existing
    generator (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent generators from ``seed``.

    Used to hand each simulated GPU worker its own stream: worker ``i``
    always receives the same stream for the same parent seed, regardless
    of how many workers run or in what order they start.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Spawn through the generator's bit generator seed sequence.
        seq = seed.bit_generator.seed_seq  # type: ignore[attr-defined]
        if not isinstance(seq, np.random.SeedSequence):  # pragma: no cover
            raise TypeError("generator does not expose a SeedSequence")
    elif isinstance(seed, np.random.SeedSequence):
        seq = seed
    else:
        seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


class RngFactory:
    """A reproducible, forkable source of named random streams.

    Each distinct ``name`` maps to a deterministic child stream of the
    root seed, so adding a new consumer of randomness never perturbs the
    streams existing consumers see.

    Example
    -------
    >>> f = RngFactory(1234)
    >>> rng_ga = f.stream("ga")
    >>> rng_w0 = f.stream("worker", 0)
    """

    def __init__(self, seed: SeedLike = None) -> None:
        if isinstance(seed, np.random.Generator):
            raise TypeError("RngFactory needs a seed, not a Generator")
        if isinstance(seed, np.random.SeedSequence):
            self._root = seed
        else:
            self._root = np.random.SeedSequence(seed)

    @property
    def root_entropy(self) -> object:
        """The root entropy (useful for logging how a run was seeded)."""
        return self._root.entropy

    def seed_sequence(self, name: str, index: int = 0) -> np.random.SeedSequence:
        """The seed of logical stream ``(name, index)``.

        Small and picklable: ship it to another process and
        ``as_generator`` it there to get exactly :meth:`stream`.
        """
        # Hash the name into spawn_key material deterministically.
        key = tuple(name.encode("utf-8")) + (index,)
        return np.random.SeedSequence(entropy=self._root.entropy, spawn_key=key)

    def stream(self, name: str, index: int = 0) -> np.random.Generator:
        """Return the generator for logical stream ``(name, index)``.

        The mapping is stable: the same ``(root seed, name, index)``
        always yields the same stream.
        """
        return np.random.default_rng(self.seed_sequence(name, index))

    def streams(self, name: str, count: int) -> list[np.random.Generator]:
        """Return ``count`` generators for stream family ``name``."""
        return [self.stream(name, i) for i in range(count)]

    def iter_streams(self, name: str) -> Iterator[np.random.Generator]:
        """Yield an unbounded sequence of generators for ``name``."""
        i = 0
        while True:
            yield self.stream(name, i)
            i += 1


def random_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    """Return a uniformly random length-``n`` bit vector (dtype uint8)."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return rng.integers(0, 2, size=n, dtype=np.uint8)


def random_bit_matrix(rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
    """Return a ``rows × n`` matrix of uniformly random bits (uint8)."""
    if rows < 0 or n < 0:
        raise ValueError("rows and n must be non-negative")
    return rng.integers(0, 2, size=(rows, n), dtype=np.uint8)
